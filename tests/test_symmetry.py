"""Both flows commute with the exact symmetries of the torus grid.

The flow is built from the Chern connection and the volume-form norm,
which are natural under biholomorphisms (Phong, Picard and Zhang,
*Anomaly flows*, Comm. Anal. Geom. 2018), and under the antiholomorphic
reflection as well.  These maps also map the Fourier grid to itself, so a
flow run from transformed data must end at the transformed end state to
round-off:

* a translation by whole grid cells, which rolls every field;
* the antiholomorphic reflection z -> zbar (y -> -y in every plane),
  which mirrors the y axes and takes g to its transpose, the complex
  conjugate of a Hermitian matrix;
* the quarter turn z^0 -> i z^0, which rotates the (x^0, y^0) plane and
  multiplies the components of g that carry index 0 once by -i or i;
* the swap z^0 <-> z^1, which moves grid axes (0, 1) to (2, 3) (or
  transposes the grid on axes (0, 1, 2, 3)) and swaps matrix indices 0
  and 1.

A source psi moves with the map too.  Its sigma matrix is pulled back
with ``forms.wedge`` and ``sigma_coefficient``, not by a law written
here, and the quarter turn of the flow with it catches a source read
with its indices transposed.

The reflection conjugates every field, so it checks that real and
imaginary parts are treated alike.  The quarter turn multiplies the
components of omega^{n-2} by powers of i, so it checks how the anchor
system combines their real and imaginary parts.  Gaps are max-norm gaps
relative to the end state, after three RK4 steps at R = 8 (R = 4 on
four active axes).

The spatial verify reports and a diagnostics record are maxima and
minima over the grid of pointwise fields built the same way, so they are
invariant under translation and under the swap to round-off.  On axes
(0, 1) the swap moves the only active direction from 0 to 1, so it also
checks that the Bianchi residuals are formed on the active slots, not on
a fixed one.
"""

import functools
import itertools

import numpy as np
import pytest

from iiblab import (
    FORM_ANCHOR, FORM_WEIGHTED, ChernPackage, StepControl, TorusGrid, run_flow,
)
from iiblab.diagnostics import compute_diagnostics
from iiblab.flow import STATUS_COMPLETED
from iiblab.forms import DifferentialForm, sigma_coefficient, wedge
from iiblab.metrics import fourier_scalar, random_band_metric
from iiblab.verify import SPATIAL_REGISTRY

STEPS, DT = 3, 1e-3
GEOMETRIES = [(3, (0, 1)), (4, (0, 1))]
# The flows also at n = 5 and on the axis sets each map sends to itself:
# all four maps keep (0, 2) and (0, 1, 2, 3), except the quarter turn,
# which rotates the (x^0, y^0) plane and so keeps only the second.
FLOW_GEOMETRIES = GEOMETRIES + [(5, (0, 1)), (3, (0, 2)), (3, (0, 1, 2, 3))]
TURN_GEOMETRIES = GEOMETRIES + [(5, (0, 1)), (3, (0, 1, 2, 3))]
SHIFT = (3, 5, 1, 2)
# worst measured at n = 3, 4 and 5, three shifts and three weighted seeds:
# translation 2.1e-16, quarter turn 2.1e-16, reflection exactly 0; the
# swap, at n = 3, 4 and 5 with and without a source: 4.2e-16; with a
# source, at n = 3, 4 and 5 and three sources, both formulations: quarter
# turn 2.1e-16, swap 4.2e-16 (an untransformed source misses by 7e-6 or more);
# at n = 3 on axes (0, 2) and (0, 1, 2, 3), with and without a source, both
# formulations: swap 4.2e-16 (on (0, 2)), the other maps 2.2e-16 or less
TOLERANCE = 1e-15
# worst measured at n = 3, 4 and 5, four seeds and three shifts: 8.9e-15
# absolute on a maxResidual (at R = 8 the residuals, 2e-4 to 3e-2, are
# fd8 truncation errors between O(1) fields) and 8.4e-16 relative on a
# record field; the swap, at n = 3, 4 and 5 on axes (0, 1) and (0, 1, 2,
# 3) and three seeds: 4.6e-15 absolute and 1.7e-15 relative
REPORT_TOLERANCE = 5e-14
RECORD_TOLERANCE = 5e-15
# real axes of z^0 and z^1 exchanged by the swap
SWAP_AXES = {0: 2, 1: 3, 2: 0, 3: 1}
SPATIAL_SUITE = ["connection-difference", "bianchi", "commutator", "quasilinear"]


def _balanced(grid):
    """Conformally balanced data that is neither diagonal nor mirror-symmetric.

    ``diag(exp((n-1) f), exp(f) H)``, with f varying along z^0 only and a
    constant Hermitian H > 0, is the diagonal balanced family read in
    linear coordinates of z^1 .. z^{n-1}.  Pulling it back by the torus
    automorphism z^1 -> z^1 + z^0 (``L^H g L``, with L unimodular and
    integral) couples index 0 to the others and keeps it balanced.
    """
    n = grid.n

    def along_z0(kx, ky):  # wave numbers on the grid's axes, 0 off x^0, y^0
        return [{0: kx, 1: ky}.get(a, 0) for a in grid.active_axes]

    f = fourier_scalar(grid, [along_z0(1, 1) + [0.0, -0.15], along_z0(0, 1) + [0.05, 0.02]])
    H = np.eye(n - 1, dtype=complex)
    H[0, 1], H[1, 0] = 0.2 + 0.3j, 0.2 - 0.3j
    g = np.zeros(grid.shape + (n, n), dtype=complex)
    g[..., 0, 0] = np.exp((n - 1) * f)
    g[..., 1:, 1:] = np.exp(f)[..., None, None] * H
    L = np.eye(n)
    L[1, 0] = 1.0
    return L.T @ g @ L


def _initial(grid, formulation):
    if formulation == FORM_ANCHOR:
        return _balanced(grid)
    return random_band_metric(grid, seed=4, amplitude=0.2)


def _source(grid):
    """A smooth Hermitian field psi: the anchor source, in both formulations."""
    return 0.3 * (random_band_metric(grid, seed=9, amplitude=0.2) - np.eye(grid.n))


def _grid(n, axes):
    return TorusGrid(n, axes, 8 if len(axes) == 2 else 4)


def _end_state(grid, g0, formulation, source=None):
    traj = run_flow(grid, g0, formulation, STEPS * DT, StepControl(dt=DT),
                    anchor_source=source)
    assert traj.status == STATUS_COMPLETED and traj.steps_taken == STEPS
    return traj.snapshots[-1]


@functools.cache
def _unmoved_end(n, axes, formulation, with_source):
    """The end state from the unmoved data, shared by every map's test.

    Read-only, so that no map can change it for the next test.
    """
    grid = _grid(n, axes)
    end = _end_state(grid, _initial(grid, formulation), formulation,
                     _source(grid) if with_source else None)
    end.flags.writeable = False
    return end


def _translate(grid, a):
    return np.roll(a, SHIFT[: grid.ndim_grid], axis=tuple(range(grid.ndim_grid)))


def _reflect(grid, a):
    """y -> -y on the grid (node i -> -i mod R along every y axis), then g -> g^T."""
    for pos, axis in enumerate(grid.active_axes):
        if axis % 2:
            a = np.roll(np.flip(a, axis=pos), 1, axis=pos)
    return np.swapaxes(a, -1, -2)


def _turn_nodes(a):
    """Node (i0, i1) takes node (-i1, i0): the nodes under z^0 -> i z^0."""
    return np.roll(np.flip(np.swapaxes(a, 0, 1), axis=1), 1, axis=1)


def _quarter_turn(grid, a):
    """z^0 -> i z^0: the nodes turned, and g -> D g conj(D) with
    D = diag(-i, 1, ..., 1), the pullback by the map's differential."""
    a = _turn_nodes(a)
    a[..., 0, 1:] *= -1j
    a[..., 1:, 0] *= 1j
    return a


def _swapped_grid(grid):
    axes = tuple(sorted(SWAP_AXES.get(a, a) for a in grid.active_axes))
    return TorusGrid(grid.n, axes, grid.resolution)


def _swap(grid, a, rank=2):
    """z^0 <-> z^1: each grid axis follows its real axis, and each of the
    last ``rank`` index axes swaps 0 and 1."""
    axes = _swapped_grid(grid).active_axes
    dest = [axes.index(SWAP_AXES.get(x, x)) for x in grid.active_axes]
    a = np.moveaxis(a, range(grid.ndim_grid), dest)
    perm = [1, 0] + list(range(2, grid.n))
    for axis in range(-rank, 0):
        a = np.take(a, perm, axis=axis)
    return a


def _sigma_pullback(grid, dz):
    """``T[a, b, c, d]``, the coefficient of sigma(c, d) in F^* sigma(a, b), for
    the linear map F with F^* dz^j = sum_m dz[j, m] dz^m.

    sigma(a, b) is ``sigma_coefficient(n, a, b)`` times dz^J ^ dzbar^K, with J
    and K the complements of a and b.  Its pullback is the wedge of the
    pulled-back one-forms (constant coefficients), read back in the sigma basis.
    """
    n = grid.n
    dz_forms = [DifferentialForm(grid, 1, 0, {((m,), ()): dz[j, m] for m in range(n)})
                for j in range(n)]
    dzbar_forms = [DifferentialForm(grid, 0, 1, {((), (m,)): np.conj(dz[k, m]) for m in range(n)})
                   for k in range(n)]
    T = np.zeros((n,) * 4, dtype=complex)
    for a, b in itertools.product(range(n), repeat=2):
        form = DifferentialForm(grid, 0, 0, {((), ()): sigma_coefficient(n, a, b)})
        for factor in dz_forms[:a] + dz_forms[a + 1:] + dzbar_forms[:b] + dzbar_forms[b + 1:]:
            form = wedge(form, factor)
        for (J, K), coeff in form.comps.items():
            (c,), (d,) = set(range(n)) - set(J), set(range(n)) - set(K)
            T[a, b, c, d] += coeff / sigma_coefficient(n, c, d)
    return T


def _pull_source(grid, psi, dz):
    """The sigma matrix ``psi[..., a, b]`` (the coefficient of sigma(a, b)) of
    an anchor source, pulled back node by node."""
    return np.einsum("...ab,abcd->...cd", psi, _sigma_pullback(grid, dz))


# Derived, the laws come out as those of g: the quarter turn multiplies the
# entries [0, 1:] by -i and [1:, 0] by i, and the swap exchanges indices 0
# and 1, with no sign.
def _turn_source(grid, psi):
    return _pull_source(grid, _turn_nodes(psi), np.diag([1j] + [1.0] * (grid.n - 1)))


def _swap_source(grid, psi):
    return _pull_source(grid, _swap(grid, psi, rank=0), np.eye(grid.n)[[1, 0] + list(range(2, grid.n))])


def _gap(a, b):
    return np.abs(a - b).max() / np.abs(a).max()


@pytest.mark.parametrize("n, axes", FLOW_GEOMETRIES)
@pytest.mark.parametrize("formulation", [FORM_ANCHOR, FORM_WEIGHTED])
@pytest.mark.parametrize("with_source", [False, True])
def test_flow_commutes_with_translation(n, axes, formulation, with_source):
    grid = _grid(n, axes)
    g0 = _initial(grid, formulation)
    src = _source(grid) if with_source else None
    moved_src = _translate(grid, src) if with_source else None
    end = _unmoved_end(n, axes, formulation, with_source)
    moved = _end_state(grid, _translate(grid, g0), formulation, moved_src)
    assert _gap(_translate(grid, end), moved) <= TOLERANCE


@pytest.mark.parametrize("n, axes", FLOW_GEOMETRIES)
@pytest.mark.parametrize("formulation", [FORM_ANCHOR, FORM_WEIGHTED])
def test_flow_commutes_with_antiholomorphic_reflection(n, axes, formulation):
    grid = _grid(n, axes)
    g0 = _initial(grid, formulation)
    mirrored = _reflect(grid, g0)
    assert _gap(g0, mirrored) > 1e-2  # the data is not already symmetric
    end = _unmoved_end(n, axes, formulation, False)
    assert _gap(_reflect(grid, end), _end_state(grid, mirrored, formulation)) <= TOLERANCE


@pytest.mark.parametrize("n, axes", TURN_GEOMETRIES)
@pytest.mark.parametrize("formulation", [FORM_ANCHOR, FORM_WEIGHTED])
def test_flow_commutes_with_quarter_turn(n, axes, formulation):
    grid = _grid(n, axes)
    g0 = _initial(grid, formulation)
    turned = _quarter_turn(grid, g0)
    assert _gap(g0, turned) > 1e-2
    end = _unmoved_end(n, axes, formulation, False)
    assert _gap(_quarter_turn(grid, end), _end_state(grid, turned, formulation)) <= TOLERANCE


@pytest.mark.parametrize("n, axes", FLOW_GEOMETRIES)
@pytest.mark.parametrize("formulation", [FORM_ANCHOR, FORM_WEIGHTED])
def test_flow_commutes_with_coordinate_swap(n, axes, formulation):
    grid = _grid(n, axes)
    g0 = _initial(grid, formulation)
    swapped = _swap(grid, g0)
    assert _gap(g0, swapped) > 1e-2
    end = _unmoved_end(n, axes, formulation, False)
    moved = _end_state(_swapped_grid(grid), swapped, formulation)
    assert _gap(_swap(grid, end), moved) <= TOLERANCE


@pytest.mark.parametrize("n, axes", TURN_GEOMETRIES)
@pytest.mark.parametrize("formulation", [FORM_ANCHOR, FORM_WEIGHTED])
def test_flow_with_a_source_commutes_with_quarter_turn(n, axes, formulation):
    grid = _grid(n, axes)
    g0, src = _initial(grid, formulation), _source(grid)
    end = _unmoved_end(n, axes, formulation, True)
    turned = _end_state(grid, _quarter_turn(grid, g0), formulation, _turn_source(grid, src))
    assert _gap(_quarter_turn(grid, end), turned) <= TOLERANCE


@pytest.mark.parametrize("n, axes", FLOW_GEOMETRIES)
@pytest.mark.parametrize("formulation", [FORM_ANCHOR, FORM_WEIGHTED])
def test_flow_with_a_source_commutes_with_coordinate_swap(n, axes, formulation):
    grid = _grid(n, axes)
    g0, src = _initial(grid, formulation), _source(grid)
    end = _unmoved_end(n, axes, formulation, True)
    moved = _end_state(_swapped_grid(grid), _swap(grid, g0), formulation, _swap_source(grid, src))
    assert _gap(_swap(grid, end), moved) <= TOLERANCE


def _spatial_outputs(grid, g, g0, probe):
    """The maxResidual of every spatial report, and one diagnostics record."""
    residuals = {}
    for key in SPATIAL_SUITE:
        kwargs = {"covector": probe} if key == "commutator" else {}
        for rep in SPATIAL_REGISTRY[key](grid, g, **kwargs):
            residuals[rep["identityName"]] = rep["maxResidual"]
    record = compute_diagnostics(g, ChernPackage(grid, g0), 0.5, (0.02, 1.0))
    return residuals, record


def _assert_same_outputs(want, got):
    for value, moved in zip(want, got, strict=True):
        assert value.keys() == moved.keys()
    (residuals, record), (residuals_moved, record_moved) = want, got
    for name, value in residuals.items():
        assert abs(value - residuals_moved[name]) <= REPORT_TOLERANCE, name
    for key, value in record.items():
        assert abs(value - record_moved[key]) <= RECORD_TOLERANCE * abs(value), key


def _probe(grid):
    """The commutator check's constant default probe."""
    return np.ones(grid.shape + (grid.n,), dtype=complex) + 0.5j * np.arange(grid.n)


@pytest.mark.parametrize("n, axes", GEOMETRIES)
def test_spatial_reports_and_records_commute_with_translation(n, axes):
    grid = TorusGrid(n, axes, 8)
    g = random_band_metric(grid, seed=4, amplitude=0.2)
    g0 = random_band_metric(grid, seed=9, amplitude=0.2)
    moved = _translate(grid, g)
    assert _gap(g, moved) > 1e-2
    want = _spatial_outputs(grid, g, g0, _probe(grid))
    got = _spatial_outputs(grid, moved, _translate(grid, g0), _probe(grid))
    _assert_same_outputs(want, got)


@pytest.mark.parametrize("n, axes", GEOMETRIES + [(5, (0, 1)), (3, (0, 1, 2, 3))])
def test_spatial_reports_and_records_commute_with_coordinate_swap(n, axes):
    grid = _grid(n, axes)
    g = random_band_metric(grid, seed=4, amplitude=0.2)
    g0 = random_band_metric(grid, seed=9, amplitude=0.2)
    moved = _swap(grid, g)
    assert _gap(g, moved) > 1e-2
    want = _spatial_outputs(grid, g, g0, _probe(grid))
    swapped = _swapped_grid(grid)
    got = _spatial_outputs(swapped, moved, _swap(grid, g0), _swap(grid, _probe(grid), rank=1))
    _assert_same_outputs(want, got)


@pytest.mark.parametrize("n, formulation", [(3, FORM_WEIGHTED), (4, FORM_WEIGHTED), (3, FORM_ANCHOR)])
def test_flow_obeys_the_scaling_law(n, formulation):
    """g -> lam g with t -> lam^(1 - n/2) t (the flow module docstring).

    Measured gaps with lam = 4: 6.6e-18 (n = 3, weighted), exactly 0 (n = 4
    weighted, n = 3 anchor).  A time exponent off by 1/2 misses by 1.1e-3
    or more.
    """
    grid = TorusGrid(n, (0, 1), 8)
    g0 = _initial(grid, formulation)
    lam = 4.0
    end = run_flow(grid, g0, formulation, STEPS * DT, StepControl(dt=DT)).metric_at(-1)
    for exponent in (1 - n / 2, 0.5 - n / 2, 1.5 - n / 2):
        c = lam**exponent
        traj = run_flow(grid, lam * g0, formulation, STEPS * DT * c, StepControl(dt=DT * c))
        assert traj.status == STATUS_COMPLETED and traj.steps_taken == STEPS
        gap = _gap(lam * end, traj.metric_at(-1))
        if exponent == 1 - n / 2:
            assert gap <= TOLERANCE
        else:
            assert gap > 1e-4
