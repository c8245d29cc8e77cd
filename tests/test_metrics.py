"""Metric constructors and volume data."""

import numpy as np
import pytest

from iiblab import (
    HermiticityError,
    IIBLabError,
    PositivityError,
    TorusGrid,
    balanced_band_metric,
    conformally_balanced_defect,
    flat_metric,
    random_band_metric,
    volume_norm,
)
from iiblab.metrics import (
    MetricFactor,
    balanced_defect_parts,
    block_eigenvalues,
    check_positive,
    fourier_scalar,
    hermiticity_defect,
    live_slots,
    min_eigenvalue,
    slot_rects,
)
from iiblab.forms import _exterior_d_table, omega_power
from probes import dense_factor, kahler_from_potential, matrix_to_one_one, wedge_power

GRID = TorusGrid(3, (0, 1), 16)


def test_flat_metric_is_identity():
    g = flat_metric(GRID)
    assert g.shape == GRID.shape + (3, 3)
    assert np.array_equal(g[0, 0], np.eye(3))
    assert np.all(volume_norm(g) == 1.0)


def test_fourier_scalar_terms():
    f = fourier_scalar(GRID, [[1, 0, 0.0, -0.5]])
    x = GRID.coordinate(0)
    assert np.abs(f - 0.5 * np.sin(2 * np.pi * x)).max() < 1e-14


def test_balanced_family_is_exactly_balanced():
    f = fourier_scalar(GRID, [[1, 1, 0.0, -0.15], [1, -1, 0.0, -0.15]])
    for stretch in (1.0, 1.7):
        g = balanced_band_metric(GRID, f, stretch)
        assert hermiticity_defect(g) == 0.0
        assert conformally_balanced_defect(GRID, g) < 1e-12


@pytest.mark.parametrize("n", [4, 5])
def test_balanced_family_is_balanced_beyond_three_dimensions(n):
    grid = TorusGrid(n, (0, 1), 32)
    f = fourier_scalar(grid, [[1, 1, 0.0, -0.15], [1, -1, 0.0, -0.15]])
    g = balanced_band_metric(grid, f)
    assert conformally_balanced_defect(grid, g) < 1e-12


def test_balanced_family_breaks_off_stretched_coordinate():
    # same profile keyed to an axis of z^2: no longer balanced
    grid = TorusGrid(3, (0, 2), 16)
    f = fourier_scalar(grid, [[1, 1, 0.0, -0.15]])
    g = balanced_band_metric(grid, f)
    assert conformally_balanced_defect(grid, g) > 1e-2


def test_volume_norm_closed_form():
    f = fourier_scalar(GRID, [[1, 0, 0.2, 0.0]])
    g = balanced_band_metric(GRID, f, stretch=2.0)
    # det g = 4 exp(4f), so the norm is exp(-2f)/2
    assert np.abs(volume_norm(g) - 0.5 * np.exp(-2 * f)).max() < 1e-13


def test_random_metric_positive_and_seeded():
    a = random_band_metric(GRID, seed=11)
    b = random_band_metric(GRID, seed=11)
    c = random_band_metric(GRID, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.linalg.eigvalsh(a).min() > 0.5  # exp(H) with small H stays near 1


def test_random_metric_resolution_independent():
    """One analytic field: the coarse grid is a restriction of the fine one."""
    coarse = random_band_metric(TorusGrid(3, (0, 1), 8), seed=5)
    fine = random_band_metric(TorusGrid(3, (0, 1), 16), seed=5)
    assert np.allclose(coarse, fine[::2, ::2], atol=1e-14)


def test_random_metric_amplitude_guard():
    with pytest.raises(PositivityError):
        random_band_metric(GRID, seed=1, amplitude=0.5)


def test_kahler_metric_hermitian_positive():
    x, y = GRID.coordinate(0), GRID.coordinate(1)
    phi = 0.01 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    g = kahler_from_potential(GRID, phi)
    assert hermiticity_defect(g) < 1e-14
    assert np.linalg.eigvalsh(g).min() > 0.5


def test_balanced_defect_detects_kahler_nonbalanced():
    x, y = GRID.coordinate(0), GRID.coordinate(1)
    phi = 0.05 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    g = kahler_from_potential(GRID, phi)
    assert conformally_balanced_defect(GRID, g) > 1e-4


@pytest.mark.parametrize("n, axes", [
    (n, axes) for n in (3, 4, 5) for axes in ((0, 1), (0, 2), (0, 1, 2, 3))
])
def test_balanced_defect_parts_equal_the_form_algebra(n, axes):
    """d(u omega^{n-1}) from the minors of g and the compiled d against the
    oracle's wedge power and exterior_d: the same 2n parts, del parts first,
    in the same order."""
    grid = TorusGrid(n, axes, 8)
    for seed in range(4):
        g = random_band_metric(grid, seed=seed, amplitude=0.2)
        u = volume_norm(g)
        d, dbar = (wedge_power(matrix_to_one_one(grid, g), n - 1) * u.astype(complex)).exterior_d()
        want = [*d.comps.values(), *dbar.comps.values()]
        got = balanced_defect_parts(grid, g, u)
        assert len(got) == len(want) == 2 * n
        gap = max(np.abs(a - b).max() for a, b in zip(got, want))
        # worst measured over these geometries, seeds 0-3: 1.3e-15 at n = 3 and
        # 6.2e-14 at n = 4, 5, where u omega^{n-1} reaches (n-1)! and its
        # round-off grows with the wave numbers; the oracle is no closer to an
        # extended-precision u omega^{n-1} (both 4e-13 at n = 5, R = 32)
        bound = 4e-15 if n == 3 else 2e-13
        assert gap <= bound * max(np.abs(w).max() for w in want)


def test_balanced_defect_transforms_each_component_once(monkeypatch):
    """On four active axes at n = 3, d(u omega^2) forward-transforms the 8
    components d can move (all but the one missing direction 2 twice), each
    once: no more than the form algebra's exterior_d did, which counted 8."""
    grid = TorusGrid(3, (0, 1, 2, 3), 4)
    g = random_band_metric(grid, seed=0, amplitude=0.2)
    fftn, transformed = np.fft.fftn, []

    def spy(a, *args, **kwargs):
        transformed.append(a.size // a[(0,) * (a.ndim - grid.ndim_grid)].size)
        return fftn(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", spy)
    balanced_defect_parts(grid, g)
    assert sum(transformed) <= 8


@pytest.mark.parametrize("family", ["balanced", "random"])
def test_balanced_defect_skips_structurally_zero_minors(family, monkeypatch):
    """d(u omega^2) differentiates only the minors that are non-zero
    somewhere (the 3 diagonal ones of the README family, all 9 of a random
    metric), and its parts keep the bits of differentiating every one."""
    grid = TorusGrid(3, (0, 1), 8)
    if family == "balanced":
        f = fourier_scalar(grid, [[1, 1, 0.0, -0.15], [1, -1, 0.0, -0.15]])
        g = balanced_band_metric(grid, f)
    else:
        g = random_band_metric(grid, seed=2)
    stack = volume_norm(g) * omega_power(g, 2)
    want = [np.zeros(grid.shape, dtype=complex) for _ in range(6)]
    for c, requests, targets in _exterior_d_table(3, grid.active_directions):
        for (part, sign), dv in zip(targets, grid.derivatives(stack[c], requests)):
            (np.add if sign > 0 else np.subtract)(want[part], dv, out=want[part])
    calls, derivatives = [], TorusGrid.derivatives

    def engine(self, *args, **kwargs):
        calls.append(1)
        return derivatives(self, *args, **kwargs)

    monkeypatch.setattr(TorusGrid, "derivatives", engine)
    got = balanced_defect_parts(grid, g)
    assert len(calls) == (3 if family == "balanced" else 9)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def _with_node(eigenvalues):
    """Flat metric with one node replaced by a rotated diagonal matrix."""
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    g = flat_metric(GRID)
    node = u @ np.diag(eigenvalues) @ np.conj(u.T)
    g[5, 9] = 0.5 * (node + np.conj(node.T))
    return g


def test_positivity_gate_reports_negative_eigenvalue():
    g = _with_node([1.0, -0.25, 2.0])
    with pytest.raises(PositivityError):
        MetricFactor(g)
    with pytest.raises(PositivityError, match=r"min eigenvalue -2\.500e-01") as err:
        check_positive(g)
    assert str(err.value) == "metric loses positivity: min eigenvalue -2.500e-01"


def test_positivity_gate_honours_nonzero_floor():
    factor = check_positive(_with_node([1.0, 0.999e-3, 2.0]))
    factor.shifted(0.998e-3)
    with pytest.raises(PositivityError):
        factor.shifted(1e-3)


def test_positivity_gate_takes_a_per_node_floor():
    """One floor per node, of the grid shape."""
    factor = MetricFactor(_with_node([1.0, 0.999e-3, 2.0]))
    floor = np.full(GRID.shape, 0.5)
    floor[5, 9] = 0.998e-3
    factor.shifted(floor)
    floor[5, 9] = 1e-3
    with pytest.raises(PositivityError):
        factor.shifted(floor)


@pytest.mark.parametrize(
    "node, value",
    [((2, 0), np.nan), ((0, 2), np.nan), ((1, 1), np.inf)],
    ids=["nan-lower", "nan-upper-only", "inf-diagonal"],
)
def test_positivity_gate_rejects_non_finite_entries(node, value):
    g = flat_metric(GRID)
    g[5, 9][node] = value
    with pytest.raises(IIBLabError):
        check_positive(g)
    if node[0] >= node[1]:  # the factor reads only the lower triangle
        with pytest.raises(PositivityError):
            volume_norm(g)
    floor = np.full(GRID.shape, 1e-8)
    floor[5, 9] = value  # a non-finite floor fails the pivots it enters
    with pytest.raises(PositivityError):
        MetricFactor(flat_metric(GRID)).shifted(floor)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_factor_matches_numpy(n):
    grid = TorusGrid(n, (0, 1), 16)
    g = 2.5 * random_band_metric(grid, seed=10 + n, amplitude=0.3)
    factor = check_positive(g)
    ginv, inv_chol = (grid.to_grid_first(x) for x in (factor.ginv, factor.inv_chol))

    def rel(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    assert rel(ginv, np.linalg.inv(g)) <= 1e-14
    assert rel(factor.det, np.linalg.det(g).real) <= 1e-14
    assert rel(inv_chol, np.linalg.inv(np.linalg.cholesky(g))) <= 1e-14
    assert np.array_equal(ginv, np.conj(np.swapaxes(ginv, -1, -2)))
    assert np.array_equal(MetricFactor(g).ginv, factor.ginv)


def _patterned(grid, pairs):
    """A positive metric whose off-diagonal slots are live exactly on the
    given (i, j), i > j, and their mirrors."""
    x = grid.coordinate(grid.active_axes[0])
    g = flat_metric(grid) * (1.5 + 0.2 * np.sin(2 * np.pi * x))[..., None, None]
    for k, (i, j) in enumerate(pairs):
        wave = (0.2 + 0.1 * k) * np.exp(2j * np.pi * (k + 1) * x)
        g[..., i, j], g[..., j, i] = wave, np.conj(wave)
    return g


PATTERNS = {
    "diagonal": (3, []),
    "star": (3, [(1, 0), (2, 0)]),  # the factor fills L[2, 1]
    "split-blocks": (4, [(2, 0), (3, 1)]),  # blocks {0, 2} and {1, 3}
    "tridiagonal": (5, [(1, 0), (2, 1), (3, 2), (4, 3)]),
    "dense": (3, [(1, 0), (2, 0), (2, 1)]),
}


@pytest.mark.parametrize("name", PATTERNS)
def test_factor_on_live_slots_matches_the_dense_loops(name):
    """Bit for bit: the factor computes only the slots its pattern leaves
    live (with the fill of the elimination), and every other slot is +0."""
    n, pairs = PATTERNS[name]
    g = _patterned(TorusGrid(n, (0, 1), 8), pairs)
    factor = MetricFactor(g)
    want = dense_factor(np.ascontiguousarray(np.moveaxis(g, (-2, -1), (0, 1))))
    for got, dense in zip((factor.lower, factor.inv_chol, factor.ginv), want):
        assert got.tobytes() == np.where(dense == 0, 0, dense).tobytes()
    expected = np.eye(n, dtype=bool)
    for i, j in pairs:
        expected[i, j] = expected[j, i] = True
    assert np.array_equal(factor.live, expected)
    assert np.array_equal(factor.ginv_live, np.any(want[2] != 0, axis=(-2, -1)))


@pytest.mark.parametrize("name", PATTERNS)
def test_shifted_factor_is_the_factor_of_the_shifted_metric(name):
    """MetricFactor(g).shifted(shift) shifts only the pivots, on the live
    slots of the factor, bit for bit the factor of the copy g - shift * I,
    with one shift per node as with one number."""
    n, pairs = PATTERNS[name]
    grid = TorusGrid(n, (0, 1), 8)
    g = _patterned(grid, pairs)
    per_node = 0.1 + 0.05 * grid.coordinate(0)
    factor = MetricFactor(g)
    for shift in (0.25, per_node):
        want = MetricFactor(g - np.asarray(shift)[..., None, None] * np.eye(n))
        got = factor.shifted(shift)
        assert np.array_equal(got.live, factor.live)
        assert got.lower.tobytes() == want.lower.tobytes()
        assert np.asarray(got.det).tobytes() == np.asarray(want.det).tobytes()
        assert got.ginv.tobytes() == want.ginv.tobytes()
    with pytest.raises(PositivityError):
        factor.shifted(10.0)


def test_live_slots_read_every_node_and_both_triangles():
    g = flat_metric(GRID)
    assert np.array_equal(live_slots(g), np.eye(3, dtype=bool))
    g[5, 9, 2, 0] = 1e-300  # zero at the first node, in the lower triangle
    g[3, 1, 0, 1] = np.nan  # only in the upper triangle
    want = np.eye(3, dtype=bool)
    want[2, 0] = want[0, 2] = want[0, 1] = want[1, 0] = True
    assert np.array_equal(live_slots(g), want)


@pytest.mark.parametrize("value", [1e-3, np.nan])
def test_hermiticity_checks_read_a_slot_live_only_after_the_first_node(value):
    """A slot that is 0 at the first node and non-zero (or NaN) at a later
    one, in one triangle only, is read by the defect and by check_positive,
    which reads it on the factor's pattern when g has a factor."""
    g = flat_metric(GRID)
    g[5, 9, 2, 0] = value
    assert np.array_equal(hermiticity_defect(g), value, equal_nan=True)
    with pytest.raises(HermiticityError):
        check_positive(g)


def test_slot_rects_cover_the_live_slots_exactly():
    for n, pairs in PATTERNS.values():
        live = live_slots(_patterned(TorusGrid(n, (0, 1), 4), pairs))
        covered = np.zeros_like(live, dtype=int)
        for r, c in slot_rects(live):
            covered[r, c] += 1
        assert np.array_equal(covered, live.astype(int))
    assert slot_rects(np.ones((3, 3), dtype=bool)) == ((slice(0, 3), slice(0, 3)),)


@pytest.mark.parametrize("name", PATTERNS)
def test_eigenvalues_are_taken_block_by_block(name):
    n, pairs = PATTERNS[name]
    g = _patterned(TorusGrid(n, (0, 1), 8), pairs)
    full = np.linalg.eigvalsh(g)
    blocks = block_eigenvalues(g)
    got = np.sort(np.concatenate([e.reshape(g.shape[:-2] + (-1,)) for e in blocks], axis=-1))
    assert np.abs(got - full).max() <= 1e-14 * np.abs(full).max()
    assert abs(min_eigenvalue(g) - full.min()) <= 1e-14 * full.max()
    if name == "diagonal":  # a 1 x 1 block is its real diagonal entry
        assert all(np.array_equal(e, g[..., j, j].real) for j, e in enumerate(blocks))
        assert np.array_equal(got, full)
    if name == "dense":  # one block: LAPACK on the whole matrix
        assert len(blocks) == 1 and np.array_equal(blocks[0], full)
