"""Exterior algebra: the form-algebra oracle, the sigma basis, and the
stacks and tables the library compiles from them."""

import numpy as np
import pytest

from iiblab import TorusGrid
from iiblab.forms import (
    _real_wedge_table,
    _wedge_table,
    hermitian_basis,
    i_del_delbar_matrix,
    omega_power,
    sigma_coefficient,
    volume_coefficient,
    wedge_block,
)
from iiblab.metrics import random_band_metric
from probes import (
    DifferentialForm,
    form_stack,
    full_wedge,
    matrix_to_one_one,
    scatter_blocks,
    wedge,
    wedge_power,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False

GRID = TorusGrid(3, (0, 1), 8)


def _one_form(seed):
    rng = np.random.default_rng(seed)
    comps = {((j,), ()): rng.standard_normal(GRID.shape) + 1j * rng.standard_normal(GRID.shape)
             for j in range(3)}
    return DifferentialForm(GRID, 1, 0, comps)


def _sigma_matrix(theta):
    """Matrix encoding of an (n-1,n-1)-form: entry [j, k] multiplies sigma(j, k)."""
    n = theta.grid.n
    out = np.zeros(theta.grid.shape + (n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            key = tuple(m for m in range(n) if m != j), tuple(m for m in range(n) if m != k)
            if key in theta.comps:
                out[..., j, k] = theta.comps[key] / sigma_coefficient(n, j, k)
    return out


def _max_abs(form):
    return max((float(np.abs(v).max()) for v in form.comps.values()), default=0.0)


def _scalar(values):
    return DifferentialForm(GRID, 0, 0, {((), ()): values.astype(complex)})


def test_bidegree_validation():
    with pytest.raises(ValueError):
        DifferentialForm(GRID, 4, 0)


def test_wedge_anticommutes_on_one_forms():
    a, b = _one_form(1), _one_form(2)
    ab = wedge(a, b)
    ba = wedge(b, a)
    for key, val in ab.comps.items():
        assert np.allclose(val, -ba.comps[key])


def test_wedge_square_of_one_form_vanishes():
    a = _one_form(3)
    assert _max_abs(wedge(a, a)) < 1e-14


def test_wedge_associates():
    a, b, c = _one_form(4), _one_form(5), _one_form(6)
    left = wedge(wedge(a, b), c)
    right = wedge(a, wedge(b, c))
    assert left.comps.keys() == right.comps.keys()
    for key in left.comps:
        assert np.allclose(left.comps[key], right.comps[key])


def test_wedge_degree_overflow():
    a = _one_form(7)
    with pytest.raises(ValueError):
        wedge_power(a, 4)


def test_sigma_basis_duality():
    """sigma(j,k) pairs to one volume against i dz^j ^ dzbar^k only.

    A probe matrix with a single entry at [a, b] encodes, barred index
    first, the monomial i dz^b ^ dzbar^a.
    """
    full = (0, 1, 2)
    for j in range(3):
        for k in range(3):
            comp = tuple(m for m in full if m != j), tuple(m for m in full if m != k)
            sig = DifferentialForm(GRID, 2, 2, {comp: sigma_coefficient(3, j, k)})
            for a in range(3):
                for b in range(3):
                    probe = np.zeros((3, 3))
                    probe[a, b] = 1.0
                    top = wedge(sig, matrix_to_one_one(GRID, probe))
                    pairing = top.comps.get((full, full), 0.0) / volume_coefficient(3)
                    want = 1.0 if (j, k) == (b, a) else 0.0
                    assert np.abs(pairing - want).max() < 1e-14


def test_exterior_derivative_pieces_square_to_zero():
    x, y = GRID.coordinate(0), GRID.coordinate(1)
    d1, d2 = _scalar(np.exp(2j * np.pi * x) * np.cos(2 * np.pi * y)).exterior_d()
    (dd1, d1bar), (d2d, dd2) = d1.exterior_d(), d2.exterior_d()
    assert _max_abs(dd1) < 1e-10
    assert _max_abs(dd2) < 1e-10
    # the mixed second derivatives anticommute
    assert d1bar.comps.keys() == d2d.comps.keys()
    assert all(np.abs(d1bar.comps[k] + d2d.comps[k]).max() < 1e-10 for k in d1bar.comps)


def test_exterior_d_on_scalar_matches_gradient():
    x = GRID.coordinate(0)
    dhol, dbar = _scalar(np.sin(2 * np.pi * x)).exterior_d()
    dz = GRID.holomorphic_gradient(np.sin(2 * np.pi * x))[..., 0]
    assert np.abs(dhol.comps[(0,), ()] - dz).max() < 1e-12
    assert np.abs(dbar.comps[(), (0,)] - np.conj(dz)).max() < 1e-12


# geometries of the compiled anchor tables: one complex direction (0, 1),
# two directions along their real axes only (0, 2), two full directions
TABLE_GEOMETRIES = [
    (n, axes) for n in (3, 4, 5) for axes in ((0, 1), (0, 2), (0, 1, 2, 3))
]


def _lower_power(n, axes, resolution=8):
    """omega^{n-2} of a random metric: the form the anchor tables act on."""
    grid = TorusGrid(n, axes, resolution)
    omega = matrix_to_one_one(grid, random_band_metric(grid, seed=7, amplitude=0.2))
    return wedge_power(omega, n - 2)


@pytest.mark.parametrize("n, axes", TABLE_GEOMETRIES)
def test_wedge_block_equals_form_built_columns(n, axes):
    theta = _lower_power(n, axes)
    grid = theta.grid
    # column k*n + j: the sigma matrix of E[k, j] ^ theta, built by the form algebra
    columns = [
        _sigma_matrix(wedge(DifferentialForm(grid, 1, 1, {((j,), (k,)): 1j}), theta))
        for k in range(n) for j in range(n)
    ]
    want = np.stack(columns, axis=-1).reshape(grid.shape + (n * n, n * n))
    # in the Hermitian basis; theta is real to round-off, so T^-1 M T is too
    T, T_inv = hermitian_basis(n)
    want = T_inv @ want @ T
    # worst measured over these geometries, R = 4 and 8, seeds 0-3: 8.6e-18,
    # the imaginary residue; at n >= 4 an entry sums up to four terms
    stack = form_stack(theta)
    assert np.abs(full_wedge(grid, stack) - want).max() <= 1e-15 * np.abs(want).max()
    # a random metric couples every coordinate: one block, the whole W
    coupled, (singles, pivots) = system = wedge_block(grid, stack)
    assert [list(block) for block, _ in coupled] == [list(range(n * n))] and not singles.size
    assert pivots.shape == grid.shape + (0,)
    assert np.abs(scatter_blocks(system) - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("n, axes", TABLE_GEOMETRIES)
def test_omega_power_equals_the_wedge_power(n, axes):
    """The stacks of minors against the oracle's wedge powers: omega itself
    bit for bit (1j g^T, what the anchor reads at n = 3), omega^{n-2} and
    omega^{n-1} to round-off."""
    grid = TorusGrid(n, axes, 8)
    for seed in range(4):
        g = random_band_metric(grid, seed=seed, amplitude=0.2)
        omega = matrix_to_one_one(grid, g)
        assert omega_power(g, 1).tobytes() == form_stack(omega).tobytes()
        for m in (n - 2, n - 1):
            want = form_stack(wedge_power(omega, m))
            # worst measured over these geometries, R = 4 and 8, seeds 0-3,
            # amplitudes 0.05 and 0.2: 1.2e-15 (n = 5, m = 4)
            assert np.abs(omega_power(g, m) - want).max() <= 4e-15 * np.abs(want).max()


def _hermitian_basis_by_definition(n):
    """Column j*n + k: E[j, j]; E[j, k] + E[k, j] if j < k; i (E[k, j] - E[j, k]) if j > k."""
    T = np.zeros((n * n, n * n), dtype=complex)
    for j in range(n):
        for k in range(n):
            E = np.zeros((n, n), dtype=complex)
            if j == k:
                E[j, j] = 1.0
            elif j < k:
                E[j, k] = E[k, j] = 1.0
            else:
                E[k, j], E[j, k] = 1j, -1j
            T[:, j * n + k] = E.ravel()
    return T


@pytest.mark.parametrize("n", [3, 4, 5])
def test_real_wedge_table_is_the_basis_change_of_c(n):
    T = _hermitian_basis_by_definition(n)
    T_inv = np.linalg.inv(T)
    got_T, got_T_inv = hermitian_basis(n)
    assert np.array_equal(got_T, T) and np.array_equal(got_T_inv, T_inv)
    C = _wedge_table(n)
    changed = np.einsum("ar,krc,cb->kab", T_inv, C.reshape(-1, n * n, n * n), T)
    # rows 2*kappa and 2*kappa + 1 multiply Re and Im of component kappa
    want = np.stack([changed.real, -changed.imag], axis=1).reshape(-1, n ** 4)
    assert np.array_equal(_real_wedge_table(n), want)


@pytest.mark.parametrize("n, axes, resolution", [
    (n, axes, 8) for n, axes in TABLE_GEOMETRIES
] + [(3, (0, 1, 2, 3, 4, 5), 4)])
def test_i_del_delbar_matrix_equals_form_derivatives(n, axes, resolution):
    theta = _lower_power(n, axes, resolution)
    want = _sigma_matrix(theta.exterior_d()[1].exterior_d()[0] * 1j)
    got = i_del_delbar_matrix(theta.grid, form_stack(theta))
    # worst measured over these geometries, R = 4 and 8, seeds 0-3: 1.0e-15
    assert np.abs(got - want).max() <= 4e-15 * np.abs(want).max()


if HAS_HYPOTHESIS:

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_wedge_with_zero_is_zero(seed):
        a = _one_form(seed)
        zero = DifferentialForm(GRID, 1, 0)
        assert _max_abs(wedge(a, zero)) == 0.0

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_wedge_is_bilinear(seed, scale):
        a, b = _one_form(seed), _one_form(seed + 1)
        scaled = wedge(a * scale, b)
        plain = wedge(a, b) * scale
        assert scaled.comps.keys() == plain.comps.keys()
        for key in scaled.comps:
            assert np.allclose(scaled.comps[key], plain.comps[key])
