"""Connection, torsion, curvature, and the covariant-derivative engine.

Closed forms used below come from the conformal family g = exp(2f) I,
whose connection is diagonal: Gamma^p_{jq} = 2 (d_j f) delta_{pq}.
"""

import numpy as np
import pytest

from iiblab import (
    ChernPackage,
    PositivityError,
    TorusGrid,
    balanced_band_metric,
    diagnostics,
    flat_metric,
    random_band_metric,
)
from iiblab.chern import pair_endo_forms
from iiblab.diagnostics import compute_diagnostics
from iiblab.flow import weighted_velocity
from iiblab.errors import ValenceError
from iiblab.grid import ORACLE
from iiblab.metrics import fourier_scalar
from probes import (
    dense_tensors,
    dense_weighted_velocity,
    diagonal_metric,
    kahler_from_potential,
    tridiagonal_metric,
)

GRID = TorusGrid(3, (0, 1), 16)


@pytest.fixture(scope="module")
def conformal():
    x, y = GRID.coordinate(0), GRID.coordinate(1)
    f = 0.1 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    g = np.exp(2 * f)[..., None, None] * np.eye(3)
    return f, ChernPackage(GRID, g.astype(complex))


@pytest.fixture(scope="module")
def random_pkg():
    return ChernPackage(GRID, random_band_metric(GRID, seed=21))


def _full_curvature(pkg):
    """``curv[..., k, j, a, b]`` scattered from the active stack, full shape."""
    act = pkg.grid.active_directions
    out = np.zeros((pkg.grid.n,) * 2 + pkg.active_curvature.shape[2:], dtype=complex)
    out[np.ix_(act, act)] = pkg.active_curvature
    return pkg.grid.to_grid_first(out)


def test_flat_package_is_exactly_trivial():
    pkg = ChernPackage(GRID, flat_metric(GRID))
    assert np.all(pkg.gamma == 0.0)
    assert np.all(pkg.active_curvature == 0.0)
    assert np.all(pkg.t_low == 0.0)
    assert np.all(pkg.tau == 0.0)
    assert np.all(pkg.scalar_laplacian(pkg.log_norm) == 0.0)


def test_validation_rejects_bad_input():
    with pytest.raises(ValenceError):
        ChernPackage(GRID, np.zeros(GRID.shape + (3,)))
    g = flat_metric(GRID)
    g[..., 0, 0] = -1.0
    with pytest.raises(PositivityError):
        ChernPackage(GRID, g)


def test_conformal_connection_closed_form(conformal):
    f, pkg = conformal
    df = GRID.holomorphic_gradient(f.astype(complex))
    want = 2.0 * df[..., :, None, None] * np.eye(3)
    assert np.abs(pkg.gamma - want).max() < 1e-12


def test_conformal_curvature_closed_form(conformal):
    f, pkg = conformal
    df = GRID.holomorphic_gradient(f.astype(complex))
    ddf = GRID.holomorphic_gradient(df, barred=True)
    want = -2.0 * ddf[..., :, :, None, None] * np.eye(3)
    assert np.abs(_full_curvature(pkg) - want).max() < 1e-10


def test_conformal_torsion_trace_closed_form(conformal):
    f, pkg = conformal
    df = GRID.holomorphic_gradient(f.astype(complex))
    # tau_i = -2 (n - 1) d_i f for g = exp(2f) I
    assert np.abs(pkg.tau + 4.0 * df).max() < 1e-12


def test_connection_is_metric_compatible(random_pkg):
    nabla_g = random_pkg.covd(random_pkg.g, "Ll")
    assert np.abs(nabla_g).max() < 1e-11


def test_covd_signature_validation(random_pkg):
    with pytest.raises(ValenceError):
        random_pkg.covd(random_pkg.g, "L")  # rank mismatch


def test_curvature_is_derivative_of_connection_difference(random_pkg):
    """Curvature transforms by the barred gradient of the relative connection."""
    x = GRID.coordinate(0)
    ref = ChernPackage(GRID, kahler_from_potential(GRID, 0.02 * np.sin(2 * np.pi * x)))
    a = random_pkg.gamma - ref.gamma
    dbar_a = GRID.holomorphic_gradient(a, barred=True)
    diff = _full_curvature(random_pkg) - _full_curvature(ref)
    assert np.abs(diff + dbar_a).max() < 1e-10


def test_second_ricci_hermitian(random_pkg):
    r = random_pkg.second_ricci
    assert np.abs(r - np.conj(np.swapaxes(r, -2, -1))).max() < 1e-11


def test_ttbar_hermitian_and_trace_positive(random_pkg):
    tt = random_pkg.ttbar
    assert np.abs(tt - np.conj(np.swapaxes(tt, -2, -1))).max() < 1e-11
    assert random_pkg.t_norm_sq.min() >= -1e-13


def test_log_norm_is_minus_half_log_det(random_pkg):
    # the dilaton from the Cholesky factor against a LAPACK determinant
    log_sq = np.log(np.abs(np.linalg.det(random_pkg.g)))
    assert np.abs(random_pkg.log_norm + 0.5 * log_sq).max() < 1e-10


def test_scalar_laplacian_flat_symbol():
    pkg = ChernPackage(GRID, flat_metric(GRID))
    x = GRID.coordinate(0)
    f = np.exp(2j * np.pi * x)
    lap = pkg.scalar_laplacian(f)
    # flat Laplacian g^{p qbar} d_p d_qbar picks up -(pi^2) per unit mode
    assert np.abs(lap + np.pi**2 * f).max() < 1e-10


# -- the grid-last contractions against their plain einsum formulas ----------

GEOMETRIES = [
    (n, axes) for n in (3, 4) for axes in ((0, 1), (0, 2), (1, 4), (0, 1, 2, 3))
]


def _geometry_id(geometry):
    n, axes = geometry
    return f"n{n}-axes{''.join(map(str, axes))}"


@pytest.fixture(scope="module", params=GEOMETRIES, ids=_geometry_id)
def packages(request):
    """A random metric on an R=8 grid, analyzed spectrally and with the fd8 oracle."""
    n, axes = request.param
    grid = TorusGrid(n, axes, 8)
    g = random_band_metric(grid, seed=3)
    return [ChernPackage(grid, g, scheme) for scheme in ("spectral", ORACLE)]


def _close(got, want):
    return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_gamma_matches_einsum(packages):
    for pkg in packages:
        dg = pkg.grid.holomorphic_gradient(pkg.g, pkg.scheme)
        assert _close(pkg.gamma, np.einsum("...pa,...jaq->...jpq", pkg.ginv, dg))


def test_second_ricci_matches_einsum(packages):
    for pkg in packages:
        curv = -pkg.grid.holomorphic_gradient(pkg.gamma, pkg.scheme, barred=True)
        assert _close(_full_curvature(pkg), curv)
        want = np.einsum("...pl,...jk,...kjlq->...pq", pkg.g, pkg.ginv, curv)
        assert _close(pkg.second_ricci, want)


def test_ttbar_matches_einsum(packages):
    for pkg in packages:
        dg = pkg.grid.holomorphic_gradient(pkg.g, pkg.scheme)
        t_low = np.swapaxes(dg, -3, -2) - np.moveaxis(dg, (-3, -2, -1), (-1, -3, -2))
        assert np.array_equal(pkg.t_low, t_low)
        want = np.einsum(
            "...kpq,...jab,...pa,...qb->...kj",
            t_low, np.conj(t_low), pkg.ginv, pkg.ginv, optimize=True,
        )
        assert _close(pkg.ttbar, want)


def test_tau_matches_einsum(packages):
    for pkg in packages:
        assert _close(pkg.tau, np.einsum("...ppi->...i", pkg.t_up))


def _pair_einsum(m1, m2, m3, x, y):
    """The pairing of endomorphism-valued one-forms as one plain einsum."""
    return np.einsum(
        "...mg,...ub,...la,...mbl,...gua->...", m1, m2, m3, x, np.conj(y), optimize=True
    )


def test_endo_norm_sq_matches_einsum(packages):
    """The squared norm of an endomorphism-valued one-form, the ``(ginv, g,
    ginv)`` case of the pairing over every form slot."""
    rng = np.random.default_rng(5)
    for pkg in packages:
        n = pkg.grid.n
        # every geometry above has inactive directions; a generic form is
        # non-zero on their slots, which the pairing must not skip
        shape = pkg.grid.shape + (n, n, n)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = _pair_einsum(pkg.ginv, pkg.g, pkg.ginv, a, a).real
        assert _close(pair_endo_forms(pkg.ginv, pkg.g, pkg.ginv, a, a).real, want)
        ref = ChernPackage(pkg.grid, random_band_metric(pkg.grid, seed=4), pkg.scheme)
        diff = pkg.gamma - ref.gamma
        want = _pair_einsum(pkg.ginv, pkg.g, pkg.ginv, diff, diff).real
        assert _close(pair_endo_forms(pkg.ginv, pkg.g, pkg.ginv, diff, diff).real, want)


@pytest.mark.parametrize("n", [3, 4])
def test_pair_endo_forms_matches_einsum(n):
    """Three distinct contracting matrices, two distinct forms, and form
    slots that are non-zero along the inactive directions too."""
    grid = TorusGrid(n, (0, 1), 8)
    rng = np.random.default_rng(n)

    def field(rank):
        shape = grid.shape + (n,) * rank
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    m1, m2, m3, x, y = field(2), field(2), field(2), field(3), field(3)
    assert np.abs(x[..., 1:, :, :]).min() > 0.0  # direction 0 is the only active one
    for first, second in ((x, y), (y, x), (x, x)):
        want = _pair_einsum(m1, m2, m3, first, second)
        assert _close(pair_endo_forms(m1, m2, m3, first, second), want)

    # form stacks over fewer slots than n, as over the active directions
    # only, and x and y over different numbers of them
    for forms_x, forms_y in ((1, 1), (2, 2), (1, 3), (3, 1), (2, 3)):
        x, y = (
            rng.standard_normal(grid.shape + (forms, n, n))
            + 1j * rng.standard_normal(grid.shape + (forms, n, n))
            for forms in (forms_x, forms_y)
        )
        m1 = field(2)[..., :forms_x, :forms_y]
        want = _pair_einsum(m1, m2, m3, x, y)
        assert _close(pair_endo_forms(m1, m2, m3, x, y), want)
        if forms_x == forms_y:
            assert _close(pair_endo_forms(m1, m2, m3, x, x), _pair_einsum(m1, m2, m3, x, x))


# -- covd against the correction of every slice of the new slot ----------------

COVD_GEOMETRIES = [(3, (0, 1)), (3, (0, 2)), (4, (0, 2, 3)), (5, (0, 1)), (3, (0, 1, 2, 3))]


def _covd_full(pkg, arr, sig, barred):
    """Gradient plus the connection terms on all n slices of the new slot."""
    out = pkg.grid.holomorphic_gradient(arr, pkg.scheme, barred=barred)
    gamma = np.conj(pkg.gamma) if barred else pkg.gamma
    touched = {"U", "L"} if barred else {"u", "l"}
    letters = "abcdefghijklnoqrstuvwxyz"[: len(sig)]
    for slot, ch in enumerate(sig):
        if ch not in touched:
            continue
        arr_sub = letters[:slot] + "m" + letters[slot + 1:]
        if ch in ("u", "U"):
            term = np.einsum(f"...p{letters[slot]}m,...{arr_sub}->...p{letters}", gamma, arr)
            out = out + term
        else:
            term = np.einsum(f"...pm{letters[slot]},...{arr_sub}->...p{letters}", gamma, arr)
            out = out - term
    return out


@pytest.mark.parametrize("geometry", COVD_GEOMETRIES, ids=_geometry_id)
def test_covd_matches_full_einsum(geometry):
    n, axes = geometry
    grid = TorusGrid(n, axes, 4 if len(axes) > 2 else 8)
    g = random_band_metric(grid, seed=3)
    rng = np.random.default_rng(6)
    inactive = (slice(None),) * grid.ndim_grid + (
        [j for j in range(n) if j not in grid.active_directions],
    )
    for scheme in ("spectral", ORACLE):
        pkg = ChernPackage(grid, g, scheme)
        for sig in ("Llul", "Lll", "lLL", "lul", "ul"):
            shape = grid.shape + (n,) * len(sig)
            arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for barred, covd in ((False, pkg.covd), (True, pkg.covd_bar)):
                got = covd(arr, sig)
                assert np.array_equal(got, _covd_full(pkg, arr, sig, barred))
                assert np.all(got[inactive] == 0.0)


# n = 3, 4, 5, each with one and with two active directions
LIVE_GEOMETRIES = [(n, axes) for n in (3, 4, 5) for axes in ((0, 1), (0, 2), (0, 1, 2, 3))]


@pytest.mark.parametrize("geometry", LIVE_GEOMETRIES, ids=_geometry_id)
def test_covd_of_a_live_slice_is_the_slice_of_covd(geometry):
    """A slot the derivative does not correct may hold only the live
    directions: the derivative of that slice is the same slice of the full
    derivative, bit for bit (the new derivative slot shifts it by one)."""
    n, axes = geometry
    grid = TorusGrid(n, axes, 4 if len(axes) > 2 else 8)
    act = list(grid.active_directions)
    g = random_band_metric(grid, seed=3)
    rng = np.random.default_rng(8)
    for scheme in ("spectral", ORACLE):
        pkg = ChernPackage(grid, g, scheme)
        for sig in ("Llul", "lLL", "lul", "L", "l"):
            shape = grid.shape + (n,) * len(sig)
            arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for untouched, covd in (("UL", pkg.covd), ("ul", pkg.covd_bar)):
                full = covd(arr, sig)
                for slot, ch in enumerate(sig):
                    if ch not in untouched:
                        continue
                    axis = grid.ndim_grid + slot
                    got = covd(np.take(arr, act, axis=axis), sig)
                    assert np.array_equal(got, np.take(full, act, axis=axis + 1)), (sig, slot)


# -- the active stacks against the full-tensor loops they replaced -------------


def _balanced(grid, scale):
    m = len(grid.active_axes)
    terms = [[1] * m + [0.0, -0.15 * scale], [1] + [-1] * (m - 1) + [0.0, -0.1 * scale]]
    return balanced_band_metric(grid, fourier_scalar(grid, terms))


FAMILIES = {
    "random": lambda grid, scale: random_band_metric(grid, seed=scale),
    "balanced": _balanced,
    "flat": lambda grid, scale: scale * flat_metric(grid),
    "tridiagonal": tridiagonal_metric,
    "diagonal": diagonal_metric,
}
# the random family on every geometry (ids without a family), then the
# families with exact-zero slots: diagonal (balanced, flat, a diagonal g on
# two active directions, whose ttbar[0, 1] is live) and tridiagonal (dense ginv)
PATTERN_CASES = [(n, axes, "random") for n, axes in LIVE_GEOMETRIES] + [
    (n, axes, family) for family in ("balanced", "flat")
    for n, axes in ((3, (0, 1)), (4, (0, 2)), (5, (0, 1, 2, 3)))
] + [(3, (0, 1), "tridiagonal"), (4, (0, 1, 2, 3), "tridiagonal"), (3, (0, 2), "diagonal")]


def _case_id(case):
    n, axes, family = case
    return ("" if family == "random" else f"{family}-") + _geometry_id((n, axes))


@pytest.mark.parametrize("case", PATTERN_CASES, ids=_case_id)
def test_active_stacks_are_bit_identical_to_full_tensors(case, monkeypatch):
    n, axes, family = case
    grid = TorusGrid(n, axes, 8 if len(axes) > 2 else 16)
    act = list(grid.active_directions)
    g0, g = (FAMILIES[family](grid, s) for s in (1, 2))
    if family == "diagonal":
        assert ChernPackage(grid, g).slots.ttbar_live[0, 1]
    for scheme in ("spectral", ORACLE):
        pkg = ChernPackage(grid, g, scheme)
        want = dense_tensors(grid, g, scheme)
        for name in ("lower", "inv_chol", "ginv"):
            assert np.array_equal(grid.to_grid_first(getattr(pkg.factor, name)), want[name]), name
        assert np.array_equal(grid.to_grid_first(pkg.active_dg), want["dg"][..., act, :, :])
        assert np.array_equal(
            grid.to_grid_first(pkg.active_curvature),
            want["curvature"][..., act, :, :, :][..., act, :, :],
        )
        for name in ("gamma", "second_ricci", "t_low", "tau", "ttbar", "t_norm_sq"):
            assert np.array_equal(getattr(pkg, name), want[name]), name

    velocity = weighted_velocity(grid, g)
    assert velocity.flags.c_contiguous
    assert np.array_equal(velocity, dense_weighted_velocity(grid, g))

    # the record with S paired over every form slot of the full connections
    baseline = ChernPackage(grid, g0)
    record = compute_diagnostics(g, baseline, 0.5, test_function=(0.02, 1.0))
    a = dense_tensors(grid, g)["gamma"] - dense_tensors(grid, g0)["gamma"]
    pkg = ChernPackage(grid, g)
    s_field = pair_endo_forms(pkg.ginv, pkg.g, pkg.ginv, a, a).real
    monkeypatch.setattr(diagnostics, "pair_endo_forms", lambda *args: s_field)
    assert record == compute_diagnostics(g, baseline, 0.5, test_function=(0.02, 1.0))
