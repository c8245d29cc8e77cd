"""Scalar flow diagnostics: baseline semantics, exact flat values, clamping."""

import numpy as np
import pytest

from iiblab import (
    ChernPackage,
    GridError,
    TorusGrid,
    compute_diagnostics,
    flat_metric,
    random_band_metric,
)
from iiblab.metrics import (
    balanced_band_metric,
    conformally_balanced_defect,
    fourier_scalar,
    volume_norm,
)

GRID = TorusGrid(3, (0, 1), 8)

EXPECTED_KEYS = [
    "t", "hEigMin", "hEigMax", "tauMax", "normMax", "normMin",
    "sMax", "trhMin", "trhMax", "detHMin", "balancedDefect", "torsionSqMax",
]


def test_flat_record_values_are_exact():
    flat = flat_metric(GRID)
    rec = compute_diagnostics(GRID, flat, ChernPackage(GRID, flat), t=0.5)
    assert rec["t"] == 0.5
    assert rec["hEigMin"] == rec["hEigMax"] == 1.0
    assert rec["tauMax"] == 0.0
    assert rec["normMax"] == rec["normMin"] == 1.0
    assert rec["sMax"] == 0.0
    assert rec["trhMin"] == rec["trhMax"] == 3.0
    assert rec["detHMin"] == 1.0
    assert rec["balancedDefect"] == 0.0
    assert rec["torsionSqMax"] == 0.0
    assert "testFunctionMax" not in rec
    assert all(np.isfinite(v) for v in rec.values())


def test_constant_rescale_against_flat_baseline():
    flat = flat_metric(GRID)
    rec = compute_diagnostics(GRID, 2.0 * flat, ChernPackage(GRID, flat), t=0.0)
    assert rec["hEigMin"] == pytest.approx(2.0, abs=1e-13)
    assert rec["hEigMax"] == pytest.approx(2.0, abs=1e-13)
    assert rec["trhMin"] == pytest.approx(6.0, abs=1e-12)
    assert rec["detHMin"] == pytest.approx(8.0, abs=1e-12)
    # both metrics are connection-free, so the comparison field stays zero
    assert rec["sMax"] == 0.0
    assert rec["normMax"] == pytest.approx(8.0 ** -0.5, abs=1e-15)


def test_balanced_family_record_shape():
    f = fourier_scalar(GRID, [[1, 1, 0.0, -0.1], [1, -1, 0.0, -0.1]])
    g = balanced_band_metric(GRID, f)
    rec = compute_diagnostics(GRID, g, ChernPackage(GRID, g), t=0.0)
    assert rec["balancedDefect"] < 1e-10
    assert rec["torsionSqMax"] > 1e-6
    assert rec["tauMax"] > 1e-4
    assert rec["hEigMin"] == pytest.approx(1.0, abs=1e-12)
    assert rec["detHMin"] == pytest.approx(1.0, abs=1e-12)
    assert all(np.isfinite(v) for v in rec.values())


def test_dict_keys_are_camel_case():
    flat = flat_metric(GRID)
    rec = compute_diagnostics(GRID, flat, ChernPackage(GRID, flat), t=0.0)
    assert list(rec) == EXPECTED_KEYS


def test_baseline_on_another_grid_is_refused():
    # same array shape, different active axes
    other = TorusGrid(3, (0, 2), 8)
    assert other.shape == GRID.shape
    flat = flat_metric(GRID)
    with pytest.raises(GridError):
        compute_diagnostics(GRID, flat, ChernPackage(other, flat_metric(other)), t=0.0)


def test_test_function_clamps_vanishing_s():
    """At the baseline time S is identically zero; the blended test
    function must still come out finite (log floor) and carry the trace
    term on top."""
    flat = flat_metric(GRID)
    rec = compute_diagnostics(
        GRID, flat, ChernPackage(GRID, flat), t=0.0, test_function=(0.1, 2.0)
    )
    assert list(rec) == EXPECTED_KEYS + ["testFunctionMax"]
    assert np.isfinite(rec["testFunctionMax"])
    assert rec["testFunctionMax"] == pytest.approx(np.log(1e-300) + 0.3, abs=1e-9)
    assert all(np.isfinite(v) for v in rec.values())


def test_test_function_tracks_s_once_nonzero():
    flat = flat_metric(GRID)
    f = fourier_scalar(GRID, [[1, 1, 0.0, -0.1], [1, -1, 0.0, -0.1]])
    g = balanced_band_metric(GRID, f)
    rec = compute_diagnostics(
        GRID, g, ChernPackage(GRID, flat), t=0.0, test_function=(0.0, 0.0)
    )
    # with epsilon = a = 0 the test function is exactly log max S
    assert rec["testFunctionMax"] == pytest.approx(np.log(rec["sMax"]), rel=1e-12)


# -- the record against its formulas with a baseline rebuilt every time -------


def _reference_record(grid, g, g_initial, t, test_function):
    """Every field from its textbook formula: two packages, the pencil
    solves, the trace of the raised torsion and the einsum pairing for S."""
    pkg = ChernPackage(grid, g)
    ref = ChernPackage(grid, g_initial)

    L = np.linalg.cholesky(g_initial)
    half = np.linalg.solve(L, g)
    eigs = np.linalg.eigvalsh(np.linalg.solve(L, np.conj(np.swapaxes(half, -1, -2))))
    trh = np.einsum("...jk,...kj->...", ref.ginv, pkg.g).real
    det_h = (np.linalg.det(pkg.g) / np.linalg.det(ref.g)).real

    tau = np.einsum("...ppi->...i", pkg.t_up)
    tau_sq = np.einsum("...jk,...j,...k->...", pkg.ginv, tau, np.conj(tau)).real

    norm = volume_norm(pkg.g)
    a = pkg.gamma - ref.gamma
    s_field = np.einsum(
        "...mg,...ub,...la,...mbl,...gua->...", pkg.ginv, pkg.g, pkg.ginv, a, np.conj(a),
        optimize=True,
    ).real
    eps, weight = test_function
    blended = np.log(np.maximum(s_field, 1e-300)) + eps * trh - weight * np.log(norm)
    return {
        "t": t,
        "hEigMin": eigs.min(),
        "hEigMax": eigs.max(),
        "tauMax": np.sqrt(max(tau_sq.max(), 0.0)),
        "normMax": norm.max(),
        "normMin": norm.min(),
        "sMax": s_field.max(),
        "trhMin": trh.min(),
        "trhMax": trh.max(),
        "detHMin": det_h.min(),
        "balancedDefect": conformally_balanced_defect(grid, pkg.g),
        "torsionSqMax": pkg.t_norm_sq.max(),
        "testFunctionMax": blended.max(),
    }


@pytest.fixture(
    scope="module",
    params=[(n, axes) for n in (3, 4) for axes in ((0, 1), (0, 2), (0, 1, 2, 3))],
    ids=lambda p: f"n{p[0]}-axes{''.join(map(str, p[1]))}",
)
def random_pair(request):
    n, axes = request.param
    grid = TorusGrid(n, axes, 16 if len(axes) == 2 else 8)
    return grid, random_band_metric(grid, seed=2), random_band_metric(grid, seed=1)


def test_record_matches_reference_formulas(random_pair):
    grid, g, g0 = random_pair
    want = _reference_record(grid, g, g0, 0.25, (0.02, 1.0))
    baseline = ChernPackage(grid, g0)
    got = compute_diagnostics(grid, g, baseline, 0.25, test_function=(0.02, 1.0))
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


def test_prebuilt_baseline_is_bit_exact(random_pair):
    grid, g, g0 = random_pair
    baseline = ChernPackage(grid, g0)
    for metric in (g, g0):
        fresh = ChernPackage(grid, g0)
        from_fresh = compute_diagnostics(grid, metric, fresh, 0.5, test_function=(0.02, 1.0))
        prebuilt = compute_diagnostics(grid, metric, baseline, 0.5, test_function=(0.02, 1.0))
        assert prebuilt == from_fresh
