"""Scalar flow diagnostics: baseline semantics, exact flat values, clamping."""

import numpy as np
import pytest

from iiblab import (
    ChernPackage,
    DiagnosticsBaseline,
    DiagnosticsRecord,
    TorusGrid,
    compute_diagnostics,
    flat_metric,
    random_band_metric,
)
from iiblab.chern import pair_endo_forms
from iiblab.metrics import (
    balanced_band_metric,
    conformally_balanced_defect,
    fourier_scalar,
    volume_norm,
)

GRID = TorusGrid(3, (0, 1), 8)

EXPECTED_KEYS = {
    "t", "hEigMin", "hEigMax", "tauMax", "normMax", "normMin",
    "sMax", "trhMin", "trhMax", "detHMin", "balancedDefect", "torsionSqMax",
}


def test_flat_record_values_are_exact():
    flat = flat_metric(GRID)
    rec = compute_diagnostics(GRID, flat, DiagnosticsBaseline(GRID, flat), t=0.5)
    assert rec.t == 0.5
    assert rec.h_eig_min == rec.h_eig_max == 1.0
    assert rec.tau_max == 0.0
    assert rec.norm_max == rec.norm_min == 1.0
    assert rec.s_max == 0.0
    assert rec.trh_min == rec.trh_max == 3.0
    assert rec.det_h_min == 1.0
    assert rec.balanced_defect == 0.0
    assert rec.torsion_sq_max == 0.0
    assert rec.test_function_max is None
    assert rec.is_finite()


def test_constant_rescale_against_flat_baseline():
    flat = flat_metric(GRID)
    rec = compute_diagnostics(GRID, 2.0 * flat, DiagnosticsBaseline(GRID, flat), t=0.0)
    assert rec.h_eig_min == pytest.approx(2.0, abs=1e-13)
    assert rec.h_eig_max == pytest.approx(2.0, abs=1e-13)
    assert rec.trh_min == pytest.approx(6.0, abs=1e-12)
    assert rec.det_h_min == pytest.approx(8.0, abs=1e-12)
    # both metrics are connection-free, so the comparison field stays zero
    assert rec.s_max == 0.0
    assert rec.norm_max == pytest.approx(8.0 ** -0.5, abs=1e-15)


def test_balanced_family_record_shape():
    f = fourier_scalar(GRID, [[1, 1, 0.0, -0.1], [1, -1, 0.0, -0.1]])
    g = balanced_band_metric(GRID, f)
    rec = compute_diagnostics(GRID, g, DiagnosticsBaseline(GRID, g), t=0.0)
    assert rec.balanced_defect < 1e-10
    assert rec.torsion_sq_max > 1e-6
    assert rec.tau_max > 1e-4
    assert rec.h_eig_min == pytest.approx(1.0, abs=1e-12)
    assert rec.det_h_min == pytest.approx(1.0, abs=1e-12)
    assert rec.is_finite()


def test_dict_keys_are_camel_case():
    flat = flat_metric(GRID)
    rec = compute_diagnostics(GRID, flat, DiagnosticsBaseline(GRID, flat), t=0.0)
    assert set(rec.to_dict()) == EXPECTED_KEYS


def test_test_function_clamps_vanishing_s():
    """At the baseline time S is identically zero; the blended test
    function must still come out finite (log floor) and carry the trace
    term on top."""
    flat = flat_metric(GRID)
    rec = compute_diagnostics(
        GRID, flat, DiagnosticsBaseline(GRID, flat), t=0.0, test_function=(0.1, 2.0)
    )
    assert rec.test_function_max is not None
    assert np.isfinite(rec.test_function_max)
    assert rec.test_function_max == pytest.approx(np.log(1e-300) + 0.3, abs=1e-9)
    assert "testFunctionMax" in rec.to_dict()
    assert rec.is_finite()


def test_test_function_tracks_s_once_nonzero():
    flat = flat_metric(GRID)
    f = fourier_scalar(GRID, [[1, 1, 0.0, -0.1], [1, -1, 0.0, -0.1]])
    g = balanced_band_metric(GRID, f)
    rec = compute_diagnostics(
        GRID, g, DiagnosticsBaseline(GRID, flat), t=0.0, test_function=(0.0, 0.0)
    )
    # with epsilon = a = 0 the test function is exactly log max S
    assert rec.test_function_max == pytest.approx(np.log(rec.s_max), rel=1e-12)


def test_record_is_plain_dataclass():
    rec = DiagnosticsRecord(
        t=0.0, h_eig_min=1.0, h_eig_max=1.0, tau_max=0.0, norm_max=1.0,
        norm_min=1.0, s_max=0.0, trh_min=3.0, trh_max=3.0, det_h_min=1.0,
        balanced_defect=0.0, torsion_sq_max=0.0,
    )
    with pytest.raises(AttributeError):
        rec.t = 1.0
    bad = DiagnosticsRecord(
        t=0.0, h_eig_min=np.nan, h_eig_max=1.0, tau_max=0.0, norm_max=1.0,
        norm_min=1.0, s_max=0.0, trh_min=3.0, trh_max=3.0, det_h_min=1.0,
        balanced_defect=0.0, torsion_sq_max=0.0,
    )
    assert not bad.is_finite()


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
    s_field = pair_endo_forms(pkg.ginv, pkg.g, pkg.ginv, a, a).real
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
    baseline = DiagnosticsBaseline(grid, g0)
    got = compute_diagnostics(grid, g, baseline, 0.25, test_function=(0.02, 1.0)).to_dict()
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


def test_prebuilt_baseline_is_bit_exact(random_pair):
    grid, g, g0 = random_pair
    baseline = DiagnosticsBaseline(grid, g0)
    for metric in (g, g0):
        fresh = DiagnosticsBaseline(grid, g0)
        from_fresh = compute_diagnostics(grid, metric, fresh, 0.5, test_function=(0.02, 1.0))
        prebuilt = compute_diagnostics(grid, metric, baseline, 0.5, test_function=(0.02, 1.0))
        assert prebuilt == from_fresh
