"""Acceptance gate: nine primary criteria, one scorecard line each.

Every test prints exactly one line of the form

    PASS criterion-N (label): numbers
    FAIL criterion-N (label): numbers

before asserting, so the captured output reads as a scorecard.  The
expensive trajectories are shared through module-scoped fixtures; the
collection of source-free runs they produce doubles as the test matrix
for the monotonicity and preservation criteria.
"""

import time
from collections import defaultdict

import numpy as np
import pytest

from iiblab import (
    FORM_ANCHOR,
    FORM_WEIGHTED,
    ChernPackage,
    StepControl,
    TorusGrid,
    compute_diagnostics,
    flat_metric,
    run_flow,
    verify_S_evolution,
    verify_bianchi,
    verify_commutator_convention,
    verify_connection_difference,
    verify_dilaton_evolution,
    verify_quasilinear_ricci,
    verify_stationarity,
    verify_tau_identity,
    verify_trh_evolution,
)
from iiblab.metrics import (
    balanced_band_metric,
    conformally_balanced_defect,
    fourier_scalar,
    random_band_metric,
    volume_norm,
)
from probes import band_covector

GRID8 = TorusGrid(3, (0, 1), 8)
GRID16 = TorusGrid(3, (0, 1), 16)
GRID32 = TorusGrid(3, (0, 1), 32)

FAMILY_TERMS = [[1, 1, 0.0, -0.15], [1, -1, 0.0, -0.15]]  # 0.3 sin(2pi x1) cos(2pi y1)


def _family(grid, amplitude=0.3, stretch=1.0):
    terms = [[1, 1, 0.0, -amplitude / 2], [1, -1, 0.0, -amplitude / 2]]
    return balanced_band_metric(grid, fourier_scalar(grid, terms), stretch)


def _score(num, label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion-{num} ({label}): {detail}")
    assert ok, f"criterion-{num} ({label}): {detail}"


# -- shared trajectories (all source-free) ------------------------------------


@pytest.fixture(scope="module")
def formulation_pair():
    g0 = _family(GRID16)
    start = time.perf_counter()
    weighted = run_flow(GRID16, g0, FORM_WEIGHTED, 0.01, StepControl(dt=1e-5),
                        snapshot_every=100)
    anchor = run_flow(GRID16, g0, FORM_ANCHOR, 0.01, StepControl(dt=1e-5),
                      snapshot_every=100)
    wall = time.perf_counter() - start
    return {"weighted": weighted, "anchor": anchor, "wall": wall}


@pytest.fixture(scope="module")
def evolution_windows():
    g0 = _family(GRID16)
    return {
        dt: run_flow(GRID16, g0, FORM_WEIGHTED, 4 * dt, StepControl(dt=dt),
                     snapshot_every=1)
        for dt in (1e-5, 5e-6)
    }


@pytest.fixture(scope="module")
def s_window():
    g0 = _family(GRID16, amplitude=0.05)
    return run_flow(GRID16, g0, FORM_WEIGHTED, 4e-5, StepControl(dt=1e-5),
                    snapshot_every=1)


@pytest.fixture(scope="module")
def richardson_runs():
    g0 = _family(GRID8)
    dt, horizon = 1e-3, 8e-3
    runs = {}
    for scale in (1, 2, 4):
        runs[scale] = run_flow(GRID8, g0, FORM_WEIGHTED, horizon,
                               StepControl(dt=dt / scale))
    return runs


@pytest.fixture(scope="module")
def flat_run():
    return run_flow(GRID8, flat_metric(GRID8), FORM_WEIGHTED, 0.1,
                    StepControl(dt=1e-3))


@pytest.fixture(scope="module")
def source_free_matrix(formulation_pair, evolution_windows, s_window,
                       richardson_runs, flat_run):
    """Every source-free run the gate executes, as (label, grid, trajectory)."""
    matrix = [
        ("weighted-family", GRID16, formulation_pair["weighted"]),
        ("anchor-family", GRID16, formulation_pair["anchor"]),
        ("s-window", GRID16, s_window),
        ("flat-fixed-point", GRID8, flat_run),
    ]
    for dt, traj in evolution_windows.items():
        matrix.append((f"window-dt-{dt:g}", GRID16, traj))
    for scale, traj in richardson_runs.items():
        matrix.append((f"richardson-{scale}", GRID8, traj))
    return matrix


# -- the nine criteria ---------------------------------------------------------


def _spatial_suite(grid, g):
    return (
        verify_connection_difference(ChernPackage(grid, g))
        + verify_bianchi(ChernPackage(grid, g))
        + verify_commutator_convention(ChernPackage(grid, g), covector=band_covector(grid))
        + verify_quasilinear_ricci(ChernPackage(grid, g))
    )


def test_criterion_1_spatial_identity_suite():
    start = time.perf_counter()
    worst = defaultdict(float)
    for seed in range(20):
        for rep in _spatial_suite(GRID32, random_band_metric(GRID32, seed=seed)):
            name = rep["identityName"]
            worst[name] = max(worst[name], rep["maxResidual"])

    grid64 = TorusGrid(3, (0, 1), 64)
    coarse = defaultdict(float)
    fine = defaultdict(float)
    for seed in range(3):
        for rep in _spatial_suite(GRID32, random_band_metric(GRID32, seed=seed)):
            name = rep["identityName"]
            coarse[name] = max(coarse[name], rep["maxResidual"])
        for rep in _spatial_suite(grid64, random_band_metric(grid64, seed=seed)):
            name = rep["identityName"]
            fine[name] = max(fine[name], rep["maxResidual"])
    elapsed = time.perf_counter() - start

    worst_resid = max(worst.values())
    min_shrink = min(coarse[name] / fine[name] for name in coarse)
    ok = worst_resid < 1e-7 and min_shrink >= 10.0 and elapsed < 300.0
    _score(1, "spatial identity suite", ok,
           f"20 seeds at 32: worst={worst_resid:.3e} (< 1e-7);"
           f" min shrink at 64 = {min_shrink:.1f}x (>= 10x); {elapsed:.0f}s")


def test_criterion_2_balanced_identity():
    g = _family(GRID32, stretch=1.3)
    defect = conformally_balanced_defect(GRID32, g)
    tau_rep = verify_tau_identity(ChernPackage(GRID32, g))[0]

    f = fourier_scalar(GRID32, FAMILY_TERMS).astype(complex)
    d1f = GRID32.holomorphic_gradient(f)[..., 0]
    tau1 = ChernPackage(GRID32, g).tau[..., 0]
    closed_form = np.abs(tau1 + 2.0 * d1f).max()

    ok = defect < 1e-10 and tau_rep["maxResidual"] < 1e-8 and closed_form < 1e-8
    _score(2, "balanced family identities", ok,
           f"defect={defect:.3e} (< 1e-10); tau residual="
           f"{tau_rep['maxResidual']:.3e} (< 1e-8); first component vs -2 d1 f ="
           f" {closed_form:.3e} (< 1e-8)")


def test_criterion_3_formulation_equivalence(formulation_pair):
    w, a = formulation_pair["weighted"], formulation_pair["anchor"]
    last_w, last_a = len(w.times) - 1, len(a.times) - 1
    assert w.times[last_w] == pytest.approx(0.01)
    assert a.times[last_a] == pytest.approx(0.01)
    diff = np.abs(w.metric_at(last_w) - a.metric_at(last_a)).max()
    wall = formulation_pair["wall"]
    ok = diff < 1e-6 and wall < 600.0
    _score(3, "formulation equivalence", ok,
           f"max metric difference at t=0.01: {diff:.3e} (< 1e-6); {wall:.0f}s")


def test_criterion_4_dilaton_monotone_bound(source_free_matrix):
    worst_excess = -np.inf
    worst_margin = np.inf
    for label, grid, traj in source_free_matrix:
        n0 = volume_norm(traj.metric_at(0))
        floor = (n0.min() / n0.max()) ** 2
        det0 = np.linalg.det(traj.metric_at(0))
        for j in range(len(traj.times)):
            g = traj.metric_at(j)
            excess = volume_norm(g).max() - n0.max()
            det_h = (np.linalg.det(g) / det0).real
            worst_excess = max(worst_excess, excess)
            worst_margin = min(worst_margin, det_h.min() - floor)
    ok = worst_excess <= 1e-8 and worst_margin >= -1e-8
    _score(4, "dilaton monotone bound", ok,
           f"max norm excess over start: {worst_excess:+.3e} (<= 1e-8);"
           f" min det h margin above inferred floor: {worst_margin:+.3e}"
           f" (>= -1e-8); {len(source_free_matrix)} source-free runs")


def test_criterion_5_evolution_identities(evolution_windows):
    resid = {}
    for dt, traj in evolution_windows.items():
        resid[dt] = (
            verify_trh_evolution(traj)[0]["maxResidual"],
            verify_dilaton_evolution(traj)[0]["maxResidual"],
        )
    coarse, fine = resid[1e-5], resid[5e-6]
    ratios = [a / b for a, b in zip(coarse, fine)]
    ok = max(coarse) < 1e-5 and all(2.5 < r < 6.5 for r in ratios)
    _score(5, "trace and dilaton evolution", ok,
           f"residuals at dt=1e-5: trace={coarse[0]:.3e},"
           f" dilaton={coarse[1]:.3e} (< 1e-5); halving-dt ratios="
           f"{ratios[0]:.2f}, {ratios[1]:.2f} (approx 4)")


def test_criterion_6_s_evolution_stress(s_window):
    """Sign conventions under test, fixed across the library: the
    endomorphism inner product conjugates its second slot, the comparison
    field is the squared norm of the reference-covariant derivative of
    the evolving metric, and its growth terms enter with the same signs
    as the metric velocity itself."""
    by_name = {r["identityName"]: r for r in verify_S_evolution(s_window)}
    rel = by_name["s-evolution"]["maxResidual"]
    ok = rel < 1e-3 and all(r["pass"] for r in by_name.values())
    _score(6, "comparison-field evolution", ok,
           f"relative residual={rel:.3e} (< 1e-3); side checks:"
           f" rate={by_name['s-evolution-connection-rate']['maxResidual']:.3e},"
           f" heat={by_name['s-evolution-connection-heat']['maxResidual']:.3e}")


def test_criterion_7_balanced_preservation(source_free_matrix):
    worst_growth = -np.inf
    for label, grid, traj in source_free_matrix:
        d0 = conformally_balanced_defect(grid, traj.metric_at(0))
        assert d0 < 1e-10, (label, d0)
        for j in range(1, len(traj.times)):
            growth = conformally_balanced_defect(grid, traj.metric_at(j)) - d0
            worst_growth = max(worst_growth, growth)
    ok = worst_growth < 1e-8
    _score(7, "balanced condition preserved", ok,
           f"max defect growth over {len(source_free_matrix)} source-free"
           f" runs: {worst_growth:.3e} (< 1e-8)")


def test_criterion_8_integrator_order(richardson_runs):
    finals = {
        scale: traj.metric_at(len(traj.times) - 1)
        for scale, traj in richardson_runs.items()
    }
    d12 = np.abs(finals[1] - finals[2]).max()
    d24 = np.abs(finals[2] - finals[4]).max()
    ratio = d12 / d24
    ok = 8.0 <= ratio <= 32.0
    _score(8, "integrator order", ok,
           f"Richardson ratio={ratio:.2f} (16 within factor 2);"
           f" diffs {d12:.2e} / {d24:.2e}")


def test_criterion_9_stationarity(flat_run):
    drift = np.abs(
        flat_run.metric_at(len(flat_run.times) - 1) - flat_metric(GRID8)
    ).max()
    assert flat_run.steps_taken == 100

    eps = 0.25
    psi = np.zeros((3, 3), dtype=complex)
    psi[0, 0] = eps
    reports = verify_stationarity(ChernPackage(GRID8, flat_metric(GRID8)), source_matrix=psi)
    by_name = {r["identityName"]: r for r in reports}
    source_defect = by_name["stationarity-source"]["maxResidual"]
    ok = drift < 1e-12 and source_defect == eps
    _score(9, "flat stationarity", ok,
           f"drift over 100 steps: {drift:.3e} (< 1e-12);"
           f" source defect {source_defect} == epsilon exactly")
