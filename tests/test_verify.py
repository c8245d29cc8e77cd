"""Identity verifiers: exact trivials, oracle quality, report contract."""

import json

import numpy as np
import pytest

from iiblab import (
    FORM_ANCHOR,
    FORM_WEIGHTED,
    StepControl,
    TorusGrid,
    VerificationError,
    flat_metric,
    random_band_metric,
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
from iiblab.metrics import balanced_band_metric, fourier_scalar, kahler_from_potential
from iiblab.verify import ORACLE_SCHEME, ResidualReport, band_covector

GRID = TorusGrid(3, (0, 1), 16)


def _balanced(grid, amp):
    f = fourier_scalar(grid, [[1, 1, 0.0, -amp / 2], [1, -1, 0.0, -amp / 2]])
    return balanced_band_metric(grid, f)


def _short_run(grid, g0, n_steps=4, dt=1e-5, phi=None):
    return run_flow(grid, g0, FORM_WEIGHTED, n_steps * dt, StepControl(dt=dt),
                    weighted_source=phi, snapshot_every=1)


# -- trivial data must give exact zeros --------------------------------------


def test_flat_metric_residuals_are_exact_zero():
    flat = flat_metric(GRID)
    reports = (
        verify_connection_difference(GRID, flat)
        + verify_bianchi(GRID, flat)
        + verify_commutator_convention(GRID, flat)
        + verify_quasilinear_ricci(GRID, flat)
        + verify_stationarity(GRID, flat)
        + verify_tau_identity(GRID, flat)
    )
    for rep in reports:
        assert rep.max_residual == 0.0, rep.identity_name
        assert rep.passed


def test_flat_commutator_with_band_probe_sits_at_roundoff():
    """The exact-zero guarantee holds for the constant default probe only;
    a band-limited probe leaves the two mixed-derivative orderings apart
    by FFT roundoff."""
    reports = verify_commutator_convention(
        GRID, flat_metric(GRID), covector=band_covector(GRID)
    )
    for rep in reports:
        assert rep.max_residual < 1e-12
        assert rep.passed


def test_flat_evolution_residuals_are_exact_zero():
    traj = _short_run(GRID, flat_metric(GRID))
    for rep in verify_trh_evolution(traj) + verify_dilaton_evolution(traj):
        assert rep.max_residual == 0.0, rep.identity_name


# -- oracle quality on generic data -------------------------------------------


@pytest.mark.parametrize(
    "n,axes",
    [(3, (0, 1)), (4, (0, 1)), (5, (0, 1)), (3, (0, 2))],
    ids=["n3-axes01", "n4-axes01", "n5-axes01", "n3-axes02"],
)
def test_spatial_suite_on_random_metric(n, axes):
    # Default tolerances are calibrated for resolution 32; coarser grids
    # leave the finite-difference oracle noticeably above 1e-7.
    grid = TorusGrid(n, axes, 32)
    g = random_band_metric(grid, seed=14)
    reports = (
        verify_connection_difference(grid, g)
        + verify_bianchi(grid, g)
        + verify_commutator_convention(grid, g, covector=band_covector(grid))
        + verify_quasilinear_ricci(grid, g)
    )
    for rep in reports:
        assert rep.passed, (rep.identity_name, rep.max_residual)
        schemes = {rep.oracle_spec["lhsScheme"], rep.oracle_spec["rhsScheme"]}
        assert schemes == {"spectral", ORACLE_SCHEME}


def test_kahler_one_variable_block_bianchi_tight():
    """diag(a(z^1), 1, 1) is Kahler, so the torsion terms drop out of the
    first identity and only a single curvature component survives; what is
    left of the residual is the finite-difference oracle's truncation on
    that one entry, which a mild amplitude at resolution 64 pushes two
    decades under the generic tolerance."""
    grid = TorusGrid(3, (0, 1), 64)
    x, y = grid.coordinate(0), grid.coordinate(1)
    g = np.zeros(grid.shape + (3, 3), dtype=complex)
    g[..., 0, 0] = 1.0 + 0.02 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    g[..., 1, 1] = 1.0
    g[..., 2, 2] = 1.0
    reports = verify_bianchi(grid, g)
    by_name = {r.identity_name: r.max_residual for r in reports}
    assert by_name["bianchi-first"] < 1e-9
    assert all(v < 1e-7 for v in by_name.values())


def test_tau_identity_on_balanced_family():
    grid = TorusGrid(3, (0, 1), 32)
    reports = verify_tau_identity(grid, _balanced(grid, 0.3))
    assert reports[0].passed
    assert reports[0].max_residual < 1e-8


def test_tau_precondition_on_kahler_data():
    x, y = GRID.coordinate(0), GRID.coordinate(1)
    g = kahler_from_potential(GRID, 0.05 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    rep = verify_tau_identity(GRID, g)[0]
    assert rep.status == "precondition-failed"
    assert not rep.passed


def test_stationarity_source_defect_is_exactly_epsilon():
    eps = 0.125
    psi = np.zeros((3, 3), dtype=complex)
    psi[0, 0] = eps
    reports = verify_stationarity(GRID, flat_metric(GRID), source_matrix=psi)
    by_name = {r.identity_name: r for r in reports}
    assert by_name["stationarity-balanced"].max_residual == 0.0
    assert by_name["stationarity-source"].max_residual == eps


# -- evolution identities ------------------------------------------------------


def test_trh_and_dilaton_second_order_in_dt():
    g0 = _balanced(GRID, 0.3)
    resid = {}
    for dt in (1e-5, 5e-6):
        traj = _short_run(GRID, g0, dt=dt)
        resid[dt] = (
            verify_trh_evolution(traj)[0].max_residual,
            verify_dilaton_evolution(traj)[0].max_residual,
        )
    for a, b in zip(resid[1e-5], resid[5e-6]):
        assert a < 1e-5
        assert 2.5 < a / b < 6.5


def test_s_evolution_on_small_amplitude_family():
    g0 = _balanced(GRID, 0.05)
    traj = _short_run(GRID, g0)
    by_name = {r.identity_name: r for r in verify_S_evolution(traj)}
    assert by_name["s-evolution"].max_residual < 1e-6
    assert by_name["s-evolution-connection-rate"].max_residual < 1e-7
    assert by_name["s-evolution-connection-heat"].max_residual < 1e-5
    assert all(r.passed for r in by_name.values())


def test_evolution_checks_need_weighted_trajectories():
    g0 = _balanced(GRID, 0.05)
    anchor = run_flow(GRID, g0, FORM_ANCHOR, 4e-5, StepControl(dt=1e-5),
                      snapshot_every=1)
    with pytest.raises(VerificationError):
        verify_dilaton_evolution(anchor)
    stub = run_flow(GRID, g0, FORM_WEIGHTED, 1e-5, StepControl(dt=1e-5))
    with pytest.raises(VerificationError):
        verify_trh_evolution(stub)


def test_source_enters_evolution_identities():
    phi = np.zeros((3, 3), dtype=complex)
    phi[1, 1] = 0.4
    g0 = _balanced(GRID, 0.1)
    traj = _short_run(GRID, g0, phi=phi)
    with_src = verify_dilaton_evolution(traj, phi=phi)
    for rep in with_src:
        assert rep.passed, (rep.identity_name, rep.max_residual)
    without = verify_dilaton_evolution(traj)  # forgetting the source must fail
    assert any(not rep.passed for rep in without)


# -- report contract -----------------------------------------------------------


def test_report_serialization_contract():
    rep = verify_bianchi(GRID, random_band_metric(GRID, seed=16))[0]
    # reports.json holds exactly to_dict(); it must survive a JSON round trip
    data = json.loads(json.dumps(rep.to_dict()))
    assert set(data) == {
        "identityName", "maxResidual", "meanResidual", "tolerance",
        "gridSpec", "oracleSpec", "pass", "status", "detail",
    }
    assert data["gridSpec"] == {"n": 3, "activeAxes": [0, 1], "resolution": 16}
    assert isinstance(rep, ResidualReport)
