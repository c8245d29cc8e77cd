"""Identity verifiers: exact trivials, oracle quality, report contract."""

import json

import numpy as np
import pytest

from iiblab import (
    ChernPackage,
    cli,
    FORM_ANCHOR,
    FORM_WEIGHTED,
    StepControl,
    TorusGrid,
    VerificationError,
    flat_metric,
    random_band_metric,
    run_flow,
    verify,
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
from iiblab.errors import HermiticityError, ValenceError
from iiblab.grid import ORACLE
from iiblab.metrics import (
    MetricFactor,
    balanced_band_metric,
    conformally_balanced_defect,
    fourier_scalar,
)
from iiblab.chern import pair_endo_forms
from iiblab.runconfig import resolve_config
from probes import band_covector, kahler_from_potential

GRID = TorusGrid(3, (0, 1), 16)


def _balanced(grid, amp):
    f = fourier_scalar(grid, [[1, 1, 0.0, -amp / 2], [1, -1, 0.0, -amp / 2]])
    return balanced_band_metric(grid, f)


def _short_run(grid, g0, n_steps=4, dt=1e-5, phi=None):
    return run_flow(grid, g0, FORM_WEIGHTED, n_steps * dt, StepControl(dt=dt),
                    weighted_source=phi, snapshot_every=1)


def _full_curvature(pkg):
    """``curv[..., k, j, a, b]`` scattered from the active stack, full shape."""
    act = pkg.grid.active_directions
    out = np.zeros((pkg.grid.n,) * 2 + pkg.active_curvature.shape[2:], dtype=complex)
    out[np.ix_(act, act)] = pkg.active_curvature
    return pkg.grid.to_grid_first(out)


def _refuse_full_curvature(monkeypatch):
    """Make any read of a full ``ChernPackage.curvature`` fail the test."""

    def refuse(pkg):
        raise AssertionError(f"{pkg.scheme} full curvature built")

    monkeypatch.setattr(ChernPackage, "curvature", property(refuse), raising=False)


# -- trivial data must give exact zeros --------------------------------------


def test_flat_metric_residuals_are_exact_zero():
    flat = flat_metric(GRID)
    reports = (
        verify_connection_difference(ChernPackage(GRID, flat))
        + verify_bianchi(ChernPackage(GRID, flat))
        + verify_commutator_convention(ChernPackage(GRID, flat))
        + verify_quasilinear_ricci(ChernPackage(GRID, flat))
        + verify_stationarity(ChernPackage(GRID, flat))
        + verify_tau_identity(ChernPackage(GRID, flat))
    )
    for rep in reports:
        assert rep["maxResidual"] == 0.0, rep["identityName"]
        assert rep["pass"]


def test_flat_commutator_with_band_probe_sits_at_roundoff():
    """The exact-zero guarantee holds for the constant default probe only;
    a band-limited probe leaves the two mixed-derivative orderings apart
    by FFT roundoff."""
    reports = verify_commutator_convention(
        ChernPackage(GRID, flat_metric(GRID)), covector=band_covector(GRID)
    )
    for rep in reports:
        assert rep["maxResidual"] < 1e-12
        assert rep["pass"]


def test_flat_evolution_residuals_are_exact_zero():
    traj = _short_run(GRID, flat_metric(GRID))
    for rep in verify_trh_evolution(traj) + verify_dilaton_evolution(traj):
        assert rep["maxResidual"] == 0.0, rep["identityName"]


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
        verify_connection_difference(ChernPackage(grid, g))
        + verify_bianchi(ChernPackage(grid, g))
        + verify_commutator_convention(ChernPackage(grid, g), covector=band_covector(grid))
        + verify_quasilinear_ricci(ChernPackage(grid, g))
    )
    for rep in reports:
        assert rep["pass"], (rep["identityName"], rep["maxResidual"])
        schemes = {rep["oracleSpec"]["lhsScheme"], rep["oracleSpec"]["rhsScheme"]}
        assert schemes == {"spectral", ORACLE}


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
    reports = verify_bianchi(ChernPackage(grid, g))
    by_name = {r["identityName"]: r["maxResidual"] for r in reports}
    assert by_name["bianchi-first"] < 1e-9
    assert all(v < 1e-7 for v in by_name.values())


def _bianchi_full(grid, g):
    """The four Bianchi residuals formed on the full tensors, every
    structural zero included: the reference for the live-slot verifier."""
    pkg = ChernPackage(grid, g)
    fd = ChernPackage(grid, g, ORACLE)
    curv, curv_fd = _full_curvature(pkg), _full_curvature(fd)
    low = np.einsum("...ka,...lmaj->...lmkj", pkg.g, curv)
    low_fd = np.einsum("...ka,...lmaj->...lmkj", fd.g, curv_fd)
    nb_t = fd.covd_bar(fd.t_low, "Lll")
    rhs1 = np.swapaxes(low_fd, -3, -1) + np.moveaxis(nb_t, (-4, -3, -2, -1), (-4, -2, -1, -3))
    n_tbar = fd.covd(np.conj(fd.t_low), "lLL")
    rhs2 = np.swapaxes(low_fd, -4, -2) + np.moveaxis(n_tbar, (-4, -3, -2, -1), (-3, -1, -2, -4))
    n_r = pkg.covd(curv, "Llul")
    rhs3 = np.swapaxes(fd.covd(curv_fd, "Llul"), -5, -3) + np.einsum(
        "...rjm,...krab->...mkjab", fd.t_up, curv_fd
    )
    nb_r = pkg.covd_bar(curv, "Llul")
    rhs4 = np.swapaxes(fd.covd_bar(curv_fd, "Llul"), -5, -4) + np.einsum(
        "...rkm,...rjab->...mkjab", np.conj(fd.t_up), curv_fd
    )
    return {
        "bianchi-first": low - rhs1,
        "bianchi-first-conjugate": low - rhs2,
        "bianchi-second": n_r - rhs3,
        "bianchi-second-conjugate": nb_r - rhs4,
    }


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("axes", [(0, 1), (0, 2), (0, 1, 2, 3)], ids="axes{}".format)
def test_bianchi_live_slots_match_full_tensors(n, axes):
    """Skipping the structural zeros leaves every maximum bit-identical; the
    mean, still taken over the full tensor, moves only by summation order."""
    grid = TorusGrid(n, axes, 8 if len(axes) == 2 or n == 3 else 4)
    g = random_band_metric(grid, seed=7, amplitude=0.2)
    full = _bianchi_full(grid, g)
    reports = verify_bianchi(ChernPackage(grid, g))
    assert [r["identityName"] for r in reports] == list(full)
    for rep in reports:
        res = np.abs(full[rep["identityName"]])
        assert rep["maxResidual"] == res.max() > 0.0, rep["identityName"]
        assert rep["meanResidual"] == pytest.approx(res.mean(), rel=1e-15, abs=0.0)
        assert rep["detail"] == ""


def test_bianchi_builds_no_full_curvature(monkeypatch):
    """The live slots are read from the active stacks; neither package
    scatters its full (n, n, n, n) curvature."""
    _refuse_full_curvature(monkeypatch)
    reports = verify_bianchi(ChernPackage(GRID, random_band_metric(GRID, seed=1, amplitude=0.1)))
    assert len(reports) == 4


def _seven_identity_config(resolution):
    """The verify-r32 suite: random family, the seven identities that pass on it."""
    suite = ["connection-difference", "bianchi", "commutator", "quasilinear",
             "trh", "dilaton", "s-evolution"]
    return {
        "geometry": {"n": 3, "activeAxes": [0, 1], "resolution": resolution},
        "initialMetric": {"family": "random", "seed": 0},
        "formulation": "weighted",
        "source": {"kind": "none"},
        "control": {"tEnd": 4e-5, "dt": 1e-5},
        "verifySuite": [{"identity": name} for name in suite],
    }


def test_identity_suite_builds_no_full_curvature(monkeypatch, tmp_path):
    """One verify-r32 suite (R = 32) reads the curvature only from the
    active stacks."""
    _refuse_full_curvature(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_seven_identity_config(32)))
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(path), "--out", str(out), "--seed", "0"]) == 0
    reports = json.loads((out / "reports.json").read_text())["reports"]
    assert len(reports) == 15


def test_identity_suite_builds_each_package_once(monkeypatch, tmp_path):
    """One verify suite of the seven identities builds one spectral package
    of the initial metric, one fd8 package that Bianchi and the commutator
    share, and one package per window state.  The window's run builds the
    rest, 4 per step and 1 of w0: one per accepted state and the stages."""
    config = _seven_identity_config(8)
    g0 = resolve_config(config).initial_metric
    built, in_run, running = [], [], []
    init, run = ChernPackage.__init__, cli.run_flow

    def counting(self, grid, g, *args):
        init(self, grid, g, *args)
        (in_run if running else built).append((self.scheme, np.array_equal(g, g0)))

    def flow_run(*args, **kwargs):
        running.append(None)
        try:
            return run(*args, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(ChernPackage, "__init__", counting)
    monkeypatch.setattr(cli, "run_flow", flow_run)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
    assert sorted(built) == sorted(
        [("spectral", True)] + [(ORACLE, True)] + [("spectral", False)] * 5
    )
    assert len(in_run) == 4 * 4 + 1


@pytest.mark.parametrize("key", sorted(verify.SPATIAL_REGISTRY))
def test_spatial_verifier_refuses_an_fd8_package(key):
    """An fd8 package against the fd8 oracle would certify nothing."""
    with pytest.raises(ValenceError, match="spectral"):
        verify.SPATIAL_REGISTRY[key](ChernPackage(GRID, flat_metric(GRID), ORACLE))


def _commutator_full(grid, g, w):
    """Both commutator residuals formed on the full tensors, every structural
    zero included: the reference for the live-slot verifier."""
    pkg = ChernPackage(grid, g)
    curv = _full_curvature(ChernPackage(grid, g, ORACLE))
    first = pkg.covd(pkg.covd_bar(w, "l"), "Ll")
    second = np.swapaxes(pkg.covd_bar(pkg.covd(w, "l"), "ll"), -3, -2)
    rhs = -np.einsum("...kjpi,...p->...jki", curv, w)
    v = np.conj(w)
    first_b = pkg.covd(pkg.covd_bar(v, "L"), "LL")
    second_b = np.swapaxes(pkg.covd_bar(pkg.covd(v, "L"), "lL"), -3, -2)
    rhs_b = np.einsum("...jkpi,...p->...jki", np.conj(curv), v)
    return {
        "commutator-covector": (first - second) - rhs,
        "commutator-covector-barred": (first_b - second_b) - rhs_b,
    }


@pytest.mark.parametrize(
    "n,axes", [(3, (0, 1)), (3, (0, 2)), (4, (0, 1, 2, 3)), (5, (0, 1))],
    ids=["n3-axes01", "n3-axes02", "n4-axes0123", "n5-axes01"],
)
def test_commutator_live_slots_match_full_tensors(n, axes):
    """As for Bianchi: every maximum bit-identical, the mean over the full
    (n, n, n) tensor moved only by summation order."""
    grid = TorusGrid(n, axes, 8 if len(axes) == 2 else 4)
    g = random_band_metric(grid, seed=7, amplitude=0.2)
    w = band_covector(grid)
    full = _commutator_full(grid, g, w)
    reports = verify_commutator_convention(ChernPackage(grid, g), covector=w)
    assert [r["identityName"] for r in reports] == list(full)
    for rep in reports:
        res = np.abs(full[rep["identityName"]])
        assert rep["maxResidual"] == res.max() > 0.0, rep["identityName"]
        assert rep["meanResidual"] == pytest.approx(res.mean(), rel=1e-15, abs=0.0)


def test_tau_identity_on_balanced_family():
    grid = TorusGrid(3, (0, 1), 32)
    reports = verify_tau_identity(ChernPackage(grid, _balanced(grid, 0.3)))
    assert reports[0]["pass"]
    assert reports[0]["maxResidual"] < 1e-8


def test_tau_precondition_on_kahler_data():
    x, y = GRID.coordinate(0), GRID.coordinate(1)
    g = kahler_from_potential(GRID, 0.05 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    rep = verify_tau_identity(ChernPackage(GRID, g))[0]
    assert rep["status"] == "precondition-failed"
    assert not rep["pass"]


def test_stationarity_source_defect_is_exactly_epsilon():
    eps = 0.125
    psi = np.zeros((3, 3), dtype=complex)
    psi[0, 0] = eps
    reports = verify_stationarity(ChernPackage(GRID, flat_metric(GRID)), source_matrix=psi)
    by_name = {r["identityName"]: r for r in reports}
    assert by_name["stationarity-balanced"]["maxResidual"] == 0.0
    assert by_name["stationarity-source"]["maxResidual"] == eps


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("family", ["balanced", "random"])
def test_stationarity_balanced_is_the_balanced_defect(n, family):
    grid = TorusGrid(n, (0, 1), 8)
    g = _balanced(grid, 0.2) if family == "balanced" else random_band_metric(grid, seed=5)
    rep = verify_stationarity(ChernPackage(grid, g))[0]
    assert rep["identityName"] == "stationarity-balanced"
    assert rep["maxResidual"] == conformally_balanced_defect(grid, g)


@pytest.mark.parametrize("n,axes", [(3, (0, 1)), (4, (0, 2, 3))], ids=["n3", "n4"])
def test_flat_reference_terms_are_exactly_the_chern_terms(n, axes):
    """Against the flat reference the relative connection is gamma itself.

    The assemblies below measure the connection against explicit flat
    Chern packages.  The verifiers read ``gamma``, the fd8 gradient of g
    and its two inverses directly, and leave the derivative of the flat
    curvature out of the S-evolution heat check; both shortcuts must be
    exact, not merely close.
    """
    grid = TorusGrid(n, axes, 8)
    g = random_band_metric(grid, seed=3)
    flat = flat_metric(grid)
    pkg = ChernPackage(grid, g)
    ref = ChernPackage(grid, flat)
    ref_fd = ChernPackage(grid, flat, ORACLE)

    old_a1 = pkg.gamma - ref.gamma
    old_a2 = np.einsum("...kl,...ilj->...ikj", pkg.ginv, ref_fd.covd(pkg.g, "Ll"))
    h = np.linalg.inv(flat) @ g
    hinv = np.linalg.inv(g) @ flat
    old_a3 = np.einsum("...ag,...igb->...iab", hinv, ref_fd.covd(h, "ul"))

    dg_fd = grid.holomorphic_gradient(pkg.g, ORACLE)
    assert np.array_equal(old_a1, pkg.gamma)
    assert np.array_equal(old_a2, np.einsum("...kl,...ilj->...ikj", pkg.ginv, dg_fd))
    assert np.array_equal(
        old_a3, np.einsum("...ag,...igb->...iab", np.linalg.inv(pkg.g), dg_fd)
    )
    assert not np.any(pkg.covd(_full_curvature(ref), "Llul"))


# -- evolution identities ------------------------------------------------------


def test_trh_and_dilaton_second_order_in_dt():
    g0 = _balanced(GRID, 0.3)
    resid = {}
    for dt in (1e-5, 5e-6):
        traj = _short_run(GRID, g0, dt=dt)
        resid[dt] = (
            verify_trh_evolution(traj)[0]["maxResidual"],
            verify_dilaton_evolution(traj)[0]["maxResidual"],
        )
    for a, b in zip(resid[1e-5], resid[5e-6]):
        assert a < 1e-5
        assert 2.5 < a / b < 6.5



def test_trh_evolution_inverts_no_matrix(monkeypatch):
    """h^-1 = g_c^-1 g_ref is read off the center package's ginv."""
    traj = _short_run(GRID, random_band_metric(GRID, seed=3, amplitude=0.2))
    want = verify_trh_evolution(traj)
    assert want[0]["status"] == "ok"

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    assert verify_trh_evolution(traj) == want

def test_s_evolution_on_small_amplitude_family():
    g0 = _balanced(GRID, 0.05)
    traj = _short_run(GRID, g0)
    by_name = {r["identityName"]: r for r in verify_S_evolution(traj)}
    assert by_name["s-evolution"]["maxResidual"] < 1e-6
    assert by_name["s-evolution-connection-rate"]["maxResidual"] < 1e-7
    assert by_name["s-evolution-connection-heat"]["maxResidual"] < 1e-5
    assert all(r["pass"] for r in by_name.values())


def _s_evolution_full(traj):
    """The s-evolution and connection-heat residuals with every form and
    derivative slot paired and traced, structural zeros included: the
    reference for the live-slot verifier."""
    grid, states = traj.grid, traj.snapshots
    c = len(states) // 2
    dt = dict(verify._centered_windows(np.asarray(traj.times)))[c]
    pkgs = [ChernPackage(grid, states[t]) for t in (c - 1, c, c + 1)]
    s_all = [pair_endo_forms(p.ginv, p.g, p.ginv, p.gamma, p.gamma).real for p in pkgs]
    pkg, a = pkgs[1], pkgs[1].gamma
    metric = (pkg.ginv, pkg.g, pkg.ginv)
    d_s = (s_all[2] - s_all[0]) / (2.0 * dt)
    lap_s = pkg.scalar_laplacian(s_all[1].astype(complex))
    d_a = (pkgs[2].gamma - pkgs[0].gamma) / (2.0 * dt)
    nb_a = pkg.covd_bar(a, "lul")
    heat_a = d_a - np.einsum("...pq,...pqabc->...abc", pkg.ginv, pkg.covd(nb_a, "Llul"))

    def slot_norm(da, ginv):
        n = grid.n
        return sum(
            ginv[..., p, q] * pair_endo_forms(*metric, da[..., p, :, :, :], da[..., q, :, :, :])
            for p in range(n) for q in range(n)
        ).real

    norm_bar = slot_norm(nb_a, np.swapaxes(pkg.ginv, -1, -2))
    norm_unb = slot_norm(pkg.covd(a, "lul"), pkg.ginv)
    pair_block = pair_endo_forms(*metric, heat_a, a) + pair_endo_forms(*metric, a, heat_a)
    g_dot = (states[c + 1] - states[c - 1]) / (2.0 * dt)
    d_low = g_dot + pkg.second_ricci
    d_up = np.einsum("...mk,...kj,...jg->...mg", pkg.ginv, d_low, pkg.ginv)
    corr = (
        pair_endo_forms(d_up, pkg.g, pkg.ginv, a, a)
        - pair_endo_forms(pkg.ginv, d_low, pkg.ginv, a, a)
        + pair_endo_forms(pkg.ginv, pkg.g, d_up, a, a)
    )
    rhs = -norm_bar - norm_unb + pair_block - corr
    blocks = [norm_bar, norm_unb, pair_block, corr, d_s, lap_s]
    main = np.abs(d_s - lap_s - rhs) / max(float(np.abs(b).max()) for b in blocks)

    act = grid.active_directions
    w2 = np.einsum(
        "...pq,...rmp,...qrab->...mab", pkg.ginv[..., act], pkg.t_up[..., act, :, :],
        grid.to_grid_first(pkg.active_curvature), optimize=True,
    )
    q_endo = -0.5 * np.einsum("...ag,...gb->...ab", pkg.ginv, pkg.ttbar)
    heat_rhs = w2 + pkg.covd(q_endo, "ul")
    heat_scale = max(float(np.abs(b).max()) for b in (heat_a, w2, heat_rhs))
    return {"s-evolution": main, "s-evolution-connection-heat": np.abs(heat_a - heat_rhs) / heat_scale}


@pytest.mark.parametrize("n,axes", [(3, (0, 1)), (4, (0, 2, 3))], ids=["n3", "n4"])
def test_s_evolution_live_slots_match_full_tensors(n, axes):
    """Pairing and tracing only the live slots leaves both normalized
    residuals bit-identical to the full-slot formulas."""
    grid = TorusGrid(n, axes, 16 if len(axes) == 2 else 8)
    traj = _short_run(grid, random_band_metric(grid, seed=5, amplitude=0.2))
    full = _s_evolution_full(traj)
    by_name = {r["identityName"]: r for r in verify_S_evolution(traj)}
    for name, res in full.items():
        assert by_name[name]["maxResidual"] == res.max() > 0.0, name
        assert by_name[name]["meanResidual"] == res.mean(), name


def test_evolution_checks_need_weighted_trajectories():
    g0 = _balanced(GRID, 0.05)
    anchor = run_flow(GRID, g0, FORM_ANCHOR, 4e-5, StepControl(dt=1e-5),
                      snapshot_every=1)
    with pytest.raises(VerificationError):
        verify_dilaton_evolution(anchor)
    stub = run_flow(GRID, g0, FORM_WEIGHTED, 1e-5, StepControl(dt=1e-5))
    with pytest.raises(VerificationError):
        verify_trh_evolution(stub)


@pytest.mark.parametrize("verifier", [
    verify_trh_evolution, verify_dilaton_evolution, verify_S_evolution,
])
def test_evolution_verifier_checks_the_center_state(verifier):
    traj = _short_run(GRID, _balanced(GRID, 0.05))
    c = len(traj.snapshots) // 2
    traj.snapshots[c] = traj.snapshots[c].copy()
    traj.snapshots[c][..., 0, 1] += 1e-6
    with pytest.raises(HermiticityError):
        verifier(traj)


def test_dilaton_factors_each_state_once(monkeypatch):
    traj = _short_run(GRID, _balanced(GRID, 0.05))
    assert len(traj.snapshots) == 5
    built = []
    init = MetricFactor.__init__

    def counting(self, g):
        built.append(g)
        init(self, g)

    monkeypatch.setattr(MetricFactor, "__init__", counting)
    verify_dilaton_evolution(traj)
    assert len(built) == len(traj.snapshots)
    # the other two evolution checks read the packages the trajectory keeps
    verify_trh_evolution(traj)
    verify_S_evolution(traj)
    assert len(built) == len(traj.snapshots)


def _spy(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call's arguments are recorded."""
    calls = []
    wrapped = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_s_evolution_takes_the_barred_derivative_of_a_once(monkeypatch):
    traj = _short_run(GRID, _balanced(GRID, 0.05))
    calls = _spy(monkeypatch, ChernPackage, "covd_bar")
    verify_S_evolution(traj)
    assert len(calls) == 1


def test_dilaton_takes_one_laplacian_per_center(monkeypatch):
    traj = _short_run(GRID, _balanced(GRID, 0.05))
    calls = _spy(monkeypatch, ChernPackage, "scalar_laplacian")
    verify_dilaton_evolution(traj)
    assert len(calls) == len(traj.snapshots) - 2


def test_bianchi_scatters_each_live_curvature_once(monkeypatch):
    calls = _spy(monkeypatch, verify, "_live_curvature")
    verify_bianchi(ChernPackage(GRID, random_band_metric(GRID, seed=1, amplitude=0.1)))
    scattered = sorted((pkg.scheme, slot) for pkg, slot in calls)
    assert scattered == sorted((scheme, slot) for scheme in ("spectral", ORACLE) for slot in (0, 1))


# reports whose identity holds whatever the source: S and the connection rate
SOURCE_FREE = {"s-evolution", "s-evolution-connection-rate"}


def test_source_enters_evolution_identities():
    """Each report that carries the source passes with it and fails without.

    Both source shapes the verifiers take: one matrix for every node, and
    a field over the grid (the shape the CLI always passes).
    """
    base = np.zeros((3, 3), dtype=complex)
    base[1, 1] = 0.4
    wave = 1.0 + 0.25 * np.sin(2 * np.pi * GRID.coordinate(0))
    g0 = _balanced(GRID, 0.1)
    for phi in (base, base * wave[..., None, None]):
        traj = _short_run(GRID, g0, phi=phi)
        for verifier in (verify_trh_evolution, verify_dilaton_evolution, verify_S_evolution):
            for rep, bare in zip(verifier(traj, phi=phi), verifier(traj)):
                name = rep["identityName"]
                assert rep["pass"], (name, rep["maxResidual"])
                if name in SOURCE_FREE:
                    assert bare == rep
                else:  # forgetting the source must fail
                    assert not bare["pass"], (name, bare["maxResidual"])


# -- report contract -----------------------------------------------------------


def test_report_serialization_contract():
    rep = verify_bianchi(ChernPackage(GRID, random_band_metric(GRID, seed=16)))[0]
    # reports.json holds exactly the report; it must survive a JSON round trip
    data = json.loads(json.dumps(rep))
    assert data == rep
    assert set(data) == {
        "identityName", "maxResidual", "meanResidual", "tolerance",
        "gridSpec", "oracleSpec", "pass", "status", "detail",
    }
    assert data["gridSpec"] == {"n": 3, "activeAxes": [0, 1], "resolution": 16}


def test_report_mean_is_over_the_full_tensor():
    """A residual that holds only the live directions of one slot averages
    over the zero-padded full tensor; a full residual over its own size."""
    rng = np.random.default_rng(11)
    act = list(GRID.active_directions)
    assert len(act) < GRID.n
    shape = GRID.shape + (len(act), GRID.n)
    live = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    full = np.zeros(GRID.shape + (GRID.n, GRID.n), dtype=complex)
    full[..., act, :] = live
    oracle = {"scheme": "test"}
    from_live = verify._report("live", live, 1.0, GRID, oracle)
    from_full = verify._report("full", full, 1.0, GRID, oracle)
    assert from_full["meanResidual"] == float(np.abs(full).ravel().sum() / full.size)
    assert from_live["meanResidual"] == pytest.approx(np.abs(full).mean(), rel=1e-14, abs=0.0)
    assert from_live["maxResidual"] == from_full["maxResidual"]
