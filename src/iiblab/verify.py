"""Residual checks for every exact identity the solver relies on.

Each ``verify_*`` function returns a list of reports, one per identity
actually checked, so callers can iterate a suite without caring which
function produced which line.  A report is the plain dict that
``reports.json`` holds, with the keys ``identityName``, ``maxResidual``,
``meanResidual``, ``tolerance``, ``gridSpec``, ``oracleSpec``, ``pass``,
``status`` and ``detail``, in that order.  ``status`` is ``"ok"``, or
``"precondition-failed"`` when the identity does not apply to the data;
such a report has null residuals and does not pass.

Two oracle styles are used.  Spatial identities evaluate one side with
spectral derivatives and the other with an eighth-order centered
stencil, so a small residual certifies agreement between two genuinely
different discretizations rather than shared truncation error.  Eighth
order is a measured choice: at the acceptance resolution its
truncation error sits around 1e-8, comfortably under the tolerance yet
far enough above the spectral round-off floor (which grows with the
third power of the band limit on triple-derivative identities) that
one refinement still shrinks every residual by well over an order of
magnitude.  Evolution identities take their time derivative from centered
differences of stored snapshots, never from the right side under test,
and keep every spatial term spectral; their residual therefore scales
like dt^2 plus a much smaller spatial floor.  At small steps round-off
dominates instead: at dt = 1e-5 a 1e-16 relative change of the stored
states moves ``trh-evolution`` by up to 1e-2 relative, so there these
residuals say little about truncation error.

Fields vary only along the active directions, so a derivative slot, the
form slot of the connection and both form slots of the curvature are
exact zeros off the active directions (the *live* slots are the others).
The spatial identities and the S, tr h evolution checks contract and pair
only live slots, and read the curvature from its active stack
(``ChernPackage.active_curvature``; no full curvature is built).  A slot
is dropped only where the derivative engine leaves it at an exact zero,
and sliced before a further derivative only when that derivative does
not correct it (the ``chern`` module docstring); a slot that the
connection mixes stays full.  Each Bianchi residual is formed only where
one curvature slot is active, and each commutator residual on the active
derivative slots; the rest of them is exactly zero, and ``meanResidual``
still averages over the full tensor.  The ``connection-difference``
check compares the full tensors; their inactive slots are structural
zeros of the derivative engine, which never computes a derivative along
a direction with no active axis (``tests/test_grid.py::
test_inactive_axis_derivative_is_zero`` pins them).

Sign and pairing conventions fixed here (the verified identities pin
them; flipping any one makes the small-amplitude checks fail by orders
of magnitude):

* the endomorphism-valued pairing, ``pair_endo_forms`` (the one pairing;
  the squared norm of a connection is its ``(ginv, g, ginv)`` case),
  conjugates its second slot and contracts the form slot against the
  inverse metric;
* the rough Laplacian applies the barred derivative first and traces
  the unbarred one against ``ginv`` from the left;
* ``i Lambda`` of a (1,1)-source with matrix ``phi[..., k, j]`` is the
  plain trace ``ginv[..., j, k] phi[..., k, j]``;
* the quadratic correction block in the second-order identity for the
  relative-connection norm uses ``g_dot + second_ricci`` with the
  metric raised on either the first, the middle, or the last factor,
  entering with signs (-, +, -) and an overall minus.

Evolution checks apply to weighted-formulation trajectories: the flow
equation whose consequences they test is the one driving the weighted
variable, so every tensor below is built from that variable directly.
"""

from __future__ import annotations

import numpy as np

from .chern import ChernPackage, pair_endo_forms
from .errors import ValenceError, VerificationError
from .flow import BALANCED_GATE, FORM_WEIGHTED, Trajectory, _anchor_target
from .grid import ORACLE, SPECTRAL, TorusGrid
from .metrics import balanced_defect_parts, conformally_balanced_defect

__all__ = [
    "verify_tau_identity",
    "verify_connection_difference",
    "verify_bianchi",
    "verify_commutator_convention",
    "verify_quasilinear_ricci",
    "verify_stationarity",
    "verify_trh_evolution",
    "verify_dilaton_evolution",
    "verify_S_evolution",
    "SPATIAL_REGISTRY",
    "EVOLUTION_REGISTRY",
]

CONNECTION_RATE_TOLERANCE = 1e-6

STATUS_OK = "ok"
STATUS_PRECONDITION = "precondition-failed"


def _report(
    name: str,
    residuals,
    tolerance: float,
    grid: TorusGrid,
    oracle: dict,
    detail: str = "",
) -> dict:
    """The report of one identity; ``residuals`` None marks a failed precondition.

    The mean divides by the size of the full tensor, n entries per index
    slot over the whole grid, also where a residual holds only the live
    directions of a slot (the rest being exact zeros).
    """
    mx = mean = None
    if residuals is not None:
        arrays = residuals if isinstance(residuals, (list, tuple)) else [residuals]
        arrays = [np.asarray(r) for r in arrays]
        flats = [np.abs(r).ravel() for r in arrays]
        joined = np.concatenate(flats) if len(flats) > 1 else flats[0]
        slots = sum(grid.n ** (r.ndim - grid.ndim_grid) for r in arrays)
        full = slots * grid.resolution**grid.ndim_grid
        mx, mean = float(joined.max()), float(joined.sum() / full)
    return {
        "identityName": name,
        "maxResidual": mx,
        "meanResidual": mean,
        "tolerance": float(tolerance),
        "gridSpec": {"n": grid.n, "activeAxes": list(grid.active_axes), "resolution": grid.resolution},
        "oracleSpec": oracle,
        "pass": mx is not None and mx <= tolerance,
        "status": STATUS_PRECONDITION if residuals is None else STATUS_OK,
        "detail": detail,
    }


def _spatial_oracle() -> dict:
    return {"lhsScheme": SPECTRAL, "rhsScheme": ORACLE}


def _active_block(m: np.ndarray, act: list[int]) -> np.ndarray:
    """``m[..., p, q]`` for p and q both active."""
    return m[..., act, :][..., act]


# -- spatial identities ---------------------------------------------------------


def verify_tau_identity(
    grid: TorusGrid,
    g: np.ndarray,
    tolerance: float = 1e-8,
) -> list[dict]:
    """Torsion trace against the gradient of the volume-form norm.

    Applies only to conformally balanced metrics; anything else gets a
    precondition-failed report carrying the measured defect.
    """
    oracle = _spatial_oracle()
    defect = conformally_balanced_defect(grid, g)
    if defect > BALANCED_GATE:
        return [
            _report(
                "tau-torsion-trace",
                None,
                tolerance,
                grid,
                oracle,
                f"balanced defect {defect:.3e} exceeds {BALANCED_GATE:.1e};"
                " the identity does not apply",
            )
        ]
    pkg = ChernPackage(grid, g)
    log_sq = np.log(pkg.norm_sq).astype(complex)
    dlog = 0.5 * grid.holomorphic_gradient(log_sq, ORACLE)
    return [_report("tau-torsion-trace", pkg.tau - dlog, tolerance, grid, oracle)]


def verify_connection_difference(
    grid: TorusGrid,
    g: np.ndarray,
    tolerance: float = 1e-7,
) -> list[dict]:
    """Three assemblies of the Chern connection, plus its norm.

    The reference metric is the flat one, as in :func:`verify_S_evolution`,
    so the relative connection is the Chern connection itself.  The
    spectral ``gamma`` must match the fd8 gradient of the
    metric raised once with the Cholesky inverse ``ginv`` and once with
    the LAPACK inverse ``inv(g)``; the squared norm of ``gamma`` must
    match the direct contraction of that gradient.
    """
    pkg = ChernPackage(grid, g)
    a1 = pkg.gamma
    dg_fd = grid.holomorphic_gradient(pkg.g, ORACLE)
    a2 = np.einsum("...kl,...ilj->...ikj", pkg.ginv, dg_fd)
    a3 = np.einsum("...ag,...igb->...iab", np.linalg.inv(pkg.g), dg_fd)

    oracle = _spatial_oracle()
    rep_a = _report(
        "connection-difference",
        [a1 - a2, a1 - a3],
        tolerance,
        grid,
        oracle,
        detail="both alternate assemblies compared against the direct difference",
    )

    s_direct = pair_endo_forms(pkg.ginv, pkg.g, pkg.ginv, a1, a1).real
    s_from_dg = pair_endo_forms(pkg.ginv, pkg.ginv, pkg.ginv, dg_fd, dg_fd).real
    rep_s = _report("s-two-path", s_direct - s_from_dg, tolerance, grid, oracle)
    return [rep_a, rep_s]


def _live_curvature(pkg: ChernPackage, slot: int) -> np.ndarray:
    """``curvature[..., act, :, :, :]`` (slot 0, k active) or
    ``curvature[..., :, act, :, :]`` (slot 1, j active), scattered from the
    active stack in the memory order of that slice of the full tensor."""
    act = list(pkg.grid.active_directions)
    stack = pkg.active_curvature if slot == 0 else np.swapaxes(pkg.active_curvature, 0, 1)
    out = np.zeros((len(act), pkg.grid.n) + stack.shape[2:], dtype=complex)
    out[:, act] = stack
    return pkg.grid.to_grid_first(out if slot == 0 else np.swapaxes(out, 0, 1))


def verify_bianchi(
    grid: TorusGrid,
    g: np.ndarray,
    tolerance: float = 1e-7,
) -> list[dict]:
    """All four Bianchi-type identities of the Chern connection, each formed
    on the active values of one curvature slot (module docstring)."""
    pkg = ChernPackage(grid, g)
    fd = ChernPackage(grid, g, ORACLE)
    act = list(grid.active_directions)
    fd_k, fd_j = _live_curvature(fd, 0), _live_curvature(fd, 1)
    pkg_k, pkg_j = _live_curvature(pkg, 0), _live_curvature(pkg, 1)

    def lowered(p, curv):  # low[l, m, k, j] = g[k, a] curv[l, m, a, j]
        return np.einsum("...ka,...lmaj->...lmkj", p.g, curv)

    # first: exchanging the two unbarred slots costs a barred derivative
    # of the torsion; on the active slots l
    nb_t = fd.covd_bar(fd.t_low, "Lll")[..., act, :, :, :]
    rhs = np.swapaxes(lowered(fd, fd_k), -3, -1) + np.moveaxis(
        nb_t, (-4, -3, -2, -1), (-4, -2, -1, -3)
    )
    residuals = {"bianchi-first": lowered(pkg, pkg_k) - rhs}

    # first, conjugated: exchanging the barred slots costs an unbarred
    # derivative of the conjugate torsion; on the active slots m
    n_tbar = fd.covd(np.conj(fd.t_low), "lLL")[..., act, :, :, :]
    rhs = np.swapaxes(lowered(fd, fd_j), -4, -2) + np.moveaxis(
        n_tbar, (-4, -3, -2, -1), (-3, -1, -2, -4)
    )
    residuals["bianchi-first-conjugate"] = lowered(pkg, pkg_j) - rhs

    # second: derivative slot exchanged with the unbarred curvature slot;
    # on the active barred slots k, which the unbarred derivative leaves alone
    rhs = np.swapaxes(fd.covd(fd_k, "Llul"), -5, -3) + np.einsum(
        "...rjm,...krab->...mkjab", fd.t_up[..., act, :, :], fd_k[..., act, :, :]
    )
    residuals["bianchi-second"] = pkg.covd(pkg_k, "Llul") - rhs

    # second, conjugated: barred derivative against the barred slot; on
    # the active unbarred slots j
    rhs = np.swapaxes(fd.covd_bar(fd_j, "Llul"), -5, -4) + np.einsum(
        "...rkm,...rjab->...mkjab", np.conj(fd.t_up[..., act, :, :]), fd_j[..., act, :, :, :]
    )
    residuals["bianchi-second-conjugate"] = pkg.covd_bar(pkg_j, "Llul") - rhs

    return [
        _report(name, res, tolerance, grid, _spatial_oracle())
        for name, res in residuals.items()
    ]


def verify_commutator_convention(
    grid: TorusGrid,
    g: np.ndarray,
    covector: np.ndarray | None = None,
    tolerance: float = 1e-7,
) -> list[dict]:
    """Mixed-derivative commutators on a covector and its conjugate.

    Formed on the active derivative slots only, the rest of each residual
    being exactly zero (module docstring); the mean is still taken over
    the full (n, n, n) tensor.
    """
    pkg = ChernPackage(grid, g)
    fd = ChernPackage(grid, g, ORACLE)
    oracle = _spatial_oracle()
    if covector is None:
        # Constant default probe: on the flat metric every term of the
        # residual is then identically zero, so the trivial case is
        # bit-exact.  A nonconstant probe (``band_covector`` in
        # ``tests/probes.py``) would leave the two mixed-derivative
        # orderings differing at FFT roundoff.
        w = np.ones(grid.shape + (grid.n,), dtype=complex)
        w += 0.5j * np.arange(grid.n)
    else:
        w = np.asarray(covector, dtype=complex)
    if w.shape != grid.shape + (grid.n,):
        raise ValenceError(f"covector shape {w.shape} does not fit the grid")

    act = list(grid.active_directions)
    curv = grid.to_grid_first(fd.active_curvature)

    # each inner derivative slot is sliced to the live directions before
    # the outer derivative, which does not correct it; the outer slot is
    # sliced after
    first = pkg.covd(pkg.covd_bar(w, "l")[..., act, :], "Ll")[..., act, :, :]
    second = np.swapaxes(pkg.covd_bar(pkg.covd(w, "l")[..., act, :], "ll"), -3, -2)
    rhs = -np.einsum("...kjpi,...p->...jki", curv, w)
    rep_low = _report(
        "commutator-covector", (first - second[..., act, :]) - rhs, tolerance, grid, oracle,
    )

    v = np.conj(w)
    first_b = pkg.covd(pkg.covd_bar(v, "L")[..., act, :], "LL")[..., act, :, :]
    second_b = np.swapaxes(pkg.covd_bar(pkg.covd(v, "L")[..., act, :], "lL"), -3, -2)
    rhs_b = np.einsum("...jkpi,...p->...jki", np.conj(curv), v)
    lhs_b = first_b - second_b[..., act, :]
    rep_bar = _report("commutator-covector-barred", lhs_b - rhs_b, tolerance, grid, oracle)
    return [rep_low, rep_bar]


def verify_quasilinear_ricci(
    grid: TorusGrid,
    g: np.ndarray,
    tolerance: float = 1e-7,
) -> list[dict]:
    """Second Ricci curvature against its quasilinear decomposition."""
    pkg = ChernPackage(grid, g)
    oracle = _spatial_oracle()
    # every derivative slot holds the live directions only
    act = list(grid.active_directions)
    ginv_live = _active_block(pkg.ginv, act)
    dg_u = grid.holomorphic_gradient(pkg.g, ORACLE)[..., act, :, :]
    ddg = grid.holomorphic_gradient(dg_u, ORACLE, barred=True)[..., act, :, :, :]
    dg_b = grid.holomorphic_gradient(pkg.g, ORACLE, barred=True)[..., act, :, :]
    term1 = -np.einsum("...qp,...pqkj->...kj", ginv_live, ddg)
    term2 = np.einsum(
        "...qp,...nl,...pkn,...qlj->...kj",
        ginv_live,
        pkg.ginv,
        dg_b,
        dg_u,
        optimize=True,
    )
    res = pkg.second_ricci - (term1 + term2)
    return [_report("quasilinear-second-ricci", res, tolerance, grid, oracle)]


def verify_stationarity(
    grid: TorusGrid,
    g: np.ndarray,
    source_matrix: np.ndarray | None = None,
    tolerance: float = 1e-10,
) -> list[dict]:
    """Both defects of the stationary system.

    A metric is a stationary point when the weighted top-minus-one
    power is closed and the curvature-form target matches the source;
    the two reports carry one defect each.
    """
    pkg = ChernPackage(grid, g)
    oracle = {"scheme": SPECTRAL}
    parts = balanced_defect_parts(grid, g, np.sqrt(pkg.norm_sq))
    balanced = _report("stationarity-balanced", parts, tolerance, grid, oracle)

    defect = _anchor_target(pkg, source_matrix)[1]
    source_rep = _report("stationarity-source", defect, tolerance, grid, oracle)
    return [balanced, source_rep]


# -- evolution identities --------------------------------------------------------


def _weighted_states(trajectory: Trajectory) -> tuple[np.ndarray, list[np.ndarray]]:
    if trajectory.formulation != FORM_WEIGHTED:
        raise VerificationError(
            "evolution identities are statements about the weighted flow"
            " variable; run (or convert to) the weighted formulation"
        )
    if len(trajectory.snapshots) < 3:
        raise VerificationError(
            f"need at least 3 stored snapshots for a centered time"
            f" derivative, got {len(trajectory.snapshots)}"
        )
    return np.asarray(trajectory.times, dtype=float), trajectory.snapshots


def _centered_windows(times: np.ndarray) -> list[tuple[int, float]]:
    """Interior indices whose two neighbor gaps agree, with the gap size."""
    centers = []
    for c in range(1, len(times) - 1):
        d1 = times[c] - times[c - 1]
        d2 = times[c + 1] - times[c]
        if d1 > 0 and abs(d2 - d1) <= 1e-9 * max(d1, d2):
            centers.append((c, 0.5 * (d1 + d2)))
    if not centers:
        raise VerificationError("no uniformly spaced snapshot triple found")
    return centers


def _source_field(grid: TorusGrid, phi) -> np.ndarray | None:
    if phi is None:
        return None
    arr = np.asarray(phi, dtype=complex)
    full = grid.shape + (grid.n, grid.n)
    if arr.shape == (grid.n, grid.n):
        return np.broadcast_to(arr, full)
    if arr.shape == full:
        return arr
    raise ValenceError(f"source shape {arr.shape} fits neither a matrix nor the grid")


def _lambda_trace(ginv: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return np.einsum("...jk,...kj->...", ginv, phi)


def _time_oracle(dt: float, windows: int) -> dict:
    return {
        "spatialScheme": SPECTRAL,
        "timeDerivative": "centered-second-order",
        "dt": dt,
        "windows": windows,
    }


def verify_trh_evolution(
    trajectory: Trajectory,
    phi=None,
    tolerance: float = 1e-5,
) -> list[dict]:
    """Heat-operator identity for the trace of the relative endomorphism.

    The endomorphism is taken relative to the first stored state.  The
    curvature and the derivative slots are read on the active directions
    only.
    """
    times, states = _weighted_states(trajectory)
    grid = trajectory.grid
    act = list(grid.active_directions)
    ref = ChernPackage(grid, states[0])
    curv = grid.to_grid_first(ref.active_curvature)
    phi_field = _source_field(grid, phi)
    ref_phi = 0.0 if phi_field is None else _lambda_trace(ref.ginv, phi_field)

    h_all = [np.einsum("...ma,...an->...mn", ref.ginv, s) for s in states]
    trh_all = [np.einsum("...mm->...", h) for h in h_all]

    centers = _centered_windows(times)
    residuals = []
    for c, dt in centers:
        pkg = ChernPackage(grid, states[c])
        ginv_live = _active_block(pkg.ginv, act)
        d_trh = (trh_all[c + 1] - trh_all[c - 1]) / (2.0 * dt)
        lap = pkg.scalar_laplacian(trh_all[c])
        h = h_all[c]
        hinv = pkg.ginv @ ref.g  # (g_ref^-1 g_c)^-1 = g_c^-1 g_ref
        n_h = ref.covd(h, "ul")[..., act, :, :]
        nb_h = ref.covd_bar(h, "ul")[..., act, :, :]
        term_grad = -np.einsum(
            "...qp,...gu,...quj,...pjg->...",
            ginv_live,
            hinv,
            n_h,
            nb_h,
            optimize=True,
        )
        term_curv = -np.einsum(
            "...qp,...pqaj,...ja->...", ginv_live, curv, h, optimize=True
        )
        term_tors = -0.5 * _lambda_trace(ref.ginv, pkg.ttbar)
        rhs = term_grad + term_curv + term_tors - ref_phi
        residuals.append(d_trh - lap - rhs)

    oracle = _time_oracle(centers[0][1], len(centers))
    return [_report("trh-evolution", residuals, tolerance, grid, oracle)]


def verify_dilaton_evolution(
    trajectory: Trajectory,
    phi=None,
    tolerance: float = 1e-5,
) -> list[dict]:
    """Both statements about the drift of the volume-form norm.

    The rate form equates the plain time derivative with curvature and
    torsion terms; the heat form moves the scalar Laplacian to the left
    side, absorbing the curvature term entirely.  Both read one Laplacian
    per center: half the Chern scalar curvature is Re Delta log|Omega|.
    """
    times, states = _weighted_states(trajectory)
    grid = trajectory.grid
    phi_field = _source_field(grid, phi)
    pkgs = [ChernPackage(grid, s) for s in states]
    log_all = [p.log_norm for p in pkgs]

    centers = _centered_windows(times)
    res_rate, res_heat = [], []
    for c, dt in centers:
        pkg = pkgs[c]
        d_log = (log_all[c + 1] - log_all[c - 1]) / (2.0 * dt)
        source = 0.0
        if phi_field is not None:
            source = 0.5 * _lambda_trace(pkg.ginv, phi_field)
        quarter_t = 0.25 * pkg.t_norm_sq
        lap = pkg.scalar_laplacian(log_all[c].astype(complex))
        res_rate.append(d_log - (lap.real + quarter_t + source))
        res_heat.append(d_log - lap - (quarter_t + source))

    oracle = _time_oracle(centers[0][1], len(centers))
    return [
        _report("dilaton-evolution-rate", res_rate, tolerance, trajectory.grid, oracle),
        _report("dilaton-evolution-heat", res_heat, tolerance, trajectory.grid, oracle),
    ]


def verify_S_evolution(
    trajectory: Trajectory,
    phi=None,
    tolerance: float = 1e-3,
) -> list[dict]:
    """Second-order identity for the relative-connection norm, plus cross-checks.

    The main check is the flow-agnostic heat identity for S; its time
    derivatives (of S, of the relative connection, and of the metric)
    all come from the snapshot window.  Residuals are normalized by the
    largest term in the identity, since S itself varies over orders of
    magnitude along a run.  The window is centered on the middle stored
    state.  The reference metric is flat, so its connection and curvature
    vanish and S = |gamma|^2 with gamma the Chern connection of the
    evolving metric.  A reference taken from the run itself would make S
    vanish at that snapshot; the flat one keeps S of order one and the
    normalization honest from the first snapshot on.

    Cross-checks: the time derivative of gamma against the covariant
    derivative of the metric velocity (absolute tolerance
    ``CONNECTION_RATE_TOLERANCE``), and the flow-specific heat equation
    for gamma (relative tolerance, needs the source when one acted).
    """
    times, states = _weighted_states(trajectory)
    grid = trajectory.grid
    phi_field = _source_field(grid, phi)

    c = len(times) // 2
    dt = dict(_centered_windows(times)).get(c)
    if dt is None:
        raise VerificationError("snapshot spacing around the center is not uniform")

    act = list(grid.active_directions)
    pkgs = {t: ChernPackage(grid, states[t]) for t in (c - 1, c, c + 1)}
    # the connection, paired over its live form slots only
    live = {t: grid.to_grid_first(p.active_gamma) for t, p in pkgs.items()}
    s_all = {
        t: pair_endo_forms(_active_block(p.ginv, act), p.g, p.ginv, live[t], live[t]).real
        for t, p in pkgs.items()
    }
    pkg = pkgs[c]
    a, a_live = pkg.gamma, live[c]
    ginv_live = _active_block(pkg.ginv, act)

    d_s = (s_all[c + 1] - s_all[c - 1]) / (2.0 * dt)
    lap_s = pkg.scalar_laplacian(s_all[c].astype(complex))
    lhs = d_s - lap_s

    d_a = (pkgs[c + 1].gamma - pkgs[c - 1].gamma) / (2.0 * dt)
    # rough Laplacian: the unbarred after the barred derivative, traced on
    # the active derivative slots; the barred slot is sliced first, since
    # the unbarred derivative does not correct it.  The unbarred derivative
    # mixes the form slot through gamma, so lap_a and heat_a are full.
    nb_a = pkg.covd_bar(a, "lul")
    lap_a = np.einsum(
        "...pq,...pqabc->...abc", ginv_live,
        pkg.covd(nb_a[..., act, :, :, :], "Llul")[..., act, :, :, :, :],
    )
    heat_a = d_a - lap_a

    def slot_norm(da, ginv, forms):
        # sum ginv[p, q] <da[p], da[q]>; only the active derivative slots are non-zero
        return sum(
            ginv[..., p, q]
            * pair_endo_forms(forms, pkg.g, pkg.ginv, da[..., p, :, :, :], da[..., q, :, :, :])
            for p in act for q in act
        ).real

    # the barred derivative leaves the form slot of a alone, the unbarred one does not
    norm_bar = slot_norm(nb_a[..., act, :, :], np.swapaxes(pkg.ginv, -1, -2), ginv_live)
    norm_unb = slot_norm(pkg.covd(a, "lul"), pkg.ginv, pkg.ginv)
    pair_block = (
        pair_endo_forms(pkg.ginv[..., act], pkg.g, pkg.ginv, heat_a, a_live)
        + pair_endo_forms(pkg.ginv[..., act, :], pkg.g, pkg.ginv, a_live, heat_a)
    )

    g_dot = (states[c + 1] - states[c - 1]) / (2.0 * dt)
    d_low = g_dot + pkg.second_ricci
    d_up = np.einsum("...mk,...kj,...jg->...mg", pkg.ginv, d_low, pkg.ginv)
    corr = (
        pair_endo_forms(_active_block(d_up, act), pkg.g, pkg.ginv, a_live, a_live)
        - pair_endo_forms(ginv_live, d_low, pkg.ginv, a_live, a_live)
        + pair_endo_forms(ginv_live, pkg.g, d_up, a_live, a_live)
    )

    rhs = -norm_bar - norm_unb + pair_block - corr
    blocks = [norm_bar, norm_unb, pair_block, corr, d_s, lap_s]
    scale = max(1e-30, *(float(np.abs(b).max()) for b in blocks))
    oracle = {**_time_oracle(dt, 1), "normalization": "relative-to-largest-term"}
    rep_main = _report(
        "s-evolution", np.abs(lhs - rhs) / scale, tolerance, grid,
        {**oracle, "referenceMetric": "flat"}, f"normalization scale {scale:.6e}",
    )

    n_gdot = pkg.covd(g_dot, "Ll")
    rate_rhs = np.einsum("...ag,...mgb->...mab", pkg.ginv, n_gdot)
    rep_rate = _report(
        "s-evolution-connection-rate", d_a - rate_rhs, CONNECTION_RATE_TOLERANCE, grid,
        _time_oracle(dt, 1),
    )

    # the curvature is non-zero only on its active (q, r) blocks
    w2 = np.einsum(
        "...pq,...rmp,...qrab->...mab", pkg.ginv[..., act], pkg.t_up[..., act, :, :],
        grid.to_grid_first(pkg.active_curvature), optimize=True,
    )
    q_endo = -0.5 * np.einsum("...ag,...gb->...ab", pkg.ginv, pkg.ttbar)
    heat_rhs = w2 + pkg.covd(q_endo, "ul")
    if phi_field is not None:
        phi_endo = np.einsum("...ag,...gb->...ab", pkg.ginv, phi_field)
        heat_rhs = heat_rhs - pkg.covd(phi_endo, "ul")
    heat_blocks = [heat_a, w2, heat_rhs]
    heat_scale = max(1e-30, *(float(np.abs(b).max()) for b in heat_blocks))
    rep_heat = _report(
        "s-evolution-connection-heat", np.abs(heat_a - heat_rhs) / heat_scale, tolerance,
        grid, oracle, f"normalization scale {heat_scale:.6e}",
    )
    return [rep_main, rep_rate, rep_heat]


SPATIAL_REGISTRY = {
    "tau": verify_tau_identity,
    "connection-difference": verify_connection_difference,
    "bianchi": verify_bianchi,
    "commutator": verify_commutator_convention,
    "quasilinear": verify_quasilinear_ricci,
    "stationarity": verify_stationarity,
}

EVOLUTION_REGISTRY = {
    "trh": verify_trh_evolution,
    "dilaton": verify_dilaton_evolution,
    "s-evolution": verify_S_evolution,
}
