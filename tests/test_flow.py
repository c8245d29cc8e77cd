"""Flow velocities, the weight chain, sources, and the integrator."""

import itertools

import numpy as np
import pytest

from iiblab import (
    ChernPackage,
    ConfigError,
    FORM_ANCHOR,
    FORM_WEIGHTED,
    StepControl,
    TorusGrid,
    anchor_velocity,
    flat_metric,
    run_flow,
    weighted_velocity,
)
from iiblab import flow
from iiblab.errors import DegeneracyError, SingularSystemError
from iiblab.flow import (
    POSITIVITY_FLOOR,
    STATUS_BLOWUP,
    STATUS_COMPLETED,
    STATUS_SINGULARITY,
    _anchor_system,
    _anchor_target,
    _trace_correction,
    induced_weighted_source,
    metric_from_weighted,
    weighted_from_metric,
)
from iiblab.forms import (
    hermitian_basis,
    matrix_to_one_one,
    sigma_coefficient,
    wedge,
    wedge_block,
    wedge_monomial,
)
from iiblab.metrics import (
    balanced_band_metric,
    fourier_scalar,
    hermitize,
    min_eigenvalue,
    random_band_metric,
    volume_norm_sq,
)
from probes import kahler_from_potential

GRID = TorusGrid(3, (0, 1), 8)
FLAT = flat_metric(GRID)


def _balanced(grid=GRID, amp=0.15):
    f = fourier_scalar(grid, [[1, 1, 0.0, -amp], [1, -1, 0.0, -amp]])
    return balanced_band_metric(grid, f)


def weighted_dot_from_metric_dot(pkg, g_dot):
    """The weight chain's velocity of ``w = norm * g`` from the velocity of
    the metric of ``pkg``, dw/dt = norm (dg/dt - 1/2 tr(g^-1 dg/dt) g); the
    reference the weighted flow's closed-form anchor source is held to."""
    u = np.sqrt(pkg.norm_sq)
    trace = np.einsum("...pa,...ap->...", pkg.ginv, g_dot)
    return u[..., None, None] * (g_dot - 0.5 * trace[..., None, None] * pkg.g)


def test_flat_is_a_fixed_point_of_both_velocities():
    pkg = ChernPackage(GRID, FLAT)
    assert np.all(anchor_velocity(pkg, None) == 0.0)
    w = weighted_from_metric(FLAT)
    assert np.all(weighted_velocity(GRID, w, None) == 0.0)


def test_flat_constant_source_velocity_frozen():
    """A sigma-basis point source moves exactly the transverse diagonal.

    At the flat metric the anchor equation with source eps at entry
    (0, 0) gives d/dt g = eps * diag(0, -1, -1), with no discretization
    error at all; this pins the sigma-basis wiring bit for bit.
    """
    eps = 0.3
    psi = np.zeros((3, 3), dtype=complex)
    psi[0, 0] = eps
    pkg = ChernPackage(GRID, FLAT)
    g_dot = anchor_velocity(pkg, psi)
    want = eps * np.diag([0.0, -1.0, -1.0])
    assert np.abs(g_dot - want).max() == 0.0


def test_induced_weighted_source_frozen_at_flat():
    eps = 0.25
    psi = np.zeros((3, 3), dtype=complex)
    psi[0, 0] = eps
    w = weighted_from_metric(FLAT)
    phi = induced_weighted_source(w, psi)
    want = np.zeros((3, 3), dtype=complex)
    want[0, 0] = -eps
    assert np.abs(phi - want).max() < 1e-13
    # and a zero source induces exactly zero
    assert np.all(induced_weighted_source(w, np.zeros((3, 3))) == 0.0)


# worst relative gaps measured over axes (0, 1) and (0, 2), seeds 0-3:
# 9.4e-16 (n = 3), 6.7e-15 (n = 4), 7.0e-14 (n = 5), all from the LU solve
CLOSED_FORM_BOUND = {3: 2e-15, 4: 1e-14, 5: 1e-13}


@pytest.mark.parametrize("n, axes", [
    (3, (0, 1)), (3, (0, 2)), (4, (0, 1)), (4, (0, 2)), (5, (0, 1)), (5, (0, 2)),
])
def test_induced_weighted_source_is_the_pushed_anchor_source(n, axes):
    """-w psi w / (n-2)! is the source term of the anchor velocity, LU-solved
    and pushed through the weight chain, node by node, for a psi that
    varies over the grid."""
    grid = TorusGrid(n, axes, 8)
    # scaled away from det g = 1, so a wrong power of the norm cannot hide
    g = 2.5 * random_band_metric(grid, seed=n, amplitude=0.2)
    rng = np.random.default_rng(n)
    psi = hermitize(rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    pkg = ChernPackage(grid, g)
    pushed = weighted_dot_from_metric_dot(
        pkg, anchor_velocity(pkg, psi) - anchor_velocity(pkg, None))
    got = -induced_weighted_source(weighted_from_metric(g), psi)
    assert np.abs(got - pushed).max() <= CLOSED_FORM_BOUND[n] * np.abs(pushed).max()


def test_weight_chain_roundtrip():
    g = random_band_metric(GRID, seed=2)
    w = weighted_from_metric(g)
    back = metric_from_weighted(w)
    assert np.abs(back - g).max() < 1e-13


@pytest.mark.parametrize("n", [3, 4, 5])
def test_weight_chain_inverts_at_every_dimension(n):
    grid = TorusGrid(n, (0, 1), 8)
    # scaled away from det g = 1, so a wrong (n-2) exponent cannot hide
    g = 2.5 * random_band_metric(grid, seed=n, amplitude=0.2)
    rng = np.random.default_rng(n)
    g_dot = hermitize(rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))

    w = weighted_from_metric(g)
    assert np.abs(metric_from_weighted(w) - g).max() <= 1e-12 * np.abs(g).max()

    # reference inverse: dg/dt = norm_w^{2/(n-2)} (dw/dt - tr(w^-1 dw/dt)/(n-2) w)
    w_dot = weighted_dot_from_metric_dot(ChernPackage(grid, g), g_dot)
    factor = volume_norm_sq(w) ** (1.0 / (n - 2))
    trace = np.einsum("...pa,...ap->...", np.linalg.inv(w), w_dot)
    back = factor[..., None, None] * (w_dot - (trace[..., None, None] / (n - 2)) * w)
    assert np.abs(back - g_dot).max() <= 1e-12 * np.abs(g_dot).max()


def test_weight_chain_rejects_n2():
    with pytest.raises(DegeneracyError):
        metric_from_weighted(np.eye(2))


def test_anchor_flow_refuses_unbalanced_data():
    x, y = GRID.coordinate(0), GRID.coordinate(1)
    g = kahler_from_potential(GRID, 0.05 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    with pytest.raises(ConfigError):
        run_flow(GRID, g, FORM_ANCHOR, 1e-5, StepControl(dt=1e-5))


def test_weighted_flow_runs_off_the_balanced_locus():
    # the Kahler data the anchor flow refuses is fine for the weighted flow
    x, y = GRID.coordinate(0), GRID.coordinate(1)
    g = kahler_from_potential(GRID, 0.05 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    traj = run_flow(GRID, g, FORM_WEIGHTED, 2e-5, StepControl(dt=1e-5))
    assert traj.status == STATUS_COMPLETED
    assert traj.steps_taken == 2
    assert traj.times[-1] == pytest.approx(2e-5)


def test_source_argument_validation():
    psi = np.zeros((3, 3))
    phi = np.zeros(GRID.shape + (3, 3))
    with pytest.raises(ConfigError):
        run_flow(GRID, FLAT, FORM_ANCHOR, 1e-5, StepControl(dt=1e-5),
                 weighted_source=phi)
    with pytest.raises(ConfigError):
        run_flow(GRID, FLAT, FORM_WEIGHTED, 1e-5, StepControl(dt=1e-5),
                 anchor_source=psi, weighted_source=phi)
    with pytest.raises(ConfigError):
        run_flow(GRID, FLAT, "other", 1e-5, StepControl(dt=1e-5))


def test_trajectory_bookkeeping():
    traj = run_flow(GRID, _balanced(), FORM_WEIGHTED, 5e-5,
                    StepControl(dt=1e-5), snapshot_every=2)
    assert traj.status == STATUS_COMPLETED
    assert traj.steps_taken == 5
    # cadence 2 stores steps 0, 2, 4 plus the final off-cadence state
    assert [round(t / 1e-5) for t in traj.times] == [0, 2, 4, 5]
    assert traj.steps == [0, 2, 4, 5]
    g_end = traj.metric_at(len(traj.times) - 1)
    assert g_end.shape == GRID.shape + (3, 3)


@pytest.mark.parametrize("formulation", [FORM_ANCHOR, FORM_WEIGHTED])
def test_states_are_exactly_hermitian(formulation):
    # 1e-13 off Hermitian: inside the tolerance every package accepts
    g0 = _balanced()
    g0[..., 0, 1] += 1e-13
    traj = run_flow(GRID, g0, formulation, 2e-5, StepControl(dt=1e-5))
    for y in (traj.snapshots[0], traj.snapshots[-1]):
        assert np.array_equal(y, np.conj(np.swapaxes(y, -1, -2)))


def test_non_finite_stage_is_a_blowup():
    # a source of 1e308 overflows the second stage state to -inf
    src = np.zeros(GRID.shape + (3, 3), dtype=complex)
    src[..., 0, 0] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        traj = run_flow(GRID, FLAT, FORM_WEIGHTED, 4.0, StepControl(dt=4.0),
                        weighted_source=src)
    assert traj.status == STATUS_BLOWUP and traj.steps_taken == 0
    assert np.array_equal(traj.snapshots[-1], traj.snapshots[0])


def test_step_budget_counts_the_last_step():
    # t_final / dt = 5 steps: a budget of exactly 5 is enough, 4 is not
    traj = run_flow(GRID, _balanced(), FORM_WEIGHTED, 5e-5,
                    StepControl(dt=1e-5, max_steps=5))
    assert traj.status == STATUS_COMPLETED
    assert traj.steps_taken == 5
    short = run_flow(GRID, _balanced(), FORM_WEIGHTED, 5e-5,
                     StepControl(dt=1e-5, max_steps=4))
    assert short.status == STATUS_BLOWUP
    assert "step budget" in short.stop_detail
    assert short.steps_taken == 4
    # the budget stop keeps every state it computed, the last one included
    assert short.times == pytest.approx([0.0, 1e-5, 2e-5, 3e-5, 4e-5])
    assert short.steps == [0, 1, 2, 3, 4]
    for a, b in zip(short.snapshots, traj.snapshots):
        assert np.array_equal(a, b)


def test_overflowing_step_is_a_blowup():
    # every stage is finite, but k1 + 2 k2 + 2 k3 + k4 = 6 * 6e307 overflows
    src = np.zeros((3, 3), dtype=complex)
    src[0, 0] = -6e307
    with np.errstate(over="ignore", invalid="ignore"):
        traj = run_flow(GRID, FLAT, FORM_WEIGHTED, 1e-3, StepControl(dt=1e-3),
                        weighted_source=src)
    assert traj.status == STATUS_BLOWUP
    assert traj.stop_detail == "non-finite state"
    assert traj.steps_taken == 0
    assert traj.times == [0.0] and len(traj.snapshots) == 1


def test_step_below_the_positivity_floor_is_refused():
    # dw/dt = -phi on flat data: the step lands w[0, 0] at half the floor
    phi = np.diag([1.0, 0.0, 0.0]).astype(complex)
    dt = 1.0 - POSITIVITY_FLOOR / 2
    traj = run_flow(GRID, FLAT, FORM_WEIGHTED, dt, StepControl(dt=dt),
                    weighted_source=phi)
    assert traj.status == STATUS_SINGULARITY
    assert traj.stop_detail == "min eigenvalue 5.000e-09 at t=1"
    assert traj.steps_taken == 0
    assert traj.times == [0.0] and len(traj.snapshots) == 1
    assert np.array_equal(traj.snapshots[0], weighted_from_metric(FLAT))


def test_step_to_an_indefinite_weighted_state_is_refused(monkeypatch):
    """A step whose w has no Cholesky factor (so no det w) stops at the
    state's floor, and the last kept state is the one before it."""
    def indefinite_step(f, y, dt):
        out = y.copy()
        out[..., 0, 0] = -0.5
        return out

    monkeypatch.setattr(flow, "_rk4_step", indefinite_step)
    traj = run_flow(GRID, FLAT, FORM_WEIGHTED, 1e-3, StepControl(dt=1e-3))
    assert traj.status == STATUS_SINGULARITY
    assert traj.stop_detail == "min eigenvalue -5.000e-01 at t=0.001"
    assert traj.steps_taken == 0
    assert traj.times == [0.0] and len(traj.snapshots) == 1


@pytest.mark.parametrize("formulation, steps", [(FORM_WEIGHTED, 7), (FORM_ANCHOR, 10)])
def test_adaptive_step_is_the_parabolic_bound(formulation, steps):
    """Without dt each step is cfl * h^2 * (smallest eigenvalue of the state),
    cut to what is left of the run."""
    grid = TorusGrid(3, (0, 1), 32)
    control = StepControl()
    t_final = 1e-3
    traj = run_flow(grid, _balanced(grid), formulation, t_final, control)
    assert traj.status == STATUS_COMPLETED
    assert traj.steps_taken == steps and traj.steps == list(range(steps + 1))
    for t, y, t_next in zip(traj.times, traj.snapshots, traj.times[1:]):
        bound = control.cfl * grid.spacing ** 2 * min_eigenvalue(y)
        assert t_next == t + min(bound, t_final - t)
    assert traj.times[-1] == pytest.approx(t_final, rel=1e-15)


def test_singularity_stop_keeps_last_positive_state():
    psi = np.zeros((3, 3), dtype=complex)
    psi[0, 0] = 1.0  # shrinks the transverse block toward zero
    traj = run_flow(GRID, FLAT, FORM_WEIGHTED, 2.0, StepControl(dt=0.01),
                    anchor_source=psi)
    assert traj.status == STATUS_SINGULARITY
    last = traj.snapshots[-1]
    assert np.linalg.eigvalsh(last).min() > 0.0
    assert traj.times[-1] < 2.0


@pytest.mark.parametrize("formulation", [FORM_WEIGHTED, FORM_ANCHOR])
@pytest.mark.parametrize("axis", [0, 2])
@pytest.mark.parametrize("dt", [0.01, 0.003])
def test_singularity_stop_keeps_a_metric_above_the_floor(formulation, axis, dt):
    """psi = E[axis, axis] on flat data shrinks the other two directions of
    the metric as 1 - t, so the flow ends at T = 1.  Both formulations stop
    there with a kept metric above the floor; the weighted state w has its
    smallest eigenvalue at 1 throughout, so its gate is the metric's."""
    grid = TorusGrid(3, (0, 1), 4)  # the flow is constant in space
    psi = np.zeros((3, 3), dtype=complex)
    psi[axis, axis] = 1.0
    traj = run_flow(grid, flat_metric(grid), formulation, 2.0, StepControl(dt=dt),
                    anchor_source=psi)
    assert traj.status == STATUS_SINGULARITY
    assert min_eigenvalue(traj.metric_at(len(traj.times) - 1)) >= POSITIVITY_FLOOR
    # not every kept t is <= 1: at dt = 0.003 the weighted run keeps t = 1.002
    assert traj.times[-1] <= 1.0 + dt
    if formulation == FORM_WEIGHTED:
        assert traj.stop_detail.startswith("metric min eigenvalue")
        assert traj.stop_detail.endswith(f"at t={traj.times[-1] + dt:.6g}")


def test_formulations_agree_over_short_horizon():
    # agreement is limited by spatial truncation, not dt, so use the
    # resolution where the family's exponentials are fully resolved
    grid = TorusGrid(3, (0, 1), 16)
    g0 = _balanced(grid)
    kwargs = dict(control=StepControl(dt=1e-5), snapshot_every=10)
    a = run_flow(grid, g0, FORM_ANCHOR, 1e-4, **kwargs)
    w = run_flow(grid, g0, FORM_WEIGHTED, 1e-4, **kwargs)
    ga = a.metric_at(len(a.times) - 1)
    gw = w.metric_at(len(w.times) - 1)
    assert np.abs(ga - gw).max() < 1e-10


def _final_gap(grid, g0, t_final, **kwargs):
    """Max relative gap between the final metrics of the two formulations."""
    a = run_flow(grid, g0, FORM_ANCHOR, t_final, StepControl(dt=1e-5), **kwargs)
    w = run_flow(grid, g0, FORM_WEIGHTED, t_final, StepControl(dt=1e-5), **kwargs)
    assert a.status == w.status == STATUS_COMPLETED
    ga = a.metric_at(len(a.times) - 1)
    gw = w.metric_at(len(w.times) - 1)
    return np.abs(ga - gw).max() / np.abs(ga).max()


@pytest.mark.parametrize("n", [4, 5])
def test_formulations_agree_beyond_three_dimensions(n):
    # checks the (n-2) weight-chain exponent and the (n-1) clock factor
    grid = TorusGrid(n, (0, 1), 32)
    assert _final_gap(grid, _balanced(grid), 5e-5) <= 1e-12


def _anchor_source(n=3):
    psi = np.zeros((n, n), dtype=complex)
    psi[0, 0], psi[1, 1] = 0.2, -0.1
    psi[0, 1], psi[1, 0] = 0.05 + 0.03j, 0.05 - 0.03j
    return psi


def test_formulations_agree_with_an_anchor_source():
    """The weight chain carries an anchor source: the anchor velocity pushed
    through it and integrated as w, with the steps of the anchor run, ends
    at the anchor run's metric."""
    grid = TorusGrid(3, (0, 1), 16)
    g0, psi = _balanced(grid), _anchor_source()
    a = run_flow(grid, g0, FORM_ANCHOR, 5e-5, StepControl(dt=1e-5), anchor_source=psi)
    assert a.status == STATUS_COMPLETED

    def pushed(w):
        pkg = ChernPackage(grid, metric_from_weighted(w))
        return hermitize(weighted_dot_from_metric_dot(pkg, anchor_velocity(pkg, psi)))

    w = hermitize(weighted_from_metric(g0))
    for dt in np.diff(a.times):
        w = flow._rk4_step(pushed, w, dt)
    ga = a.metric_at(len(a.times) - 1)
    # measured 4.9e-16; the source-free gap between the formulations here is 1.2e-12
    assert np.abs(ga - metric_from_weighted(w)).max() / np.abs(ga).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_formulations_agree_with_an_anchor_source_in_closed_form(n):
    # measured 4.9e-16 (n = 3) and 4.5e-16 (n = 4); without the source
    # 6.1e-16 and 4.5e-16
    grid = TorusGrid(n, (0, 1), 32)
    assert _final_gap(grid, _balanced(grid), 5e-5, anchor_source=_anchor_source(n)) <= 1e-12


def test_weighted_stages_take_no_anchor_solve(monkeypatch):
    """With an anchor source the weighted stages neither solve the anchor
    system nor rebuild the metric, and the stop gate of an accepted step
    decides the metric's floor from w alone."""
    built = []

    def no_solve(*args):
        raise AssertionError("weighted stage called anchor_velocity")

    def counted(w):
        built.append(w)
        return metric_from_weighted(w)

    monkeypatch.setattr(flow, "anchor_velocity", no_solve)
    monkeypatch.setattr(flow, "metric_from_weighted", counted)
    traj = run_flow(GRID, _balanced(), FORM_WEIGHTED, 2e-5, StepControl(dt=1e-5),
                    anchor_source=_anchor_source())
    assert traj.status == STATUS_COMPLETED and traj.steps_taken == 2
    assert built == []


def test_non_hermitian_anchor_source_is_rejected():
    psi = _anchor_source()
    psi[0, 1] += 1e-6
    with pytest.raises(ConfigError, match="Hermitian"):
        anchor_velocity(ChernPackage(GRID, _balanced()), psi)
    for formulation in (FORM_ANCHOR, FORM_WEIGHTED):
        with pytest.raises(ConfigError, match="Hermitian"):
            run_flow(GRID, _balanced(), formulation, 2e-5, StepControl(dt=1e-5),
                     anchor_source=psi)


def test_nearly_hermitian_anchor_source_acts_as_its_hermitian_part():
    psi = _anchor_source()
    psi[0, 1] += 1e-13
    pkg = ChernPackage(GRID, random_band_metric(GRID, seed=3, amplitude=0.2))
    got = anchor_velocity(pkg, psi)
    want = anchor_velocity(pkg, hermitize(psi))
    # measured gap 0 at n = 3 and 4, seeds 0-3, constant and field sources
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def _structure_constant_matrix(pkg):
    """The anchor matrix A assembled entry by entry from wedge signs and
    sigma coefficients, as the flow did before reading it off the form
    algebra; kept only here, as the reference."""
    grid, n = pkg.grid, pkg.grid.n
    wn2, _ = _anchor_target(pkg, None)
    wn1 = wedge(wn2, matrix_to_one_one(grid, pkg.g))
    wn1_matrix = np.zeros(grid.shape + (n, n), dtype=complex)
    for a, b in itertools.product(range(n), range(n)):
        key = tuple(m for m in range(n) if m != a), tuple(m for m in range(n) if m != b)
        wn1_matrix[..., a, b] = wn1.comps.get(key, 0.0) / sigma_coefficient(n, a, b)
    A = np.zeros(grid.shape + (n * n, n * n), dtype=complex)
    lowers = list(itertools.combinations(range(n), n - 2))
    for j, k, J, K in itertools.product(range(n), range(n), lowers, lowers):
        merged, sign = wedge_monomial(((j,), (k,)), (J, K))
        w = wn2.comps.get((J, K))
        if merged is None or w is None:
            continue
        a = next(m for m in range(n) if m not in merged[0])
        b = next(m for m in range(n) if m not in merged[1])
        A[..., a * n + b, k * n + j] += 1j * sign / sigma_coefficient(n, a, b) * w
    A *= float(n - 1)
    trace_row = np.swapaxes(pkg.ginv, -1, -2).reshape(grid.shape + (n * n,))
    A -= 0.5 * wn1_matrix.reshape(grid.shape + (n * n, 1)) * trace_row[..., None, :]
    A *= np.sqrt(pkg.norm_sq)[..., None, None]
    return A


@pytest.mark.parametrize("n, axes", [
    (3, (0, 1)), (3, (0, 2)),
    (4, (0, 1)), (4, (0, 2)), (4, (0, 1, 2, 3)),
    (5, (0, 1)), (5, (0, 2)), (5, (0, 1, 2, 3)),
])
def test_anchor_matrix_equals_structure_constant_assembly(n, axes):
    grid = TorusGrid(n, axes, 4)
    pkg = ChernPackage(grid, random_band_metric(grid, seed=7, amplitude=0.2))
    W, _ = _anchor_system(pkg, None)
    # A = s W P from the pieces the flow solves with: s = (n-1) norm and the
    # trace block P = I - g v^T / (2(n-1)), with v . x = tr(g^-1 T x)
    T, T_inv = hermitian_basis(n)
    flat = grid.shape + (n * n,)
    g_coords = (pkg.g.reshape(flat) @ T_inv.T).real
    v = (np.swapaxes(pkg.ginv, -1, -2).reshape(flat) @ T).real
    P = np.eye(n * n) - g_coords[..., :, None] * v[..., None, :] / (2 * (n - 1))
    A = ((n - 1) * np.sqrt(pkg.norm_sq))[..., None, None] * (W @ P)
    # the reference in the Hermitian basis: T^-1 A_ref T, real to round-off
    want = T_inv @ _structure_constant_matrix(pkg) @ T
    # worst measured over these cases, R = 4 and 8, seeds 0-3 and 7: 1.0e-15
    assert np.abs(A - want).max() <= 2e-15 * np.abs(want).max()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_trace_correction_inverts_the_trace_block(n):
    """X = Z + tr(g^-1 Z)/(n-2) g solves P X = X - tr(g^-1 X)/(2(n-1)) g = Z."""
    grid = TorusGrid(n, (0, 1), 8)
    pkg = ChernPackage(grid, 2.5 * random_band_metric(grid, seed=n, amplitude=0.2))
    rng = np.random.default_rng(n)
    z = hermitize(rng.standard_normal(pkg.g.shape) + 1j * rng.standard_normal(pkg.g.shape))
    x = _trace_correction(pkg, z)
    trace = np.einsum("...pa,...ap->...", np.linalg.inv(pkg.g), x)
    back = x - (trace / (2 * (n - 1)))[..., None, None] * pkg.g
    # worst measured over n = 3, 4, 5 and seeds 0-3: 4.4e-16
    assert np.abs(back - z).max() <= 1e-15 * np.abs(z).max()


@pytest.mark.parametrize("n", [3, 4])
def test_anchor_velocity_solves_only_the_wedge_block(monkeypatch, n):
    """One batched LU solve per velocity, of the wedge block read off the
    form algebra (up to a per-node scale), and no closed-form inverse."""
    grid = TorusGrid(n, (0, 1), 8)
    g = random_band_metric(grid, seed=1, amplitude=0.2)
    solve, solved, inverted = np.linalg.solve, [], []

    def spy_solve(a, b):
        solved.append(np.array(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    monkeypatch.setattr(np.linalg, "inv", lambda *args: inverted.append(args))
    pkg = ChernPackage(grid, g)
    anchor_velocity(pkg, None)
    assert len(solved) == 1 and not inverted
    W = wedge_block(_anchor_target(pkg, None)[0])
    assert solved[0].shape == grid.shape + (n * n, n * n)
    scale = (solved[0] * W).sum(axis=(-1, -2)) / (W * W).sum(axis=(-1, -2))
    assert np.abs(solved[0] - scale[..., None, None] * W).max() <= 1e-15 * np.abs(W).max()

    # one RK4 step of the flow takes four velocities, so four solves
    run_flow(grid, _balanced(grid), FORM_ANCHOR, 1e-5, StepControl(dt=1e-5))
    assert len(solved) == 5 and not inverted


def test_singular_wedge_block_fails_the_solve(monkeypatch):
    def singular(theta):
        W = wedge_block(theta)
        W[..., :, 0] = 0.0
        return W

    monkeypatch.setattr(flow, "wedge_block", singular)
    with pytest.raises(SingularSystemError, match="anchor velocity solve failed"):
        anchor_velocity(ChernPackage(GRID, _balanced()))
    traj = run_flow(GRID, _balanced(), FORM_ANCHOR, 2e-5, StepControl(dt=1e-5))
    assert traj.status == STATUS_SINGULARITY and traj.steps_taken == 0
    assert traj.stop_detail.startswith("anchor velocity solve failed")


def test_inaccurate_solution_fails_the_residual_gate(monkeypatch):
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-8))
    with pytest.raises(SingularSystemError, match="anchor velocity solve lost accuracy"):
        anchor_velocity(ChernPackage(GRID, _balanced()))
    traj = run_flow(GRID, _balanced(), FORM_ANCHOR, 2e-5, StepControl(dt=1e-5))
    assert traj.status == STATUS_SINGULARITY and traj.steps_taken == 0
    assert traj.stop_detail.startswith("anchor velocity solve lost accuracy")
