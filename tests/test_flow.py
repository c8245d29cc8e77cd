"""Flow velocities, the weight chain, sources, and the integrator."""

import itertools
import warnings
from unittest import mock

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
    _relative_residual,
    _trace_correction,
    induced_weighted_source,
    metric_from_weighted,
    weighted_from_metric,
)
from iiblab.forms import hermitian_basis, sigma_coefficient, wedge_block, wedge_monomial
from iiblab.metrics import (
    balanced_band_metric,
    fourier_scalar,
    hermitize,
    MetricFactor,
    min_eigenvalue,
    random_band_metric,
    volume_norm_sq,
)
from probes import (
    dense_weighted_velocity,
    diagonal_metric,
    full_relative_residual,
    full_wedge,
    kahler_from_potential,
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
FLAT = flat_metric(GRID)


def _balanced(grid=GRID, amp=0.15):
    extra = [1] * (len(grid.active_axes) - 2)  # any further active axes vary too
    f = fourier_scalar(grid, [[1, 1, *extra, 0.0, -amp], [1, -1, *extra, 0.0, -amp]])
    return balanced_band_metric(grid, f)


def weighted_dot_from_metric_dot(pkg, g_dot):
    """The weight chain's velocity of ``w = norm * g`` from the velocity of
    the metric of ``pkg``, dw/dt = norm (dg/dt - 1/2 tr(g^-1 dg/dt) g); the
    reference the weighted flow's closed-form anchor source is held to."""
    u = np.sqrt(pkg.norm_sq)
    trace = np.einsum("...pa,...ap->...", pkg.ginv, g_dot)
    return u[..., None, None] * (g_dot - 0.5 * trace[..., None, None] * pkg.g)


@pytest.mark.parametrize("axes", [(0, 1), (0, 1, 2, 3)])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_weighted_run_keeps_the_balanced_family_diagonal(n, axes):
    """Every weighted step keeps the off-diagonal slots of the README family
    exact zeros, so the live slots stay the diagonal.  The family varies
    along direction 0 only, as its balanced condition needs (a diagonal
    metric that also varies along direction 1 gains live slots: see the
    test below)."""
    grid = TorusGrid(n, axes, 8)
    still = [0] * (len(axes) - 2)
    f = fourier_scalar(grid, [[1, 1, *still, 0.0, -0.15], [1, -1, *still, 0.0, -0.15]])
    traj = run_flow(grid, balanced_band_metric(grid, f), FORM_WEIGHTED, 5e-3, StepControl(dt=1e-3))
    assert traj.status == STATUS_COMPLETED and traj.steps_taken == 5
    off_diagonal = ~np.eye(n, dtype=bool)
    for state in traj.snapshots:
        assert not state[..., off_diagonal].any()
        assert np.array_equal(MetricFactor(state).live, np.eye(n, dtype=bool))


def test_two_direction_diagonal_metric_gains_a_live_slot():
    """A diagonal w varying along two active directions has a live
    ttbar[0, 1]: one step makes w[0, 1] live, bit for bit as the dense loops
    over every slot make it."""
    grid, dt = TorusGrid(3, (0, 2), 8), 1e-3
    g = diagonal_metric(grid, 1.0)
    traj = run_flow(grid, g, FORM_WEIGHTED, dt, StepControl(dt=dt))
    w = traj.snapshots[0]
    assert np.array_equal(MetricFactor(w).live, np.eye(3, dtype=bool))
    want = flow._rk4_step(lambda y: dense_weighted_velocity(grid, y), w, dt)
    assert traj.snapshots[-1].tobytes() == want.tobytes()
    live = MetricFactor(want).live
    assert live[0, 1] and live[1, 0] and not live[0, 2] and not live[1, 2]


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
    sigma coefficients, on omega^{n-2} from the form-algebra oracle, as the
    flow did before reading it off compiled tables; kept only here, as the
    reference."""
    grid, n = pkg.grid, pkg.grid.n
    omega = matrix_to_one_one(grid, pkg.g)
    wn2 = wedge_power(omega, n - 2)
    wn1 = wedge(wn2, omega)
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
    W = scatter_blocks(_anchor_system(pkg, None)[0])
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
    """X = Z + tr(g^-1 Z)/(n-2) g solves P X = X - tr(g^-1 X)/(2(n-1)) g = Z,
    with the trace read from b = W z as tr(M(b) g) / ((n-1)! det g)."""
    grid = TorusGrid(n, (0, 1), 8)
    pkg = ChernPackage(grid, 2.5 * random_band_metric(grid, seed=n, amplitude=0.2))
    wn2, _ = _anchor_target(pkg, None)
    rng = np.random.default_rng(n)
    z = rng.standard_normal(grid.shape + (n * n,))
    b = (full_wedge(grid, wn2) @ z[..., None])[..., 0]
    x = _trace_correction(pkg, z, b)
    T, _ = hermitian_basis(n)
    Z = (z @ T.T).reshape(pkg.g.shape)
    trace = np.einsum("...pa,...ap->...", np.linalg.inv(pkg.g), x)
    back = x - (trace / (2 * (n - 1)))[..., None, None] * pkg.g
    # worst measured over n = 3, 4, 5 and seeds n to n + 3: 2.7e-16
    assert np.abs(back - Z).max() <= 1e-15 * np.abs(Z).max()


def _one_live_pair(grid, j=0, k=1):
    """The balanced family's diagonal metric with one off-diagonal pair
    (j, k), (k, j) taken from a random metric: W splits into several
    coupled blocks, and into 1 x 1 blocks as well from n = 4."""
    g, r = _balanced(grid), random_band_metric(grid, seed=2, amplitude=0.2)
    g[..., j, k], g[..., k, j] = r[..., j, k], r[..., k, j]
    return g


def _wedge_of(pkg):
    """The whole W, as the oracle, and its blocks as :func:`anchor_velocity`
    reads them."""
    wn2, _ = _anchor_target(pkg, None)
    return full_wedge(pkg.grid, wn2), wedge_block(pkg.grid, wn2)


@pytest.mark.parametrize("n", [3, 4])
def test_anchor_velocity_solves_only_the_wedge_block(monkeypatch, n):
    """One batched LU solve per coupled block of W, on its principal
    submatrix (up to a per-node scale), and no closed-form inverse: the
    whole W on a random metric, which couples every coordinate."""
    grid = TorusGrid(n, (0, 1), 8)
    solve, solved, inverted = np.linalg.solve, [], []

    def spy_solve(a, b):
        solved.append(np.array(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    monkeypatch.setattr(np.linalg, "inv", lambda *args: inverted.append(args))
    random = random_band_metric(grid, seed=1, amplitude=0.2)
    for g in (random, _balanced(grid), _one_live_pair(grid)):
        pkg = ChernPackage(grid, g)
        solved.clear()
        anchor_velocity(pkg, None)
        W, (coupled, (singles, _)) = _wedge_of(pkg)
        assert len(solved) == len(coupled) and not inverted
        if g is random:  # one block: the one solve of the whole W
            assert solved[0].shape == grid.shape + (n * n, n * n) and not singles.size
        for sub, (block, _) in zip(solved, coupled):
            want = W[..., block[:, None], block].reshape(grid.shape + (-1,))
            assert sub.shape == grid.shape + (len(block), len(block))
            # the scale at a node is the ratio at its largest entry, which is
            # exactly 1 for W itself; a least-squares fit rounds at n = 4
            pivot = np.abs(want).argmax(axis=-1)[..., None]
            sub = sub.reshape(want.shape)
            scale = np.take_along_axis(sub, pivot, -1) / np.take_along_axis(want, pivot, -1)
            assert np.abs(sub - scale * want).max() <= 1e-15 * np.abs(want).max()

    # one RK4 step of the flow takes four velocities; the balanced family's
    # W has one coupled n x n block, so four solves
    solved.clear()
    run_flow(grid, _balanced(grid), FORM_ANCHOR, 1e-5, StepControl(dt=1e-5))
    assert [a.shape[-1] for a in solved] == [n] * 4 and not inverted


def _block_and_dense(pkg):
    """Z = T z from the block solve of :func:`anchor_velocity`, and from one
    dense ``np.linalg.solve`` of the whole W.  Each entry of T z is one
    coordinate of z or two of them as real and imaginary part, so Z is
    exact in z."""
    seen = []
    with mock.patch.object(flow, "_trace_correction", lambda pkg, z, b: seen.append(z) or z):
        anchor_velocity(pkg, None)
    W, _ = _wedge_of(pkg)
    _, b = _anchor_system(pkg, None)
    T, _ = hermitian_basis(pkg.grid.n)
    return ((seen[0] @ T.T).reshape(pkg.g.shape),
            (np.linalg.solve(W, b[..., None])[..., 0] @ T.T).reshape(pkg.g.shape))


@pytest.mark.parametrize("axes", [(0, 1), (0, 2), (0, 1, 2, 3)])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_block_solve_matches_the_dense_solve_on_the_balanced_family(n, axes):
    grid = TorusGrid(n, axes, 4)
    pkg = ChernPackage(grid, _balanced(grid))
    _, (coupled, (singles, _)) = _wedge_of(pkg)
    # the diagonal of g couples the diagonal coordinates; the rest stand alone
    assert [list(block) for block, _ in coupled] == [[j * n + j for j in range(n)]]
    assert singles.size == n * n - n
    got, want = _block_and_dense(pkg)
    if n == 3:  # measured bit-identical at R = 4 and 8, amplitudes 0.05-0.3
        assert np.array_equal(got, want)
    # worst measured at R = 4 and 8, amplitudes 0.05-0.3: 2.0e-16 (n = 5, axes (0, 1, 2, 3))
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_block_solve_matches_the_dense_solve_with_one_live_pair(n):
    grid = TorusGrid(n, (0, 1), 4)
    pkg = ChernPackage(grid, _one_live_pair(grid))
    _, (coupled, (singles, _)) = _wedge_of(pkg)
    assert len(coupled) == n - 1 and singles.size == (n - 2) * (n - 3)
    got, want = _block_and_dense(pkg)
    if n == 3:  # measured bit-identical at R = 4 and 8, pairs (0, 1), (1, 2), (0, 2)
        assert np.array_equal(got, want)
    # worst measured over those cases: 1.6e-18 (n = 4)
    assert np.abs(got - want).max() <= 1e-16 * np.abs(want).max()


def _singular_block(grid, theta):
    """wedge_block with a zero column in its first coupled block."""
    coupled, pivots = wedge_block(grid, theta)
    coupled[0][1][..., :, 0] = 0.0
    return coupled, pivots


def _assert_gate_is_the_full_residual(pkg):
    """The block-by-block gate value equals the whole W's, both relative to
    the same scale max(max |b|, max |W| max |z|): on the solution, and on it
    moved by 1e-6 max |z| in one coordinate of a coupled block or of a 1 x 1
    block, which then holds the largest residual."""
    W, system = _wedge_of(pkg)
    _, b = _anchor_system(pkg, None)
    z = np.linalg.solve(W, b[..., None])[..., 0]
    coupled, (singles, _) = system
    for at in [None, coupled[0][0][-1]] + ([singles[-1]] if singles.size else []):
        trial = z.copy()
        if at is not None:
            trial[..., at] += 1e-6 * np.abs(z).max()
        want = full_relative_residual(W, b, trial)
        assert at is None or want > 1e-8
        # worst measured, n = 3-5: 9.6e-35 on the balanced family and one live
        # pair at R = 4 and 8, 4.0e-16 over 400 zero patterns as below
        assert abs(_relative_residual(system, b, trial) - want) <= 1e-15


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("family", ["balanced", "one live pair"])
def test_block_gate_equals_the_full_w_residual(n, family):
    grid = TorusGrid(n, (0, 1), 4)
    g = _balanced(grid) if family == "balanced" else _one_live_pair(grid)
    _assert_gate_is_the_full_residual(ChernPackage(grid, g))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_anchor_run_computes_no_inverse_metric(monkeypatch, n):
    """The anchor right-hand side reads tr(g^-1 Z) from b and det g, and
    omega^{n-2} from minors of g, so an anchor run, its g0 balanced gate
    included, never builds MetricFactor.ginv nor calls an inverse or a
    determinant routine.  At n >= 4 omega^{n-2} is a true power of omega:
    a route through the inverse metric (Jacobi's identity for the minors)
    would show here."""
    built = []
    ginv = MetricFactor.ginv

    def spy(factor):
        built.append(factor)
        return ginv.func(factor)

    monkeypatch.setattr(MetricFactor, "ginv", property(spy))
    for name in ("inv", "det"):
        routine = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, r=routine: built.append(a) or r(*a))
    grid = TorusGrid(n, (0, 1), 8)
    traj = run_flow(grid, _balanced(grid), FORM_ANCHOR, 2e-5, StepControl(dt=1e-5))
    assert traj.status == STATUS_COMPLETED and traj.steps_taken == 2 and not built
    run_flow(grid, _balanced(grid), FORM_WEIGHTED, 1e-5, StepControl(dt=1e-5))
    assert built  # the spy sees the weighted right-hand side's inverse


@pytest.mark.parametrize("n", [4, 5])
def test_anchor_velocity_allocates_no_full_wedge_matrix(n):
    """On the balanced family the peak memory that anchor_velocity traces
    stays below one float (*grid, n^2, n^2) array, so it builds none: W
    exists only as its blocks.  Measured at R = 16: 0.69 (n = 4) and 0.64
    (n = 5) of that size with omega^{n-2} built as stacks of minors (0.71
    and 0.76 with the sparse form algebra), against 1.83 and 1.82 with the
    whole W built."""
    tracemalloc = pytest.importorskip("tracemalloc")
    grid = TorusGrid(n, (0, 1), 16)
    pkg = ChernPackage(grid, _balanced(grid))
    anchor_velocity(pkg)  # the package's own caches and the tables, once
    tracemalloc.start()
    try:
        anchor_velocity(pkg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < np.prod(grid.shape) * n ** 4 * np.dtype(float).itemsize


def test_singular_wedge_block_fails_the_solve(monkeypatch):
    singular = _singular_block

    monkeypatch.setattr(flow, "wedge_block", singular)
    with pytest.raises(SingularSystemError, match="anchor velocity solve failed"):
        anchor_velocity(ChernPackage(GRID, _balanced()))
    traj = run_flow(GRID, _balanced(), FORM_ANCHOR, 2e-5, StepControl(dt=1e-5))
    assert traj.status == STATUS_SINGULARITY and traj.steps_taken == 0
    assert traj.stop_detail.startswith("anchor velocity solve failed")


if HAS_HYPOTHESIS:

    @given(st.integers(min_value=3, max_value=5), st.integers(min_value=0, max_value=3), st.data())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_blocks_follow_the_zero_pattern_of_the_metric(n, seed, data):
        """Zero a random set of off-diagonal pairs of a random metric: the
        blocks partition the coordinates, no entry of W couples two blocks
        at any node, the blocks and pivots are W's entries, the block solve
        matches the dense one and the gate reads the whole W's value."""
        pairs = list(itertools.combinations(range(n), 2))
        grid = TorusGrid(n, (0, 1), 4)
        g = random_band_metric(grid, seed=seed, amplitude=0.2)
        for j, k in data.draw(st.lists(st.sampled_from(pairs), unique=True)):
            g[..., j, k] = g[..., k, j] = 0.0
        pkg = ChernPackage(grid, g)
        W, system = _wedge_of(pkg)
        coupled, (singles, _) = system
        blocks = tuple(block for block, _ in coupled) + tuple(singles[:, None])
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(n * n))
        label = np.empty(n * n, dtype=int)
        for i, block in enumerate(blocks):
            label[block] = i
        assert np.all(W[..., label[:, None] != label] == 0.0)
        # the blocks multiply only the live rows of C_R: the same sums, less zeros
        assert np.abs(scatter_blocks(system) - W).max() <= 1e-15 * np.abs(W).max()
        got, want = _block_and_dense(pkg)
        # worst measured over 400 such patterns, seeds 0-3: 9.9e-16 (n = 5)
        assert np.abs(got - want).max() <= 4e-15 * np.abs(want).max()
        _assert_gate_is_the_full_residual(pkg)


def test_singular_one_by_one_block_fails_the_solve(monkeypatch):
    """A zero pivot of a 1 x 1 block stops the solve, as LAPACK stops on a
    coupled block, and divides by nothing: no RuntimeWarning."""
    def singular(grid, theta):
        coupled, (singles, pivots) = wedge_block(grid, theta)
        pivots[..., 0] = 0.0
        return coupled, (singles, pivots)

    monkeypatch.setattr(flow, "wedge_block", singular)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
