"""Flow velocities, the weight chain, sources, and the integrator."""

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
from iiblab.errors import DegeneracyError
from iiblab.flow import (
    STATUS_BLOWUP,
    STATUS_COMPLETED,
    STATUS_SINGULARITY,
    induced_weighted_source,
    metric_from_weighted,
    weighted_dot_from_metric_dot,
    weighted_from_metric,
)
from iiblab.metrics import (
    balanced_band_metric,
    fourier_scalar,
    hermitize,
    kahler_from_potential,
    random_band_metric,
    volume_norm_sq,
)

GRID = TorusGrid(3, (0, 1), 8)
FLAT = flat_metric(GRID)


def _balanced(grid=GRID, amp=0.15):
    f = fourier_scalar(grid, [[1, 1, 0.0, -amp], [1, -1, 0.0, -amp]])
    return balanced_band_metric(grid, f)


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
    phi = induced_weighted_source(GRID, FLAT, psi)
    want = np.zeros((3, 3), dtype=complex)
    want[0, 0] = -eps
    assert np.abs(phi - want).max() < 1e-13
    # and a zero source induces (discretization-level) zero
    free = induced_weighted_source(GRID, FLAT, np.zeros((3, 3)))
    assert np.abs(free).max() < 1e-13


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
    w_dot = weighted_dot_from_metric_dot(g, g_dot)
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


def test_weighted_flow_labels_off_manifold():
    x, y = GRID.coordinate(0), GRID.coordinate(1)
    g = kahler_from_potential(GRID, 0.05 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    traj = run_flow(GRID, g, FORM_WEIGHTED, 2e-5, StepControl(dt=1e-5))
    assert traj.off_manifold
    traj2 = run_flow(GRID, _balanced(), FORM_WEIGHTED, 2e-5, StepControl(dt=1e-5))
    assert not traj2.off_manifold


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


def test_singularity_stop_keeps_last_positive_state():
    psi = np.zeros((3, 3), dtype=complex)
    psi[0, 0] = 1.0  # shrinks the transverse block toward zero
    traj = run_flow(GRID, FLAT, FORM_WEIGHTED, 2.0, StepControl(dt=0.01),
                    anchor_source=psi)
    assert traj.status == STATUS_SINGULARITY
    last = traj.snapshots[-1]
    assert np.linalg.eigvalsh(last).min() > 0.0
    assert traj.times[-1] < 2.0


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


def test_formulations_agree_with_an_anchor_source():
    psi = np.zeros((3, 3), dtype=complex)
    psi[0, 0], psi[1, 1] = 0.2, -0.1
    psi[0, 1], psi[1, 0] = 0.05 + 0.03j, 0.05 - 0.03j
    grid = TorusGrid(3, (0, 1), 16)
    assert _final_gap(grid, _balanced(grid), 5e-5, anchor_source=psi) <= 1e-12
