"""The geometric flow in its two equivalent formulations.

*Anchor formulation* ("anchor"): the state is the metric g, constrained
to be conformally balanced; its evolution is defined implicitly through
the weighted (n-1,n-1) anchor form

    d/dt ( norm * omega^{n-1} ) = (n-1) * ( i del delbar omega^{n-2} - source )

where ``norm`` is the volume-form norm of g and ``source`` is an optional
static real (n-1,n-1)-form.  The velocity of g is recovered at every
node by solving a linear n^2 x n^2 system in the sigma basis.

*Weighted formulation* ("weighted"): the state is the density-weighted
metric  w = norm * g, evolved directly by

    d/dt w = - ricci2(w) - 1/2 * torsionsq(w) - source

where both curvature terms are computed treating w itself as the metric
and ``source`` is an optional static Hermitian matrix field.

Clock normalization: the two equations as written in their most common
normalizations differ by a constant factor of (n-1) in time.  This
module puts the factor on the anchor side, as above, so both
formulations generate the *same* one-parameter family of metrics; the
verification suite pins this by evolving both from identical initial
data and comparing trajectories.  Stationary points are unaffected: the
anchor velocity vanishes exactly when i del delbar omega^{n-2} equals
the source.

Weight chain (exact algebra, used to hop between formulations), with
the norm taken of the volume form Omega = dz^1 ^ ... ^ dz^n:

    w       = norm_g * g
    g       = norm_w^{2/(n-2)} * w          with  norm_w^2 = 1 / det w
    dw/dt   = norm_g * ( dg/dt - 1/2 tr(g^-1 dg/dt) g )
    dg/dt   = norm_w^{2/(n-2)} * ( dw/dt - tr(w^-1 dw/dt)/(n-2) * w )

A constant multiple c * Omega would only rescale time: both curvature
terms are unchanged when w is scaled, so the flow of |c| * w is the
flow of w with time scaled by |c|.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .chern import ChernPackage
from .errors import (
    ConfigError,
    DegeneracyError,
    PositivityError,
    SingularSystemError,
)
from .forms import (
    DifferentialForm,
    matrix_to_n1n1,
    matrix_to_one_one,
    n1n1_to_matrix,
    sigma_coefficient,
    wedge,
    wedge_monomial,
    wedge_power,
)
from .grid import TorusGrid
from .metrics import (
    conformally_balanced_defect,
    hermitize,
    is_positive,
    min_eigenvalue,
    volume_norm,
    volume_norm_sq,
)

__all__ = [
    "FORM_ANCHOR",
    "FORM_WEIGHTED",
    "STATUS_COMPLETED",
    "STATUS_SINGULARITY",
    "STATUS_BLOWUP",
    "StepControl",
    "Trajectory",
    "weighted_from_metric",
    "metric_from_weighted",
    "weighted_dot_from_metric_dot",
    "anchor_velocity",
    "weighted_velocity",
    "induced_weighted_source",
    "run_flow",
]

FORM_ANCHOR = "anchor"
FORM_WEIGHTED = "weighted"

STATUS_COMPLETED = "completed"
STATUS_SINGULARITY = "singularity-stop"
STATUS_BLOWUP = "blowup"

BALANCED_GATE = 1e-8
POSITIVITY_FLOOR = 1e-8  # smallest eigenvalue an accepted step may leave
SOLVE_RESIDUAL_GATE = 1e-10


# -- weight chain -------------------------------------------------------------


def weighted_from_metric(g: np.ndarray) -> np.ndarray:
    u = volume_norm(g)
    return u[..., None, None] * g


def metric_from_weighted(w: np.ndarray) -> np.ndarray:
    n = w.shape[-1]
    if n < 3:
        raise DegeneracyError("weight chain needs at least 3 complex dimensions")
    norm_w_sq = volume_norm_sq(w)
    factor = norm_w_sq ** (1.0 / (n - 2))
    return factor[..., None, None] * w


def weighted_dot_from_metric_dot(g: np.ndarray, g_dot: np.ndarray) -> np.ndarray:
    u = volume_norm(g)
    trace = np.einsum("...pa,...ap->...", np.linalg.inv(g), g_dot)
    return u[..., None, None] * (g_dot - 0.5 * trace[..., None, None] * g)


# -- anchor formulation --------------------------------------------------------


def _complement_single(n: int, tup: tuple[int, ...]) -> int:
    return next(m for m in range(n) if m not in tup)


@functools.lru_cache(maxsize=None)
def _anchor_structure(n: int):
    """Structure constants of the map (metric velocity) -> (anchor velocity).

    Entries ``(j, k, key, a, b, coeff)`` mean: the sigma-matrix entry
    [a, b] of ``one_one(X) ^ omega^{n-2}`` gains
    ``coeff * X[k, j] * omega^{n-2}-component(key)``.
    """
    entries = []
    lowers = list(itertools.combinations(range(n), n - 2))
    for j in range(n):
        for k in range(n):
            for J in lowers:
                for K in lowers:
                    merged, sign = wedge_monomial(((j,), (k,)), (J, K))
                    if merged is None:
                        continue
                    a = _complement_single(n, merged[0])
                    b = _complement_single(n, merged[1])
                    coeff = 1j * sign / sigma_coefficient(n, a, b)
                    entries.append((j, k, (J, K), a, b, coeff))
    return tuple(entries)


def _anchor_target(
    pkg: ChernPackage, source_matrix: np.ndarray | None
) -> tuple[DifferentialForm, DifferentialForm, DifferentialForm]:
    """Returns (omega^{n-2}, omega^{n-1}, target) for the anchor solve."""
    grid = pkg.grid
    omega = matrix_to_one_one(grid, pkg.g)
    wn2 = wedge_power(omega, grid.n - 2)
    wn1 = wedge(wn2, omega)
    target = wn2.delbar().del_() * 1j
    if source_matrix is not None:
        target = target - matrix_to_n1n1(grid, np.broadcast_to(
            np.asarray(source_matrix, dtype=complex), grid.shape + (grid.n, grid.n)
        ))
    return wn2, wn1, target


def anchor_velocity(
    pkg: ChernPackage, source_matrix: np.ndarray | None = None
) -> np.ndarray:
    """Metric velocity of the anchor flow, solved pointwise.

    Expanding the time derivative of ``norm * omega^{n-1}`` for an
    unknown metric velocity X gives, in the sigma basis, a complex linear
    system per node:

        norm * [ (n-1) M_wedge(X) - 1/2 tr(g^-1 X) M(omega^{n-1}) ]
            = (n-1) M(i del delbar omega^{n-2} - source)

    M_wedge is assembled from cached structure constants; the system is
    solved with a batched dense solve and the solution re-checked by
    substitution (max relative forward residual below 1e-10, otherwise
    :class:`SingularSystemError`).
    """
    grid = pkg.grid
    n = grid.n
    wn2, wn1, target = _anchor_target(pkg, source_matrix)

    wn1_mat = n1n1_to_matrix(wn1)
    b = (n - 1) * n1n1_to_matrix(target).reshape(grid.shape + (n * n,))

    A = np.zeros(grid.shape + (n * n, n * n), dtype=complex)
    for j, k, key, a, bcol, coeff in _anchor_structure(n):
        w = wn2.comps.get(key)
        if w is None:
            continue
        A[..., a * n + bcol, k * n + j] += coeff * w
    A *= float(n - 1)

    # trace block: coefficient of X[k, j] in tr(g^-1 X) is ginv[j, k]
    trace_row = np.swapaxes(pkg.ginv, -1, -2).reshape(grid.shape + (n * n,))
    A -= 0.5 * wn1_mat.reshape(grid.shape + (n * n, 1)) * trace_row[..., None, :]

    u = volume_norm(pkg.g)
    A *= u[..., None, None]

    try:
        x = np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError as err:
        raise SingularSystemError(f"anchor velocity solve failed: {err}") from err

    residual = np.einsum("...ij,...j->...i", A, x) - b
    scale = max(float(np.abs(b).max()), float(np.abs(A).max() * np.abs(x).max()), 1e-30)
    rel = float(np.abs(residual).max()) / scale
    if rel > SOLVE_RESIDUAL_GATE:
        raise SingularSystemError(
            f"anchor velocity solve lost accuracy: relative residual {rel:.3e}"
        )

    return hermitize(x.reshape(grid.shape + (n, n)))


# -- weighted formulation ------------------------------------------------------


def weighted_velocity(
    grid: TorusGrid, w: np.ndarray, source_matrix: np.ndarray | None = None
) -> np.ndarray:
    """Velocity of the weighted metric: curvature and torsion of w itself."""
    pkg = ChernPackage(grid, w)
    out = -pkg.second_ricci - 0.5 * pkg.ttbar
    if source_matrix is not None:
        out = out - np.asarray(source_matrix, dtype=complex)
    return hermitize(out)


def induced_weighted_source(
    grid: TorusGrid, g: np.ndarray, anchor_source_matrix: np.ndarray
) -> np.ndarray:
    """Matrix source for the weighted flow equivalent to an anchor source.

    Defined operationally: run the anchor velocity with the source, push
    it through the weight chain, and subtract the sourceless weighted
    velocity.  With a zero anchor source this returns (discretization
    level) zero, which is precisely the statement that the two
    formulations agree.
    """
    pkg = ChernPackage(grid, g)
    g_dot = anchor_velocity(pkg, anchor_source_matrix)
    w_dot = weighted_dot_from_metric_dot(g, g_dot)
    w = weighted_from_metric(g)
    free = weighted_velocity(grid, w)
    return hermitize(free - w_dot)


# -- time stepping -------------------------------------------------------------


@dataclass(frozen=True)
class StepControl:
    """Step-size policy: fixed dt when given, else a parabolic bound.

    The adaptive bound is ``cfl * spacing^2 * min-eigenvalue(state)``,
    comfortably inside the stability region of the classical fourth
    order Runge-Kutta scheme for the spectral second-derivative symbol.
    """

    dt: float | None = None
    cfl: float = 0.2
    max_steps: int = 200_000

    def step_size(self, grid: TorusGrid, state: np.ndarray, remaining: float) -> float:
        if self.dt is not None:
            return min(self.dt, remaining)
        lam = max(min_eigenvalue(state), 0.0)
        if lam <= 0.0:
            raise PositivityError("state lost positivity while sizing a step")
        return min(self.cfl * grid.spacing ** 2 * lam, remaining)


@dataclass
class Trajectory:
    """Recorded flow run: native snapshots plus conversion helpers.

    ``times[i]``, ``steps[i]`` and ``snapshots[i]`` are the time, the step
    number and the state of the i-th kept state.
    """

    grid: TorusGrid
    formulation: str
    times: list[float] = dc_field(default_factory=list)
    steps: list[int] = dc_field(default_factory=list)
    snapshots: list[np.ndarray] = dc_field(default_factory=list)
    status: str = STATUS_COMPLETED
    off_manifold: bool = False
    steps_taken: int = 0
    stop_detail: str = ""

    def metric_at(self, index: int) -> np.ndarray:
        """Snapshot as a plain metric, whatever the native variable is."""
        raw = self.snapshots[index]
        if self.formulation == FORM_WEIGHTED:
            return metric_from_weighted(raw)
        return raw


def _rk4_step(f, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return hermitize(y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def run_flow(
    grid: TorusGrid,
    g0: np.ndarray,
    formulation: str,
    t_final: float,
    control: StepControl | None = None,
    anchor_source: np.ndarray | None = None,
    weighted_source: np.ndarray | None = None,
    snapshot_every: int = 1,
) -> Trajectory:
    """Integrate either formulation from a metric g0 up to time t_final.

    The anchor formulation refuses initial data that is not conformally
    balanced (the evolution is only defined on that locus); the weighted
    formulation accepts any positive metric but labels the run
    off-manifold.  Sources are static fields: an anchor source is a
    Hermitian sigma-matrix, a weighted source a Hermitian matrix.  Given
    an anchor source, the weighted flow takes at every stage the anchor
    velocity of the current metric with that source, pushed through the
    weight chain.

    A run that stops early returns its trajectory with the status and
    ``stop_detail`` set: ``STATUS_SINGULARITY`` at a loss of positivity,
    ``STATUS_BLOWUP`` on a non-finite state or when ``control.max_steps``
    steps did not reach ``t_final``.
    """
    if formulation not in (FORM_ANCHOR, FORM_WEIGHTED):
        raise ConfigError(f"unknown formulation '{formulation}'")
    if control is None:
        control = StepControl()
    if weighted_source is not None and formulation == FORM_ANCHOR:
        raise ConfigError("the anchor flow takes only an anchor source")
    if anchor_source is not None and weighted_source is not None:
        raise ConfigError("give at most one source")

    defect = conformally_balanced_defect(grid, g0)
    off_manifold = defect > BALANCED_GATE
    if formulation == FORM_ANCHOR and off_manifold:
        raise ConfigError(
            f"anchor flow needs conformally balanced initial data;"
            f" defect {defect:.3e} exceeds {BALANCED_GATE:.1e}"
        )

    if formulation == FORM_ANCHOR:
        y = np.array(g0, dtype=complex)

        def velocity(state: np.ndarray) -> np.ndarray:
            pkg = ChernPackage(grid, hermitize(state))
            return anchor_velocity(pkg, anchor_source)

    else:
        y = weighted_from_metric(np.asarray(g0, dtype=complex))

        def velocity(state: np.ndarray) -> np.ndarray:
            state = hermitize(state)
            if anchor_source is None:
                return weighted_velocity(grid, state, weighted_source)
            g_now = metric_from_weighted(state)
            g_dot = anchor_velocity(ChernPackage(grid, g_now), anchor_source)
            return weighted_dot_from_metric_dot(g_now, g_dot)

    traj = Trajectory(grid=grid, formulation=formulation, off_manifold=off_manifold)

    def keep(t: float) -> None:
        traj.times.append(t)
        traj.steps.append(traj.steps_taken)
        traj.snapshots.append(y.copy())

    keep(0.0)

    t = 0.0
    while t_final - t > 1e-15 * max(1.0, abs(t_final)):
        if traj.steps_taken == control.max_steps:
            traj.status = STATUS_BLOWUP
            traj.stop_detail = (
                f"step budget exhausted: {control.max_steps} steps reached"
                f" t={t:.6g} before t={t_final}"
            )
            break
        try:
            dt = control.step_size(grid, y, t_final - t)
            y_next = _rk4_step(velocity, y, dt)
        except (PositivityError, SingularSystemError, DegeneracyError) as err:
            traj.status = STATUS_SINGULARITY
            traj.stop_detail = str(err)
            break
        except (np.linalg.LinAlgError, FloatingPointError) as err:
            traj.status = STATUS_BLOWUP
            traj.stop_detail = str(err)
            break

        if not np.isfinite(y_next).all():
            traj.status = STATUS_BLOWUP
            traj.stop_detail = "non-finite state"
            break
        if not is_positive(y_next, POSITIVITY_FLOOR):
            traj.status = STATUS_SINGULARITY
            traj.stop_detail = (
                f"min eigenvalue {min_eigenvalue(y_next):.3e} at t={t + dt:.6g}"
            )
            break

        y = y_next
        t += dt
        traj.steps_taken += 1
        if traj.steps_taken % snapshot_every == 0:
            keep(t)

    if traj.times[-1] != t:
        # Record the final accepted state even on an abnormal stop: y is only
        # ever advanced after the positivity check, so this is always the last
        # positive-definite state.
        keep(t)
    return traj
