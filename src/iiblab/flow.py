"""The geometric flow in its two equivalent formulations.

*Anchor formulation* ("anchor"): the state is the metric g, constrained
to be conformally balanced; its evolution is defined implicitly through
the weighted (n-1,n-1) anchor form

    d/dt ( norm * omega^{n-1} ) = (n-1) * ( i del delbar omega^{n-2} - source )

where ``norm`` is the volume-form norm of g and ``source`` is an optional
static real (n-1,n-1)-form psi.  The velocity of g is recovered at every
node from a real linear n^2 x n^2 system whose matrix factors as
A = s W P: a wedge block W, LU-solved, times the trace block
P = I - g v^T / (2(n-1)), which Sherman-Morrison inverts exactly,
P^-1 = I + g v^T / (n-2) (derived in :func:`anchor_velocity`).

*Weighted formulation* ("weighted"): the state is the density-weighted
metric  w = norm * g, evolved directly by

    d/dt w = - ricci2(w) - 1/2 * torsionsq(w) + w psi w / (n-2)! - phi

with both curvature terms taken of w itself as the metric, psi the sigma
matrix M(psi) of the anchor source and phi an optional static Hermitian
matrix field.  The psi term is the anchor source pushed through the
weight chain below.  Its metric velocity X solves W P X = -M(psi)/norm;
Y = (dw/dt)/norm = X - 1/2 tr(g^-1 X) g gives P X = Y - tr(g^-1 Y) g/(n-1).
For real (1,1)-forms *alpha = Lambda(alpha) omega^{n-1}/(n-1)!
- alpha ^ omega^{n-2}/(n-2)! (Huybrechts, *Complex Geometry*, 1.2), so
for the form alpha of Y, W P X = -(n-2)! M(*alpha) = -M(psi)/norm.  As
M(*alpha) = det(g) g^-1 Y g^-1 and det g = norm^-2, dw/dt = w psi w / (n-2)!.

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

Scaling law: without a source, the flow from lam * g0 (constant lam > 0)
at time lam^{1-n/2} * t is lam times the flow from g0 at time t.  Both
curvature terms are unchanged when w is multiplied by a constant c (the
connection does not see c, and in each term the factors of c from the
metric and its inverse cancel), so c * w(s / c) solves the weighted
equation whenever w(t) does.  By the weight chain, g -> lam * g takes
norm_g to lam^{-n/2} * norm_g, so w to c * w with c = lam^{1-n/2}, and
c * w back to lam * g.  Likewise a constant multiple c * Omega only
rescales time: it multiplies w by |c|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .chern import ChernPackage
from .errors import (
    ConfigError,
    DegeneracyError,
    HermiticityError,
    PositivityError,
    SingularSystemError,
)
from .forms import (
    DifferentialForm,
    hermitian_basis,
    i_del_delbar_matrix,
    matrix_to_one_one,
    wedge_block,
    wedge_power,
)
from .grid import TorusGrid
from .metrics import (
    HERMITICITY_TOLERANCE,
    conformally_balanced_defect,
    hermiticity_defect,
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


# -- anchor formulation --------------------------------------------------------


def _check_anchor_source(source_matrix: np.ndarray | None) -> None:
    defect = 0.0 if source_matrix is None else hermiticity_defect(np.asarray(source_matrix))
    if defect > HERMITICITY_TOLERANCE:
        raise ConfigError(f"anchor source deviates from Hermitian by {defect:.3e}")


def _anchor_target(
    pkg: ChernPackage, source_matrix: np.ndarray | None
) -> tuple[DifferentialForm, np.ndarray]:
    """Returns omega^{n-2} and the sigma matrix of the target
    ``i del delbar omega^{n-2} - source`` for the anchor solve."""
    grid = pkg.grid
    wn2 = wedge_power(matrix_to_one_one(grid, pkg.g), grid.n - 2)
    target = i_del_delbar_matrix(wn2)
    if source_matrix is not None:
        target -= np.asarray(source_matrix, dtype=complex)
    return wn2, target


def _anchor_system(
    pkg: ChernPackage, source_matrix: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The per-node real wedge system ``W z = b`` of :func:`anchor_velocity`."""
    n = pkg.grid.n
    _, T_inv = hermitian_basis(n)
    wn2, target = _anchor_target(pkg, source_matrix)
    b = (target.reshape(pkg.grid.shape + (n * n,)) @ T_inv.T).real
    b /= np.sqrt(pkg.norm_sq)[..., None]
    return wedge_block(wn2), b


def _trace_correction(pkg: ChernPackage, z: np.ndarray) -> np.ndarray:
    """``P^-1 Z = Z + tr(g^-1 Z)/(n-2) g`` for the trace block P of
    :func:`anchor_velocity`."""
    n = pkg.grid.n
    trace = np.einsum("...pa,...ap->...", pkg.ginv, z).real
    return z + (trace / (n - 2))[..., None, None] * pkg.g


def anchor_velocity(
    pkg: ChernPackage, source_matrix: np.ndarray | None = None
) -> np.ndarray:
    """Metric velocity of the anchor flow, solved pointwise.

    In the sigma basis the time derivative of ``norm * omega^{n-1}`` for
    an unknown metric velocity X gives at each node

        norm * [ (n-1) M_wedge(X) - 1/2 tr(g^-1 X) M(omega^{n-1}) ]
            = (n-1) M(i del delbar omega^{n-2} - source)

    where the column of M_wedge for X[k, j] is the sigma matrix of
    ``E[k, j] ^ omega^{n-2}``, ``E[k, j] = i dz^j ^ dzbar^k`` (the
    convention of :func:`matrix_to_one_one`).  As omega^{n-1} =
    omega ^ omega^{n-2}, M(omega^{n-1}) = M_wedge(g), so the matrix is
    A = s W P with s = (n-1) norm, W = M_wedge and
    P = I - g v^T / (2(n-1)), where v . X = tr(g^-1 X).  Because
    v . g = tr(g^-1 g) = n, Sherman-Morrison (Ann. Math. Stat. 1950)
    inverts P exactly: P^-1 = I + g v^T / (n-2), finite for n >= 3.  So
    only ``W Z = M(i del delbar omega^{n-2} - source) / norm`` is solved,
    and ``X = Z + tr(g^-1 Z)/(n-2) g``.

    Z, the target and W Z are Hermitian, so the wedge system is real in
    the Hermitian basis T of :func:`~iiblab.forms.hermitian_basis`: b
    holds the coordinates of the target's Hermitian part, and Z = T z is
    Hermitian by construction.  W is :func:`~iiblab.forms.wedge_block`
    of omega^{n-2}, the target :func:`~iiblab.forms.i_del_delbar_matrix`
    of it.  The system is solved with a batched dense LU solve and the
    solution re-checked by substitution (max relative forward residual
    below 1e-10, otherwise :class:`SingularSystemError`).  A source that
    is not Hermitian to ``HERMITICITY_TOLERANCE`` raises
    :class:`ConfigError`.
    """
    _check_anchor_source(source_matrix)
    W, b = _anchor_system(pkg, source_matrix)
    try:
        z = np.linalg.solve(W, b[..., None])[..., 0]
    except np.linalg.LinAlgError as err:
        raise SingularSystemError(f"anchor velocity solve failed: {err}") from err

    residual = (W @ z[..., None])[..., 0] - b
    w_max = max(float(W.max()), -float(W.min()))  # max |W| without a |W| temporary
    scale = max(float(np.abs(b).max()), w_max * float(np.abs(z).max()), 1e-30)
    rel = float(np.abs(residual).max()) / scale
    if rel > SOLVE_RESIDUAL_GATE:
        raise SingularSystemError(
            f"anchor velocity solve lost accuracy: relative residual {rel:.3e}"
        )

    T, _ = hermitian_basis(pkg.grid.n)
    return _trace_correction(pkg, (z @ T.T).reshape(pkg.g.shape))


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


def induced_weighted_source(w: np.ndarray, anchor_source: np.ndarray) -> np.ndarray:
    """The weighted source ``-w psi w / (n-2)!`` equivalent at the state w
    to the anchor source psi (derived in the module docstring)."""
    return (w @ np.asarray(anchor_source, dtype=complex) @ w) / -math.factorial(w.shape[-1] - 2)


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
    steps_taken: int = 0
    stop_detail: str = ""

    def metric_at(self, index: int) -> np.ndarray:
        """Snapshot as a plain metric, whatever the native variable is."""
        raw = self.snapshots[index]
        if self.formulation == FORM_WEIGHTED:
            return metric_from_weighted(raw)
        return raw


def _rk4_step(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step.

    With y and every value of f exactly Hermitian, each stage and the
    result are too: IEEE sums and real multiples of exactly Hermitian
    arrays stay exactly Hermitian.
    """
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    formulation accepts any positive metric.  Sources are static fields:
    an anchor source is a Hermitian sigma-matrix, a weighted source a
    Hermitian matrix.  Given an anchor source, the weighted flow takes at
    every stage the source :func:`induced_weighted_source` of the current
    state.  g0 is hermitized once, and every kept state is exactly
    Hermitian.

    A run that stops early returns its trajectory with the status and
    ``stop_detail`` set: ``STATUS_SINGULARITY`` when a step takes the
    state, or the metric of a weighted state, below ``POSITIVITY_FLOOR``,
    when a stage's metric is not positive definite, or when the anchor
    velocity solve fails or loses accuracy; ``STATUS_BLOWUP`` on a
    non-finite state or when ``control.max_steps`` steps did not reach
    ``t_final``.
    """
    if formulation not in (FORM_ANCHOR, FORM_WEIGHTED):
        raise ConfigError(f"unknown formulation '{formulation}'")
    if control is None:
        control = StepControl()
    if weighted_source is not None and formulation == FORM_ANCHOR:
        raise ConfigError("the anchor flow takes only an anchor source")
    if anchor_source is not None and weighted_source is not None:
        raise ConfigError("give at most one source")
    _check_anchor_source(anchor_source)

    if formulation == FORM_ANCHOR:
        defect = conformally_balanced_defect(grid, g0)
        if defect > BALANCED_GATE:
            raise ConfigError(
                f"anchor flow needs conformally balanced initial data;"
                f" defect {defect:.3e} exceeds {BALANCED_GATE:.1e}"
            )
        y = hermitize(np.asarray(g0, dtype=complex))

        def velocity(state: np.ndarray) -> np.ndarray:
            return anchor_velocity(ChernPackage(grid, state), anchor_source)

    else:
        y = hermitize(weighted_from_metric(np.asarray(g0, dtype=complex)))

        def velocity(state: np.ndarray) -> np.ndarray:
            phi = weighted_source
            if anchor_source is not None:
                phi = induced_weighted_source(state, anchor_source)
            return weighted_velocity(grid, state, phi)

    traj = Trajectory(grid=grid, formulation=formulation)

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
        except (np.linalg.LinAlgError, FloatingPointError, HermiticityError) as err:
            # an exactly Hermitian stage fails the Hermiticity test only when non-finite
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
        if formulation == FORM_WEIGHTED:
            g_next = metric_from_weighted(y_next)
            if not is_positive(g_next, POSITIVITY_FLOOR):
                traj.status = STATUS_SINGULARITY
                traj.stop_detail = (f"metric min eigenvalue {min_eigenvalue(g_next):.3e}"
                                    f" at t={t + dt:.6g}")
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
