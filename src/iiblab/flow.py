"""The geometric flow in its two equivalent formulations.

*Anchor formulation* ("anchor"): the state is the metric g, constrained
to be conformally balanced; its evolution is defined implicitly through
the weighted (n-1,n-1) anchor form

    d/dt ( norm * omega^{n-1} ) = (n-1) * ( i del delbar omega^{n-2} - source )

where ``norm`` is the volume-form norm of g and ``source`` is an optional
static real (n-1,n-1)-form psi.  The velocity of g is recovered at every
node from a real linear n^2 x n^2 system whose matrix factors as
A = s W P: a wedge block W, kept only as its blocks along its exact zeros
(``forms.wedge_block``), each LU-solved and residual-gated, times the trace
block P = I - g v^T / (2(n-1)), which Sherman-Morrison inverts exactly,
P^-1 = I + g v^T / (n-2), with v . Z = tr(g^-1 Z) read from W Z and det g,
not from an inverse metric (derived in :func:`anchor_velocity`).

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

State layout: :func:`run_flow` keeps the weighted state in grid-last
memory (index axes first, grid axes last, contiguous) and passes its
grid-first view around, so the API's grid-first shapes are unchanged.
:func:`weighted_velocity` writes its result in that layout, so every
Runge-Kutta stage, a sum of the state and of velocities, keeps it, and
each package reads its slots as contiguous grid arrays.  Both velocities
take a stage's package; an accepted state's package, whose factor decides
the positivity floor, is the next step's first stage.  The kept states are
contiguous grid-first copies.  The anchor state keeps the grid-first layout
its velocity returns.

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

import copy
import functools
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
from .forms import hermitian_basis, i_del_delbar_matrix, omega_power, wedge_block
from .grid import TorusGrid
from .metrics import (
    _FULL,
    HERMITICITY_TOLERANCE,
    conformally_balanced_defect,
    hermiticity_defect,
    hermitize,
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
) -> tuple[np.ndarray, np.ndarray]:
    """Returns the stack of omega^{n-2} and the sigma matrix of the target
    ``i del delbar omega^{n-2} - source`` for the anchor solve."""
    grid = pkg.grid
    wn2 = omega_power(pkg.g, grid.n - 2)
    target = i_del_delbar_matrix(grid, wn2)
    if source_matrix is not None:
        target -= np.asarray(source_matrix, dtype=complex)
    return wn2, target


def _anchor_system(pkg: ChernPackage, source_matrix: np.ndarray | None):
    """W's blocks and the right-hand side b of the per-node real wedge system
    ``W z = b`` of :func:`anchor_velocity`."""
    n = pkg.grid.n
    _, T_inv = hermitian_basis(n)
    wn2, target = _anchor_target(pkg, source_matrix)
    b = (target.reshape(pkg.grid.shape + (n * n,)) @ T_inv.T).real
    b /= np.sqrt(pkg.norm_sq)[..., None]
    return wedge_block(pkg.grid, wn2), b


def _relative_residual(system, b: np.ndarray, z: np.ndarray) -> float:
    """``max |W z - b| / max(max |b|, max |W| max |z|)``, block by block:
    every entry of W outside its blocks is a structural zero, so this is
    the value of the full W."""
    coupled, (singles, pivots) = system
    parts = [(np.einsum("...rc,...c->...r", sub, z[..., block]) - b[..., block], sub)
             for block, sub in coupled] + [(pivots * z[..., singles] - b[..., singles], pivots)]
    residual = np.max([np.abs(r).max(initial=0.0) for r, _ in parts])
    w_max = np.max([max(w.max(initial=0.0), -w.min(initial=0.0)) for _, w in parts])  # no |W| copy
    return float(residual / max(float(np.abs(b).max()), w_max * float(np.abs(z).max()), 1e-30))


def _trace_correction(pkg: ChernPackage, z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``P^-1 Z = Z + tr(g^-1 Z)/(n-2) g`` for ``Z = T z`` and the trace block P of
    :func:`anchor_velocity`, with ``tr(g^-1 Z) = tr(M(b) g) / ((n-1)! det g)``, b = W z."""
    n = pkg.grid.n
    T_real = np.ascontiguousarray(hermitian_basis(n)[0].T).view(np.float64)  # x @ T_real: T x
    # tr(M(b) g) = Re tr(M(b) g^H), the dot of the two matrices' (Re, Im) pairs
    g_real = np.ascontiguousarray(pkg.g).view(np.float64).reshape(b.shape[:-1] + (2 * n * n,))
    trace = np.einsum("...i,...i->...", b @ T_real, g_real)
    trace /= math.factorial(n - 1) * (n - 2) * pkg.factor.det
    return (z @ T_real).view(complex).reshape(pkg.g.shape) + trace[..., None, None] * pkg.g


def anchor_velocity(
    pkg: ChernPackage, source_matrix: np.ndarray | None = None
) -> np.ndarray:
    """Metric velocity of the anchor flow, solved pointwise.

    In the sigma basis the time derivative of ``norm * omega^{n-1}`` for
    an unknown metric velocity X gives at each node

        norm * [ (n-1) M_wedge(X) - 1/2 tr(g^-1 X) M(omega^{n-1}) ]
            = (n-1) M(i del delbar omega^{n-2} - source)

    where the column of M_wedge for X[k, j] is the sigma matrix of
    ``E[k, j] ^ omega^{n-2}``, ``E[k, j] = i dz^j ^ dzbar^k`` (so that
    omega = sum g[k, j] E[k, j]).  As omega^{n-1} =
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
    Hermitian by construction.  omega^{n-2} is the stack of minors of g
    of :func:`~iiblab.forms.omega_power`; W of it exists only as the
    blocks of :func:`~iiblab.forms.wedge_block`, the target is
    :func:`~iiblab.forms.i_del_delbar_matrix` of it.  Each coupled block
    takes one batched LU solve, the 1 x 1 blocks one division, and a
    singular block or a zero pivot raises :class:`SingularSystemError`.
    The solution is re-checked by substitution, block by block; the
    entries outside the blocks are structural zeros, so the gate reads the
    full W's max relative forward residual, which must stay below
    ``SOLVE_RESIDUAL_GATE`` (otherwise the same error).  A source that is
    not Hermitian to ``HERMITICITY_TOLERANCE`` raises :class:`ConfigError`.

    The trace needs no inverse metric.  A (1,1)-form alpha with matrix Z
    has alpha ^ omega^{n-1} = tr(g^-1 Z)/n omega^n, and omega^n =
    n! det(g) V (Huybrechts, *Complex Geometry*, 1.2).  By the definition
    of sigma, sigma(a, b) ^ E[b, a] = V and sigma(a, b) ^ E[k, j] = 0
    otherwise, so an (n-1,n-1)-form beta has beta ^ omega = tr(M(beta) g) V.
    With beta = alpha ^ omega^{n-2}, whose sigma matrix is W Z = M(b):
    tr(g^-1 Z) = tr(M(b) g) / ((n-1)! det g).
    """
    _check_anchor_source(source_matrix)
    system, b = _anchor_system(pkg, source_matrix)
    (coupled, (singles, pivots)), z = system, np.empty_like(b)
    try:
        for block, sub in coupled:
            z[..., block] = np.linalg.solve(sub, b[..., block, None])[..., 0]
        if not pivots.all():  # where LAPACK would stop on a singular 1 x 1 LU
            raise np.linalg.LinAlgError("Singular matrix")
    except np.linalg.LinAlgError as err:
        raise SingularSystemError(f"anchor velocity solve failed: {err}") from err
    z[..., singles] = b[..., singles] / pivots

    rel = _relative_residual(system, b, z)
    if rel > SOLVE_RESIDUAL_GATE:
        raise SingularSystemError(
            f"anchor velocity solve lost accuracy: relative residual {rel:.3e}"
        )
    return _trace_correction(pkg, z, b)


# -- weighted formulation ------------------------------------------------------


def weighted_velocity(
    pkg: ChernPackage, source_matrix: np.ndarray | None = None
) -> np.ndarray:
    """Velocity of the weighted metric w of ``pkg``: curvature and torsion of w.

    ``-ricci2 - ttbar/2 - source`` is formed and hermitized grid-last on
    the live slots of its terms (a source makes every slot live), and
    written into contiguous grid-last memory whose dead slots are +0.  The
    result is the grid-first view of that memory, the layout of the state
    :func:`run_flow` keeps, so a Runge-Kutta stage made from it is
    grid-last too.  w may have either layout; the bits do not depend on it.
    """
    grid = pkg.grid
    ricci, ttbar = grid.to_grid_last(pkg.second_ricci), grid.to_grid_last(pkg.ttbar)
    summed, hermitized = pkg.slots.velocity
    if source_matrix is not None:
        source = np.asarray(source_matrix, dtype=complex)
        source = grid.to_grid_last(np.broadcast_to(source, grid.shape + (grid.n, grid.n)))
        summed = hermitized = _FULL
    x = np.zeros_like(ricci)
    for r, c in summed:
        np.subtract(np.negative(ricci[r, c]), 0.5 * ttbar[r, c], out=x[r, c])
        if source_matrix is not None:
            x[r, c] -= source[r, c]
    out = (np.empty_like if hermitized is _FULL else np.zeros_like)(x)
    for r, c in hermitized:
        np.multiply(0.5, x[r, c] + np.conj(np.swapaxes(x[c, r], 0, 1)), out=out[r, c])
    return grid.to_grid_first(out)


def induced_weighted_source(w: np.ndarray, anchor_source: np.ndarray) -> np.ndarray:
    """The weighted source ``-w psi w / (n-2)!`` equivalent at the state w
    to the anchor source psi (derived in the module docstring)."""
    return (w @ np.asarray(anchor_source, dtype=complex) @ w) / -math.factorial(w.shape[-1] - 2)


# -- time stepping -------------------------------------------------------------


@dataclass(frozen=True)
class StepControl:
    """Step-size policy: fixed dt when given, else a parabolic bound.

    The adaptive bound ``cfl * spacing^2 * min-eigenvalue(pkg.g)``, for a
    state's package, is comfortably inside the stability region of classical
    fourth order Runge-Kutta for the spectral second-derivative symbol.
    """

    dt: float | None = None
    cfl: float = 0.2
    max_steps: int = 200_000

    def step_size(self, pkg: ChernPackage, remaining: float) -> float:
        if self.dt is not None:
            return min(self.dt, remaining)
        lam = max(min_eigenvalue(pkg.g), 0.0)
        if lam <= 0.0:
            raise PositivityError("state lost positivity while sizing a step")
        return min(self.cfl * pkg.grid.spacing ** 2 * lam, remaining)


@dataclass
class Trajectory:
    """Recorded flow run: native snapshots plus conversion helpers.

    ``times[i]``, ``steps[i]`` and ``snapshots[i]`` are the time, the step
    number and the state of the i-th kept state (a contiguous grid-first
    array), and ``packages[i]`` is the spectral :class:`ChernPackage` of
    that native state, built on first read and kept with the trajectory.  :func:`run_flow` appends no state after
    it returns, so the packages never fall behind the snapshots.
    """

    grid: TorusGrid
    formulation: str
    times: list[float] = dc_field(default_factory=list)
    steps: list[int] = dc_field(default_factory=list)
    snapshots: list[np.ndarray] = dc_field(default_factory=list)
    status: str = STATUS_COMPLETED
    steps_taken: int = 0
    stop_detail: str = ""

    @functools.cached_property
    def packages(self) -> list[ChernPackage]:
        return [ChernPackage(self.grid, s) for s in self.snapshots]

    def metric_at(self, index: int) -> np.ndarray:
        """Snapshot as a plain metric, whatever the native variable is."""
        raw = self.snapshots[index]
        if self.formulation == FORM_WEIGHTED:
            return metric_from_weighted(raw)
        return raw


def _rk4_step(f, pkg: ChernPackage, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step from ``pkg``, its first stage; f maps a
    stage's package to its velocity, and only stages 2-4 build a package.

    With the state and every value of f exactly Hermitian, each stage and the
    result are too: IEEE sums and real multiples of exactly Hermitian arrays
    stay exactly Hermitian.
    """
    k1 = f(copy.copy(pkg))  # what stage 1 caches dies with the copy, not kept by the caller
    k2 = f(ChernPackage(pkg.grid, pkg.g + 0.5 * dt * k1))
    k3 = f(ChernPackage(pkg.grid, pkg.g + 0.5 * dt * k2))
    k4 = f(ChernPackage(pkg.grid, pkg.g + dt * k3))
    return pkg.g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _accept(grid: TorusGrid, y: np.ndarray, formulation: str) -> tuple[ChernPackage | None, str]:
    """The package of a finite step's state y, the next step's first stage,
    or None and why y falls below ``POSITIVITY_FLOOR``.

    A weighted state w and its metric g = det(w)^(-1/(n-2)) w must both stay
    above the floor.  g - floor I is a positive multiple of
    w - floor det(w)^(1/(n-2)) I, so the package's factor, for det w, and its
    shift by floor max(1, det(w)^(1/(n-2))) decide both floors; a w with no
    factor is below the first.  :func:`run_flow` has checked that y is
    finite.  Eigenvalues are computed only on a stop, for the message.
    """
    try:
        pkg = ChernPackage(grid, y)
    except PositivityError:
        return None, f"min eigenvalue {min_eigenvalue(y):.3e}"

    def above(floor) -> bool:
        try:
            pkg.factor.shifted(floor)
        except PositivityError:
            return False
        return True

    if formulation == FORM_WEIGHTED:
        if above(POSITIVITY_FLOOR * np.maximum(1.0, pkg.factor.det ** (1.0 / (grid.n - 2)))):
            return pkg, ""
        if above(POSITIVITY_FLOOR):
            return None, f"metric min eigenvalue {min_eigenvalue(metric_from_weighted(y)):.3e}"
    elif above(POSITIVITY_FLOOR):
        return pkg, ""
    return None, f"min eigenvalue {min_eigenvalue(y):.3e}"


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
        velocity = functools.partial(anchor_velocity, source_matrix=anchor_source)
    else:
        # grid-last memory behind a grid-first view (module docstring)
        w0 = hermitize(weighted_from_metric(np.asarray(g0, dtype=complex)))
        y = grid.to_grid_first(np.ascontiguousarray(grid.to_grid_last(w0)))

        def velocity(pkg: ChernPackage) -> np.ndarray:
            phi = weighted_source
            if anchor_source is not None:
                phi = induced_weighted_source(pkg.g, anchor_source)
            return weighted_velocity(pkg, phi)

    traj = Trajectory(grid=grid, formulation=formulation)

    def keep(t: float) -> None:
        traj.times.append(t)
        traj.steps.append(traj.steps_taken)
        traj.snapshots.append(y.copy())

    keep(0.0)

    t, pkg = 0.0, None
    while t_final - t > 1e-15 * max(1.0, abs(t_final)):
        if traj.steps_taken == control.max_steps:
            traj.status = STATUS_BLOWUP
            traj.stop_detail = (
                f"step budget exhausted: {control.max_steps} steps reached"
                f" t={t:.6g} before t={t_final}"
            )
            break
        try:
            if pkg is None:
                pkg = ChernPackage(grid, y)
            dt = control.step_size(pkg, t_final - t)
            y_next = _rk4_step(velocity, pkg, dt)
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
        pkg, below = _accept(grid, y_next, formulation)
        if pkg is None:
            traj.status = STATUS_SINGULARITY
            traj.stop_detail = f"{below} at t={t + dt:.6g}"
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
