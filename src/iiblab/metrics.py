"""Hermitian metric fields on the torus and their volume data.

A metric field is a grid of positive Hermitian matrices ``g[..., k, j]``
where the FIRST matrix index is the barred one.  The associated positive
(1,1)-form is ``i g[kbar,j] dz^j ^ dzbar^k``.

The holomorphic volume form on the torus is ``Omega = dz^1 ^ ... ^ dz^n``;
its pointwise norm against a metric g is

    norm_sq = 1 / det g.

Positivity, this determinant and the inverse metric all come from one
Cholesky factor of the metric, a :class:`MetricFactor`.

A metric is *balanced* when d(omega^{n-1}) = 0 and *conformally balanced*
when d(u omega^{n-1}) = 0, u = ||Omega||_g; the flow preserves the latter.
Its defect is a divergence of minors of g.  By :mod:`iiblab.forms` the
component of omega^{n-1} on dz^{~a} ^ dzbar^{~b} (~a: all labels but a)
is c M[b, a], with M[b, a] = det g[~b, ~a] and one constant c.  Only d_a
and dbar_b of it reach the top degree, with the signs s_a = (-1)^a of
moving dz^a into place and (-1)^{n-1} s_b of moving dzbar^b there:

    del(u omega^{n-1})[b]    = c sum_{a active} s_a d_a (u M[b, a]),
    delbar(u omega^{n-1})[a] = (-1)^{n-1} c sum_{b active} s_b dbar_b (u M[b, a]).

As s_a s_b M[b, a] is the cofactor of g[b, a], these are divergences of
det(g)^{1/2} g^-1 up to sign.  :func:`balanced_defect_parts` never forms
that inverse; it differentiates u times the stack of minors, and
:func:`conformally_balanced_defect` is its max norm.

Live slots.  A slot (a, b) of a metric field is *live* when g[a, b] or
g[b, a] is non-zero at some node; the README and flat families keep only
the diagonal live at every step.  Which slots of the Cholesky factor, its
inverse and the inverse metric are live follows from that pattern alone
(George and Liu, *Computer Solution of Large Sparse Positive Definite
Systems*, 1981): the factor gains the fill of the elimination, and g^-1
is dense on each block of the pattern's closure (a tridiagonal g has a
dense inverse).  :class:`MetricFactor` finds the pattern and computes only
the live slots, and :mod:`iiblab.chern` propagates it through its products
as boolean matrix products.  Skipping a structurally zero term is bit
exact: each dropped term is 0 * finite = +-0 on the finite metrics that
:func:`check_positive` admits, every sum it leaves is x + 0 = x, and sums
that start from +0 never become -0, so the live slots keep every bit and
the dead ones are +0.  With every slot live each loop is the one dense
broadcast.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import GridError, HermiticityError, PositivityError
from .forms import exterior_d, omega_power
from .grid import TorusGrid

__all__ = [
    "MetricFactor",
    "live_slots",
    "slot_rects",
    "block_eigenvalues",
    "hermitize",
    "hermiticity_defect",
    "is_positive",
    "check_positive",
    "min_eigenvalue",
    "flat_metric",
    "balanced_band_metric",
    "random_band_metric",
    "fourier_scalar",
    "volume_norm_sq",
    "volume_norm",
    "balanced_defect_parts",
    "conformally_balanced_defect",
]

HERMITICITY_TOLERANCE = 1e-12


def hermitize(g: np.ndarray) -> np.ndarray:
    """Average a matrix field with its conjugate transpose."""
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


def hermiticity_defect(g: np.ndarray, live: np.ndarray | None = None) -> float:
    """Max of ``|g - g^H|``; on the slots of the symmetric pattern ``live``
    only when given (every other slot is 0 in g and in g^H)."""
    rects = _FULL if live is None else slot_rects(live)
    with np.errstate(invalid="ignore"):  # a non-finite entry gives NaN or inf
        return float(functools.reduce(np.maximum, [  # NaN wins
            np.abs(g[..., r, c] - np.conj(np.swapaxes(g[..., c, r], -1, -2))).max()
            for r, c in rects
        ]))


def live_slots(g: np.ndarray) -> np.ndarray:
    """Symmetric boolean pattern of the slots (a, b) where ``g[..., a, b]`` or
    ``g[..., b, a]`` is non-zero (or NaN) at some node.

    A slot that is non-zero at the first node costs no scan, so a dense
    field is read once, at that node.
    """
    first = g[(0,) * (g.ndim - 2)] != 0
    live = first | first.T
    if not live.all():
        for i, j in zip(*np.nonzero(~live)):
            if j <= i:
                live[i, j] = live[j, i] = bool(g[..., i, j].any() or g[..., j, i].any())
    return live


def _runs(mask: np.ndarray) -> list[slice]:
    """The maximal runs of True in a boolean vector, as slices."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return [slice(int(s), int(e)) for s, e in zip(edges[::2], edges[1::2])]


def _index(mask: np.ndarray) -> slice | np.ndarray:
    """The True positions of a boolean vector: a slice when they form one
    run (or none), else a read-only index array."""
    runs = _runs(mask)
    if len(runs) <= 1:
        return runs[0] if runs else slice(0, 0)
    out = np.flatnonzero(mask)
    out.flags.writeable = False
    return out


def _pattern(key: bytes) -> np.ndarray:
    """The boolean n x n pattern whose bytes are ``key``, read-only."""
    return np.frombuffer(key, dtype=bool).reshape((math.isqrt(len(key)),) * 2)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean matrix product: the live slots of a product of matrices with
    live slots x and y."""
    return (x[:, :, None] & y[None, :, :]).any(axis=1)


def slot_rects(live: np.ndarray) -> tuple[tuple[slice, slice], ...]:
    """Cover the True slots of a boolean n x n pattern exactly by rectangles
    ``(rows, cols)`` of slices: maximal runs of consecutive rows with the
    same columns, split into runs of columns.  A dense pattern is one
    rectangle, the whole matrix; a diagonal one is its n 1 x 1 slots."""
    return _rects(np.ascontiguousarray(live, dtype=bool).tobytes())


@functools.lru_cache(maxsize=None)
def _rects(key: bytes) -> tuple[tuple[slice, slice], ...]:
    live, out, start = _pattern(key), [], 0
    for i in range(1, len(live) + 1):
        if i == len(live) or (live[i] != live[start]).any():
            out += [(slice(start, i), cols) for cols in _runs(live[start])]
            start = i
    return tuple(out)


_FULL = ((slice(None), slice(None)),)


class _FactorPlan:
    """Symbolic Cholesky factorization of a live-slot pattern (module docstring).

    ``ginv`` holds the live slots of g^-1 and ``blocks`` the blocks of its
    closure.  Each sum of the numeric factorization gets the index of the
    k whose terms are live: ``pivots[j]`` for pivot j, ``column[j]`` the
    ``(i, k)`` of each live L[i, j], i > j, ``inverse_row[i]`` the
    ``(j, k)`` of each live L^-1[i, j], j < i, and ``ginv_row[p]`` the
    ``(a, k)`` of each live g^-1[p, a], a >= p.  With every slot live each
    index is the slice of the dense loops.
    """

    def __init__(self, key: bytes):
        live = _pattern(key)
        n, at = len(live), np.arange(len(live))
        low = np.tril(live)  # L, with the fill of the elimination
        for j in range(n):
            for i in range(j + 1, n):
                low[i, j] |= (low[i, :j] & low[j, :j]).any()
        inv = np.eye(n, dtype=bool)  # L^-1
        for i in range(n):
            for j in range(i):
                inv[i, j] = (low[i, j:i] & inv[j:i, j]).any()
        self.ginv = _product(inv.T, inv)
        self.ginv.flags.writeable = False
        self.blocks = sorted({tuple(np.flatnonzero(row)) for row in self.ginv})
        self.pivots = [_index(low[j, :j]) for j in range(n)]
        self.column = [[(i, _index(low[i] & low[j] & (at < j))) for i in range(j + 1, n) if low[i, j]]
                       for j in range(n)]
        self.inverse_row = [[(j, _index(low[i] & inv[:, j] & (at >= j) & (at < i)))
                             for j in range(i) if inv[i, j]]
                            for i in range(n)]
        self.ginv_row = [[(a, _index(inv[:, p] & inv[:, a] & (at >= a)))
                          for a in range(p, n) if self.ginv[p, a]]
                         for p in range(n)]


@functools.lru_cache(maxsize=None)
def _factor_plan(key: bytes) -> _FactorPlan:
    return _FactorPlan(key)


def block_eigenvalues(g: np.ndarray) -> list[np.ndarray]:
    """Eigenvalues of a Hermitian matrix field, one array per block of its
    live slots (:func:`live_slots`).

    A 1 x 1 block is its real diagonal entry, exactly; a coupled block
    takes LAPACK (``eigvalsh``, which reads its lower triangle).  Together
    they are the eigenvalues of g.
    """
    out = []
    for block in _factor_plan(live_slots(g).tobytes()).blocks:
        if len(block) == 1:
            out.append(g[..., block[0], block[0]].real)
        elif len(block) == g.shape[-1]:
            out.append(np.linalg.eigvalsh(g))
        else:
            out.append(np.linalg.eigvalsh(g[..., block, :][..., block]))
    return out


def min_eigenvalue(g: np.ndarray) -> float:
    return float(min(e.min() for e in block_eigenvalues(g)))


class MetricFactor:
    """Cholesky factor ``g = L L^H`` of a Hermitian matrix field, grid-last.

    Unrolled over the n x n index slots, each a contiguous array over the
    batch axes, from the lower triangle of g (Golub and Van Loan, *Matrix
    Computations*, 4.2); a pivot that is not positive and finite raises
    :class:`PositivityError`.  ``det`` is the product of the pivots,
    ``inv_chol`` is ``L^-1`` by forward substitution and ``ginv`` is
    ``L^-H L^-1``, exactly Hermitian, both with the index slots first.
    ``live`` is :func:`live_slots` of g and ``ginv_live`` the live slots of
    ``ginv``; every slot of ``lower``, ``inv_chol`` and ``ginv`` that the
    pattern leaves dead is never computed and holds +0 (module docstring).
    """

    def __init__(self, g: np.ndarray):
        a = np.moveaxis(g, (-2, -1), (0, 1))
        self.live = live_slots(g)
        self.live.flags.writeable = False
        self._plan = plan = _factor_plan(self.live.tobytes())
        self.ginv_live = plan.ginv
        self.lower = low = np.zeros(a.shape, dtype=complex)
        self.det = 1.0
        for j in range(a.shape[0]):
            k = plan.pivots[j]
            d = a[j, j].real - (low[j, k].real ** 2 + low[j, k].imag ** 2).sum(axis=0)
            if not (d.min() > 0.0 and d.max() < np.inf):
                raise PositivityError(f"metric not positive definite: Cholesky pivot {j}"
                                      f" spans [{d.min():.3e}, {d.max():.3e}]")
            self.det = self.det * d
            low[j, j] = root = np.sqrt(d)
            for i, k in plan.column[j]:
                low[i, j] = (a[i, j] - (low[i, k] * np.conj(low[j, k])).sum(axis=0)) / root

    @functools.cached_property
    def inv_chol(self) -> np.ndarray:
        low, out = self.lower, np.zeros_like(self.lower)
        for i in range(len(low)):
            out[i, i] = scale = 1.0 / low[i, i].real
            for j, k in self._plan.inverse_row[i]:
                out[i, j] = -scale * (low[i, k] * out[k, j]).sum(axis=0)
        return out

    @functools.cached_property
    def ginv(self) -> np.ndarray:
        m = self.inv_chol
        out = (np.empty_like if self.ginv_live.all() else np.zeros_like)(m)
        for p, row in enumerate(self._plan.ginv_row):
            for a, k in row:
                if a == p:
                    out[p, p] = (m[k, p].real ** 2 + m[k, p].imag ** 2).sum(axis=0)
                else:
                    out[p, a] = (np.conj(m[k, p]) * m[k, a]).sum(axis=0)
                    out[a, p] = np.conj(out[p, a])
        return out


def is_positive(g: np.ndarray, floor: float | np.ndarray = 0.0) -> bool:
    """Whether every matrix of ``g - floor * I`` is finite and has a Cholesky factor.

    ``floor`` is one number, or one per node with two trailing unit axes.
    """
    try:
        MetricFactor(g - floor * np.eye(g.shape[-1]))
    except PositivityError:
        return False
    return bool(np.isfinite(g).all())


def check_positive(g: np.ndarray) -> MetricFactor:
    """Validate Hermiticity (a non-finite entry fails it) and positivity.

    Returns the :class:`MetricFactor`.  The factor comes first, so the
    Hermiticity check reads only its live slots (the others are 0 in g and
    in g^H); the eigenvalues are computed only on failure, for the message.
    """
    try:
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite g fails below
            factor = MetricFactor(g)
    except PositivityError:
        factor = None
    defect = hermiticity_defect(g, None if factor is None else factor.live)
    if not defect <= HERMITICITY_TOLERANCE:
        raise HermiticityError(f"matrix field deviates from Hermitian by {defect:.3e}")
    if factor is None:
        raise PositivityError(f"metric loses positivity: min eigenvalue {min_eigenvalue(g):.3e}")
    return factor


# -- constructors -------------------------------------------------------------


def flat_metric(grid: TorusGrid) -> np.ndarray:
    g = np.zeros(grid.shape + (grid.n, grid.n), dtype=complex)
    for j in range(grid.n):
        g[..., j, j] = 1.0
    return g


def _phase(grid: TorusGrid, ks) -> np.ndarray:
    """``2 pi k.u`` over the active coordinates u, one wave number per active axis."""
    phase = np.zeros(grid.shape, dtype=float)
    for k_int, axis in zip(ks, grid.active_axes):
        phase = phase + 2.0 * np.pi * float(k_int) * grid.coordinate(axis)
    return phase


def fourier_scalar(grid: TorusGrid, terms) -> np.ndarray:
    """Real scalar field from a list of Fourier terms.

    Each term is ``[k.., re, im]``: one integer per active real axis
    followed by the real and imaginary part of the coefficient ``a``.  The
    field gains ``Re(a * exp(2 pi i k.u))`` where ``u`` are the active
    coordinates.  Terms use the same axis order as ``grid.active_axes``.
    """
    out = np.zeros(grid.shape, dtype=float)
    m = len(grid.active_axes)
    for term in terms:
        if len(term) != m + 2:
            raise GridError(
                f"fourier term needs {m} wave numbers + 2 coefficient parts: {term}"
            )
        ks, (re, im) = term[:m], term[m:]
        a = complex(re, im)
        out = out + (a * np.exp(1j * _phase(grid, ks))).real
    return out


def balanced_band_metric(grid: TorusGrid, f: np.ndarray, stretch: float = 1.0) -> np.ndarray:
    """Anisotropic conformally balanced family driven by one scalar f.

    ``g = diag(stretch**2 * exp((n-1) f), exp(f), ..., exp(f))`` has
    ``norm * omega^{n-1}`` with coefficient ``1 / stretch`` on the component
    missing direction 0 and ``stretch * exp((n-2) f)`` on every other one.
    It is therefore exactly conformally balanced whenever f varies only
    along real axes 0 and 1, the coordinates of direction 0.  With n = 3
    this is the closed-form family used by the stationarity and
    preservation checks.
    """
    n = grid.n
    g = np.zeros(grid.shape + (n, n), dtype=complex)
    g[..., 0, 0] = (stretch ** 2) * np.exp(float(n - 1) * f)
    for j in range(1, n):
        g[..., j, j] = np.exp(f)
    return g


def random_band_metric(
    grid: TorusGrid,
    seed: int,
    amplitude: float = 0.05,
    kmax: int = 1,
) -> np.ndarray:
    """Random analytic positive metric ``g = exp(H)`` with band-limited H.

    The Hermitian exponent is a sum over integer wave vectors with entries
    in ``[-kmax, kmax]`` of smooth real oscillations times fixed random
    Hermitian matrices, rescaled so an analytic bound on the spectral
    norm of H equals ``amplitude`` (the realized sup is a little below).
    Drawing and scaling are resolution independent: the same seed samples
    the same analytic field on every grid, which is what lets refinement
    studies compare residuals of one field at two resolutions.
    """
    if not (0.0 < amplitude <= 0.3):
        raise PositivityError(
            f"amplitude {amplitude} outside (0, 0.3]; large exponents risk"
            " aliasing and loss of positivity"
        )
    rng = np.random.default_rng(seed)
    n = grid.n
    m = len(grid.active_axes)
    H = np.zeros(grid.shape + (n, n), dtype=complex)

    # half-space of wave vectors so each mode appears once
    waves = []
    for kvec in itertools.product(range(-kmax, kmax + 1), repeat=m):
        if all(c == 0 for c in kvec):
            continue
        first = next(c for c in kvec if c != 0)
        if first > 0:
            waves.append(kvec)

    bound = 0.0
    for kvec in waves:
        phase = _phase(grid, kvec)
        pair_norms = []
        for osc in (np.cos(phase), np.sin(phase)):
            raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            herm = 0.5 * (raw + np.conj(raw.T))
            H = H + osc[..., None, None] * herm
            pair_norms.append(np.linalg.norm(herm, ord=2))
        # cos*A + sin*B never exceeds hypot(|A|, |B|) in spectral norm
        bound += float(np.hypot(*pair_norms))

    if bound > 0:
        H = H * (amplitude / bound)

    vals, vecs = np.linalg.eigh(H)
    g = np.einsum("...ab,...b,...cb->...ac", vecs, np.exp(vals), np.conj(vecs))
    return hermitize(g)


# -- volume data --------------------------------------------------------------


def volume_norm_sq(g: np.ndarray) -> np.ndarray:
    """Pointwise squared norm of the holomorphic volume form."""
    return 1.0 / MetricFactor(g).det


def volume_norm(g: np.ndarray) -> np.ndarray:
    return np.sqrt(volume_norm_sq(g))


def balanced_defect_parts(
    grid: TorusGrid, g: np.ndarray, norm: np.ndarray | None = None
) -> list[np.ndarray]:
    """Component arrays of d( ||Omega||_g  omega^{n-1} ): the n del parts,
    then the n delbar parts, each in key order (module docstring).

    ``norm`` is ``volume_norm(g)`` when the caller already holds it.  The
    list is never empty: every grid has an active direction.
    """
    u = volume_norm(g) if norm is None else norm
    return exterior_d(grid, u * omega_power(g, grid.n - 1))


def conformally_balanced_defect(
    grid: TorusGrid, g: np.ndarray, norm: np.ndarray | None = None
) -> float:
    """Max norm of d( ||Omega||_g  omega^{n-1} ) over the grid.

    Zero exactly when the metric satisfies the conformally balanced
    condition the flow preserves.
    """
    return max(float(np.abs(v).max()) for v in balanced_defect_parts(grid, g, norm))
