"""Connection, curvature, and torsion of a Hermitian metric field.

Tensors are ndarrays with grid axes first and index axes last, except
the three stored on the active directions only.  Fields vary only along
the active directions (those with an active real axis), so the metric
derivative ``dg`` and the connection ``gamma`` are exact zeros along the
others, and the curvature is zero unless both of its form slots are
active.  ``active_dg``, ``active_gamma`` and ``active_curvature`` hold
the live entries as contiguous grid-last stacks, shape (|A|, n, n, *grid)
and (|A|, |A|, n, n, *grid) for |A| active directions; the second Ricci
form, the torsion square and trace, the torsion and ``covd`` read them,
and so do the verifiers.  Only ``gamma`` is also scattered into the full
grid-first shape, and only when asked for (the verifiers ask for it; the
weighted right-hand side does not); the curvature exists only as its
stack.  The index layout of every cached tensor is documented on its
property.  A *signature string* describes the index axes of an array, one
character per trailing axis:

    'u'  upper unbarred   (gains  +Gamma under the unbarred derivative)
    'l'  lower unbarred   (gains  -Gamma)
    'U'  upper barred     (gains  +conj(Gamma) under the barred derivative)
    'L'  lower barred     (gains  -conj(Gamma))

The unbarred covariant derivative corrects only 'u'/'l' slots and the
barred one only 'U'/'L' slots, which is the defining property of the
connection used here (the unique metric connection whose barred
derivative of any holomorphic frame vanishes).  New derivative indices
are prepended as the FIRST index axis, with signature 'l' or 'L'.  A slot
that a derivative does not correct is never mixed with its neighbours, so
it may hold only some directions (the live ones): the derivative of that
slice is the same slice of the full derivative, bit for bit.

Live slots.  The slots of the metric that are exact zeros at every node
(:func:`metrics.live_slots`) stay zero in ``dg``, and the
:class:`metrics.MetricFactor` knows the live slots of ``ginv``.  Every
product below takes its live slots as the boolean product of its
factors' (:class:`_SlotPlan`), and each grid-last slot loop runs on
``slot_rects`` of the live part only, so on a diagonal metric the
connection, curvature and torsion contractions touch n of the n^2 slots,
and with every slot live each loop is one dense broadcast.  The result
is bit-identical to the dense loops (the :mod:`iiblab.metrics` docstring
says why).  The torsion square keeps the term that couples the blocks of
two different active directions, so a diagonal metric varying along two
directions has a live off-diagonal ``ttbar``.

Index-first-barred convention: the metric array ``g[..., k, j]`` holds
the component with barred row k and unbarred column j, and the inverse
``ginv[..., p, a]`` holds the component with unbarred row p.  Both
``ginv`` and ``norm_sq`` come from the one :class:`metrics.MetricFactor`.
"""

from __future__ import annotations

import functools
import string

import numpy as np

from .errors import ValenceError
from .grid import SPECTRAL, TorusGrid
from .metrics import _factor_plan, _product, _runs, check_positive, slot_rects

__all__ = [
    "ChernPackage",
    "pair_endo_forms",
]

_LETTERS = string.ascii_lowercase.replace("m", "").replace("p", "")


class _SlotPlan:
    """Live slots of every grid-last product of a :class:`ChernPackage`.

    Built once per live-slot pattern of g and set of active directions
    from G, the live slots of g and of each ``dg[i]``, and B, those of
    ``ginv``.  Each kernel reads the rectangles (:func:`metrics.slot_rects`)
    or the slot pairs it loops over; the attributes ending in ``_live``
    are the patterns of the results.
    """

    def __init__(self, key: bytes, active: tuple[int, ...]):
        inv_live = _factor_plan(key).ginv  # B
        live = np.frombuffer(key, dtype=bool).reshape(inv_live.shape)  # G
        n = len(live)

        def outer(rows, cols):
            return slot_rects(np.outer(rows, cols))

        gamma = _product(inv_live, live)
        self.gamma = [(a, outer(inv_live[:, a], live[a])) for a in range(n)]
        self.traced = [(j_at, k_at, j, k) for j_at, j in enumerate(active)
                       for k_at, k in enumerate(active) if inv_live[j, k]]
        self.traced_rects = slot_rects(gamma)
        self.ricci = [(l, outer(live[:, l], gamma[l])) for l in range(n)]
        self.ricci_live = _product(live, gamma)

        r_live = _product(live, inv_live)
        self.r = [(q, outer(live[:, q], inv_live[q])) for q in range(n)]
        r_rects = slot_rects(r_live)
        self.ttbar, ttbar_live = [], np.zeros_like(live)
        for a_at, a in enumerate(active):
            u_live, u_terms = np.zeros_like(live), []
            for p_at, p in enumerate(active):
                u_live |= np.outer(r_live[:, a], inv_live[p]) | (r_live & inv_live[p, a])
                u_terms.append((p_at, p, r_rects if inv_live[p, a] else (),
                                outer(r_live[:, a], inv_live[p])))
            out_terms = [(b, outer(u_live[:, b], live[:, b])) for b in range(n)]
            self.ttbar.append((a_at, a, u_terms, out_terms))
            ttbar_live |= _product(u_live, live.T)
        self.ttbar_live = ttbar_live
        self.ttbar_rects = slot_rects(ttbar_live)

        self.tau = [[(q, _runs(live[q])) for q in range(n) if inv_live[p, q]] for p in active]
        self.tau_pairs = _pairs(live & inv_live.T)
        self.t_norm_pairs = _pairs(inv_live & ttbar_live.T)


def _pairs(live: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The live (a, b) of a pattern in row-major order, None when all are live."""
    return None if live.all() else np.nonzero(live)


def _pair_sum(x: np.ndarray, y: np.ndarray, pairs, real: bool = False) -> np.ndarray:
    """``sum x[a, b] * y[a, b]`` (its real part when ``real``) over the live
    pairs, in the row-major order of the dense sum over both slot axes."""
    if pairs is None:
        terms, axes = x * y, (0, 1)
    else:
        terms, axes = x[pairs] * y[pairs], 0
    return (terms.real if real else terms).sum(axis=axes)


@functools.lru_cache(maxsize=None)
def _slot_plan(key: bytes, active: tuple[int, ...]) -> _SlotPlan:
    return _SlotPlan(key, active)


class ChernPackage:
    """Caches every derived tensor of one metric snapshot.

    Instances treat the metric array as immutable; build a new package
    after any update.  The derivative scheme is fixed per package so a
    single snapshot can be analyzed twice (spectrally and with finite
    differences) and the results compared.  Construction checks that the
    metric is Hermitian and positive definite and keeps its Cholesky
    factor as ``factor``.
    """

    def __init__(self, grid: TorusGrid, g: np.ndarray, scheme: str = SPECTRAL):
        expected = grid.shape + (grid.n, grid.n)
        if g.shape != expected:
            raise ValenceError(f"metric shape {g.shape}, expected {expected}")
        self.grid = grid
        self.g = np.asarray(g, dtype=complex)
        self.scheme = scheme
        self.factor = check_positive(self.g)
        self.slots = _slot_plan(self.factor.live.tobytes(), grid.active_directions)

    # -- first layer: derivatives of the metric ------------------------------
    #
    # Fields vary only along the active directions, so dg and gamma vanish
    # along every inactive direction, and the curvature unless both of its
    # form slots are active.  These three are stored only on the active
    # directions, as grid-last stacks (index axes first, grid axes last,
    # contiguous); every contraction below reads the stacks and is a short
    # loop of broadcast products of contiguous grid arrays.  The full-shape
    # grid-first gamma is scattered from its stack only when asked for.

    @functools.cached_property
    def ginv(self) -> np.ndarray:
        """Inverse metric, ``ginv[..., p, a]`` with p the unbarred row."""
        return self.grid.to_grid_first(self.factor.ginv)

    @functools.cached_property
    def _g_last(self) -> np.ndarray:
        return np.ascontiguousarray(self.grid.to_grid_last(self.g))

    @functools.cached_property
    def active_dg(self) -> np.ndarray:
        """Grid-last ``dg[i, a, b]``: holomorphic derivative of g along the
        i-th active direction."""
        requests = [(j, False) for j in self.grid.active_directions]
        return self.grid.derivatives(self.grid.to_grid_last(self.g), requests, self.scheme)

    @functools.cached_property
    def active_gamma(self) -> np.ndarray:
        """Grid-last connection ``gamma[i, p, q]`` along the i-th active direction.

        ``gamma[i, p, q] = sum_a ginv[p, a] dg[i, a, q]`` (upper p, lower q).
        """
        ginv, dg = self.factor.ginv, self.active_dg
        out = np.zeros_like(dg)
        for i in range(len(dg)):
            for a, rects in self.slots.gamma:
                for r, c in rects:
                    out[i, r, c] += ginv[r, a, None] * dg[i, a, c]
        return out

    @functools.cached_property
    def gamma(self) -> np.ndarray:
        """Connection ``gamma[..., m, a, b]`` (upper a, lowers m and b), full shape.

        Scattered from :attr:`active_gamma`; the inactive m are exact zeros.
        """
        out = np.zeros((self.grid.n,) + self.active_gamma.shape[1:], dtype=complex)
        out[list(self.grid.active_directions)] = self.active_gamma
        return self.grid.to_grid_first(out)

    @functools.cached_property
    def active_curvature(self) -> np.ndarray:
        """Grid-last ``curv[k, j, a, b]`` on the active (k, j): minus the barred
        derivative along the k-th active direction of the j-th active gamma."""
        grid, gamma = self.grid, self.active_gamma
        out = np.empty((len(gamma),) + gamma.shape, dtype=complex)
        requests = [(k, True) for k in grid.active_directions]
        for j, gamma_j in enumerate(gamma):
            np.negative(grid.derivatives(gamma_j, requests, self.scheme), out=out[:, j])
        return out

    @functools.cached_property
    def second_ricci(self) -> np.ndarray:
        """Both-lower contraction ``out[..., p, q]`` (p barred).

        ``out[p, q] = sum g[p, l] ginv[j, k] curv[k, j, l, q]``.
        """
        ginv, curv, slots = self.factor.ginv, self.active_curvature, self.slots
        traced = np.zeros_like(ginv)
        for j_at, k_at, j, k in slots.traced:
            for r, c in slots.traced_rects:
                traced[r, c] += ginv[j, k] * curv[k_at, j_at, r, c]
        g = self._g_last
        out = np.zeros_like(ginv)
        for l, rects in slots.ricci:
            for r, c in rects:
                out[r, c] += g[r, l, None] * traced[l, c]
        return self.grid.to_grid_first(out)

    @functools.cached_property
    def t_low(self) -> np.ndarray:
        """Torsion ``t_low[..., k, j, m] = dg[..., j, k, m] - dg[..., m, k, j]``."""
        dg = self.active_dg
        out = np.zeros((self.grid.n,) + dg.shape[1:], dtype=complex)
        for i, a in enumerate(self.grid.active_directions):
            out[:, a] += dg[i]
            out[:, :, a] -= dg[i]
        return self.grid.to_grid_first(out)

    @functools.cached_property
    def t_up(self) -> np.ndarray:
        """Torsion ``t_up[..., m, j, p]`` with the first slot raised."""
        # C order: ginv is a strided view, and a strided t_up would make the
        # verifiers' residuals strided too (a copy in every flattening)
        return np.einsum("...mq,...qjp->...mjp", self.ginv, self.t_low, order="C")

    @functools.cached_property
    def tau(self) -> np.ndarray:
        """Torsion trace one-form ``tau[..., i]``.

        ``tau[i] = sum ginv[p, q] (dg[p, q, i] - dg[i, q, p])``, the trace of
        :attr:`t_up` taken without forming it.  dg vanishes unless its first
        index is active, so the first term sums over active p and the second
        is non-zero only on the active i.
        """
        ginv, dg = self.factor.ginv, self.active_dg
        ginv_t = np.swapaxes(ginv, 0, 1)
        out = np.zeros_like(ginv[0])
        for i, (p, row) in enumerate(zip(self.grid.active_directions, self.slots.tau)):
            for q, runs in row:
                for c in runs:
                    out[c] += ginv[p, q] * dg[i, q, c]
            out[p] -= _pair_sum(ginv_t, dg[i], self.slots.tau_pairs)
        return self.grid.to_grid_first(out)

    @functools.cached_property
    def ttbar(self) -> np.ndarray:
        """Hermitian square ``ttbar[..., k, j]`` of the torsion (k barred).

        ``ttbar[k, j] = sum t_low[k, p, q] conj(t_low[j, a, b]) ginv[p, a]
        ginv[q, b]``.  With ``t_low[k, p, q] = dg[p, k, q] - dg[q, k, p]`` the
        raised torsion is ``u[k, a, b] = w[k, a, b] - w[k, b, a]``, where
        ``w[k, a, b] = sum_p ginv[p, a] r_p[k, b]`` and ``r_p = dg[p] ginv``.
        Since u is antisymmetric in (a, b),
        ``ttbar[k, j] = 2 sum u[k, a, b] conj(dg[a, j, b])``.  Every sum over
        the first index of dg (p and a) runs over the active directions only.
        """
        ginv, dg, slots = self.factor.ginv, self.active_dg, self.slots
        r = [np.zeros_like(ginv) for _ in dg]
        for r_p, dg_p in zip(r, dg):
            for q, rects in slots.r:
                for rows, c in rects:
                    r_p[rows, c] += dg_p[rows, q, None] * ginv[q, c]
        out = np.zeros_like(ginv)
        for a_at, a, u_terms, out_terms in slots.ttbar:
            u = np.zeros_like(ginv)
            for p_at, p, scaled, crossed in u_terms:
                for rows, c in scaled:
                    u[rows, c] += ginv[p, a] * r[p_at][rows, c]
                for rows, c in crossed:  # couples the blocks of a and p
                    u[rows, c] -= r[p_at][rows, a, None] * ginv[p, c]
            dg_bar = np.conj(dg[a_at])
            for b, rects in out_terms:
                for rows, c in rects:
                    out[rows, c] += u[rows, b, None] * dg_bar[c, b]
        for rows, c in slots.ttbar_rects:
            out[rows, c] *= 2.0
        return self.grid.to_grid_first(out)

    @functools.cached_property
    def t_norm_sq(self) -> np.ndarray:
        """Pointwise squared torsion norm (all free slots contracted):
        ``sum ginv[j, k] ttbar[k, j]``, grid-last."""
        ttbar = self.grid.to_grid_last(self.ttbar)
        return _pair_sum(self.factor.ginv, np.swapaxes(ttbar, 0, 1), self.slots.t_norm_pairs, real=True)

    @functools.cached_property
    def norm_sq(self) -> np.ndarray:
        """Squared volume-form norm ``1 / det g`` at each node."""
        return 1.0 / self.factor.det

    @functools.cached_property
    def log_norm(self) -> np.ndarray:
        """Dilaton: half the log of :attr:`norm_sq`."""
        return 0.5 * np.log(self.norm_sq)

    # -- covariant derivatives ------------------------------------------------

    def _check_signature(self, arr: np.ndarray, sig: str):
        if arr.ndim != self.grid.ndim_grid + len(sig):
            raise ValenceError(
                f"array rank {arr.ndim} does not match grid + signature '{sig}'"
            )
        if any(ch not in "ulUL" for ch in sig):
            raise ValenceError(f"bad signature '{sig}'")
        if len(sig) > len(_LETTERS):
            raise ValenceError("tensor rank too large")

    def covd(self, arr: np.ndarray, sig: str) -> np.ndarray:
        """Unbarred covariant derivative; result signature 'l' + sig.

        gamma and the derivatives along an inactive direction vanish, so
        the connection corrections touch only the active slices of the new
        slot, in place; the other slices are the gradient's exact zeros.
        A 'U'/'L' slot, which this derivative does not correct, may hold
        only the live directions (module docstring): ``covd(x[..., act, :],
        "Ll")`` is ``covd(x, "Ll")[..., :, act, :]`` bit for bit.
        """
        return self._covd_impl(arr, sig, barred=False)

    def covd_bar(self, arr: np.ndarray, sig: str) -> np.ndarray:
        """Barred covariant derivative; result signature 'L' + sig (as :meth:`covd`,
        with the 'u'/'l' slots the ones that may hold only the live directions)."""
        return self._covd_impl(arr, sig, barred=True)

    def _covd_impl(self, arr: np.ndarray, sig: str, barred: bool) -> np.ndarray:
        self._check_signature(arr, sig)
        arr = np.asarray(arr, dtype=complex)
        out = self.grid.holomorphic_gradient(arr, self.scheme, barred=barred)
        active = self.grid.active_directions
        gamma = self.grid.to_grid_first(self.active_gamma)
        if barred:
            gamma = np.conj(gamma)
        touched = {"U", "L"} if barred else {"u", "l"}
        letters = _LETTERS[: len(sig)]
        on_grid = (slice(None),) * self.grid.ndim_grid
        for slot, ch in enumerate(sig):
            if ch not in touched:
                continue
            arr_sub = letters[:slot] + "m" + letters[slot + 1:]
            if ch in ("u", "U"):
                gamma_sub, op = "p" + letters[slot] + "m", np.add
            else:
                gamma_sub, op = "pm" + letters[slot], np.subtract
            term = np.einsum(f"...{gamma_sub},...{arr_sub}->...p{letters}", gamma, arr)
            for i, p in enumerate(active):
                live = out[on_grid + (p,)]
                op(live, term[on_grid + (i,)], out=live)
        return out

    def scalar_laplacian(self, f: np.ndarray) -> np.ndarray:
        """Metric trace of the mixed Hessian of a scalar field."""
        n = self.grid.n
        requests = [(p, False, q, True) for p in range(n) for q in range(n)]
        hess = self.grid.derivatives(np.asarray(f, dtype=complex), requests, self.scheme)
        hess = hess.reshape((n, n) + self.grid.shape)
        return np.einsum("pq...,pq...->...", self.factor.ginv, hess)


def pair_endo_forms(m1, m2, m3, x, y) -> np.ndarray:
    """Sesquilinear pairing of endomorphism-valued one-forms (conjugate on y).

    ``sum m1[m, g] m2[u, b] m3[l, a] x[m, b, l] conj(y[g, u, a])``: ``m1``
    contracts the form slots, ``m2`` the upper endomorphism slots and ``m3``
    the lower ones.  This is the one pairing of such forms; its ``(ginv, g,
    ginv)`` case, with x = y over every form slot, is the squared norm of
    x.  It runs grid-last, as
    ``sum_m sum_{u,a} z_m[u, a] w_m[u, a]`` with ``z_m = m2 x_m m3`` and
    ``w_m = sum_g m1[m, g] conj(y_g)``.  Inputs are grid-first, with any
    number of leading grid axes.  The form slots may be fewer than the
    endomorphism slots (the active directions only), and x and y may hold
    different numbers of them: ``m1`` is forms(x) x forms(y), restricted
    to the slots each one holds, and the endomorphism size comes from ``m2``.
    """
    def grid_last(arr, rank):
        return np.ascontiguousarray(np.moveaxis(arr, range(-rank, 0), range(rank)), complex)

    m1, m2, m3 = (grid_last(m, 2) for m in (m1, m2, m3))
    x_last = grid_last(x, 3)
    y_bar = np.conj(x_last if y is x else grid_last(y, 3))
    size = m2.shape[0]
    out = np.zeros_like(m2)
    for m in range(len(x_last)):
        xm3 = np.zeros_like(m2)
        for l in range(size):
            xm3 += x_last[m, :, l, None] * m3[l]
        z = np.zeros_like(m2)
        for b in range(size):
            z += m2[:, b, None] * xm3[b]
        w = np.zeros_like(m2)
        for g in range(len(y_bar)):
            w += m1[m, g] * y_bar[g]
        out += z * w
    return out.sum(axis=(0, 1))
