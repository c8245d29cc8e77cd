"""Connection, curvature, and torsion of a Hermitian metric field.

All tensors are ndarrays with grid axes first and index axes last.  The
index layout of every cached tensor is documented on its property.  A
*signature string* describes the index axes of an array, one character
per trailing axis:

    'u'  upper unbarred   (gains  +Gamma under the unbarred derivative)
    'l'  lower unbarred   (gains  -Gamma)
    'U'  upper barred     (gains  +conj(Gamma) under the barred derivative)
    'L'  lower barred     (gains  -conj(Gamma))

The unbarred covariant derivative corrects only 'u'/'l' slots and the
barred one only 'U'/'L' slots, which is the defining property of the
connection used here (the unique metric connection whose barred
derivative of any holomorphic frame vanishes).  New derivative indices
are prepended as the FIRST index axis, with signature 'l' or 'L'.

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
from .metrics import check_positive

__all__ = [
    "ChernPackage",
    "pair_endo_forms",
]

_LETTERS = string.ascii_lowercase.replace("m", "").replace("p", "")


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

    # -- first layer: derivatives of the metric ------------------------------
    #
    # The hot contractions below run in the grid-last layout (index axes
    # first, grid axes last): each is a short loop of broadcast products of
    # contiguous grid arrays, summed over the active directions only, since
    # dg and gamma vanish along every inactive direction j.  The public
    # properties stay grid-first; those built here are views.

    @functools.cached_property
    def ginv(self) -> np.ndarray:
        """Inverse metric, ``ginv[..., p, a]`` with p the unbarred row."""
        return self.grid.to_grid_first(self.factor.ginv)

    @functools.cached_property
    def _g_last(self) -> np.ndarray:
        return np.ascontiguousarray(self.grid.to_grid_last(self.g))

    @functools.cached_property
    def _ginv_last(self) -> np.ndarray:
        return np.ascontiguousarray(self.grid.to_grid_last(self.ginv))

    @functools.cached_property
    def dg(self) -> np.ndarray:
        """``dg[..., j, a, b]``: holomorphic derivative along j of g."""
        return self.grid.holomorphic_gradient(self.g, self.scheme)

    @functools.cached_property
    def gamma(self) -> np.ndarray:
        """Connection ``gamma[..., m, a, b]`` (upper a, lowers m and b).

        ``gamma[m, p, q] = sum_a ginv[p, a] dg[m, a, q]``.
        """
        ginv, dg = self._ginv_last, self.grid.to_grid_last(self.dg)
        out = np.zeros_like(dg)
        for m in self.grid.active_directions:
            for a in range(self.grid.n):
                out[m] += ginv[:, a, None] * dg[m, a]
        return self.grid.to_grid_first(out)

    @functools.cached_property
    def curvature(self) -> np.ndarray:
        """``curv[..., k, j, a, b]``: minus the barred k-derivative of gamma."""
        grid = self.grid
        gamma = grid.to_grid_last(self.gamma)
        out = np.zeros((grid.n,) + gamma.shape, dtype=complex)
        active = grid.active_directions
        requests = [(k, True) for k in active]
        for j in active:
            for k, d in zip(active, grid.derivatives(gamma[j], requests, self.scheme)):
                np.negative(d, out=out[k, j])
        return grid.to_grid_first(out)

    @functools.cached_property
    def second_ricci(self) -> np.ndarray:
        """Both-lower contraction ``out[..., p, q]`` (p barred).

        ``out[p, q] = sum g[p, l] ginv[j, k] curv[k, j, l, q]``.
        """
        ginv, curv = self._ginv_last, self.grid.to_grid_last(self.curvature)
        traced = np.zeros_like(ginv)
        for j in self.grid.active_directions:
            for k in self.grid.active_directions:
                traced += ginv[j, k] * curv[k, j]
        g = self._g_last
        out = np.zeros_like(ginv)
        for l in range(self.grid.n):
            out += g[:, l, None] * traced[l]
        return self.grid.to_grid_first(out)

    @functools.cached_property
    def t_low(self) -> np.ndarray:
        """Torsion ``t_low[..., k, j, m] = dg[..., j, k, m] - dg[..., m, k, j]``."""
        dg = self.grid.to_grid_last(self.dg)
        out = np.zeros_like(dg)
        for a in self.grid.active_directions:
            out[:, a] += dg[a]
            out[:, :, a] -= dg[a]
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
        ginv, dg = self._ginv_last, self.grid.to_grid_last(self.dg)
        ginv_t = np.swapaxes(ginv, 0, 1)
        out = np.zeros_like(ginv[0])
        for p in self.grid.active_directions:
            for q in range(self.grid.n):
                out += ginv[p, q] * dg[p, q]
            out[p] -= (ginv_t * dg[p]).sum(axis=(0, 1))
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
        n = self.grid.n
        ginv, dg = self._ginv_last, self.grid.to_grid_last(self.dg)
        active = self.grid.active_directions
        r = {}
        for p in active:
            r[p] = np.zeros_like(ginv)
            for q in range(n):
                r[p] += dg[p, :, q, None] * ginv[q]
        out = np.zeros_like(ginv)
        for a in active:
            u = np.zeros_like(ginv)
            for p in active:
                u += ginv[p, a] * r[p]
                u -= r[p][:, a, None] * ginv[p]
            dg_bar = np.conj(dg[a])
            for b in range(n):
                out += u[:, b, None] * dg_bar[:, b]
        out *= 2.0
        return self.grid.to_grid_first(out)

    @functools.cached_property
    def t_norm_sq(self) -> np.ndarray:
        """Pointwise squared torsion norm (all free slots contracted)."""
        return np.einsum("...jk,...kj->...", self.ginv, self.ttbar).real

    @functools.cached_property
    def norm_sq(self) -> np.ndarray:
        """Squared volume-form norm ``1 / det g`` at each node."""
        return 1.0 / self.factor.det

    @functools.cached_property
    def log_norm(self) -> np.ndarray:
        """Dilaton: half the log of :attr:`norm_sq`."""
        return 0.5 * np.log(self.norm_sq)

    @functools.cached_property
    def chern_scalar(self) -> np.ndarray:
        """Scalar curvature as the metric trace of the log-volume Hessian."""
        return 2.0 * self.scalar_laplacian(self.log_norm.astype(complex)).real

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
        """
        return self._covd_impl(arr, sig, barred=False)

    def covd_bar(self, arr: np.ndarray, sig: str) -> np.ndarray:
        """Barred covariant derivative; result signature 'L' + sig (as :meth:`covd`)."""
        return self._covd_impl(arr, sig, barred=True)

    def _covd_impl(self, arr: np.ndarray, sig: str, barred: bool) -> np.ndarray:
        self._check_signature(arr, sig)
        arr = np.asarray(arr, dtype=complex)
        out = self.grid.holomorphic_gradient(arr, self.scheme, barred=barred)
        active = self.grid.active_directions
        gamma = self.gamma[..., active, :, :]
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
        return np.einsum("pq...,pq...->...", self._ginv_last, hess)

    def laplacian(self, arr: np.ndarray, sig: str) -> np.ndarray:
        """Rough Laplacian: unbarred after barred derivative, traced."""
        if not sig:
            return self.scalar_laplacian(arr)
        step = self.covd_bar(arr, sig)
        step = self.covd(step, "L" + sig)
        return np.einsum("...pq,...pq" + _LETTERS[: len(sig)] + "->..." + _LETTERS[: len(sig)], self.ginv, step)

    def endo_norm_sq(self, a: np.ndarray) -> np.ndarray:
        """Squared norm of an endomorphism-valued one-form ``a[..., m, x, y]``.

        The ``(ginv, g, ginv)`` case of :func:`pair_endo_forms`, summed over
        every form slot (a may be non-zero along inactive directions).
        """
        # a grid-first view of the contiguous grid-last g spares the pairing a copy
        g = self.grid.to_grid_first(self._g_last)
        return pair_endo_forms(self.ginv, g, self.ginv, a, a).real


def pair_endo_forms(m1, m2, m3, x, y) -> np.ndarray:
    """Sesquilinear pairing of endomorphism-valued one-forms (conjugate on y).

    ``sum m1[m, g] m2[u, b] m3[l, a] x[m, b, l] conj(y[g, u, a])``: ``m1``
    contracts the form slots, ``m2`` the upper endomorphism slots and ``m3``
    the lower ones.  This is the one pairing of such forms; with ``(ginv, g,
    ginv)`` it is :meth:`ChernPackage.endo_norm_sq`.  It runs grid-last, as
    ``sum_m sum_{u,a} z_m[u, a] w_m[u, a]`` with ``z_m = m2 x_m m3`` and
    ``w_m = sum_g m1[m, g] conj(y_g)``.  Inputs are grid-first, with any
    number of leading grid axes.
    """
    def grid_last(arr, rank):
        return np.ascontiguousarray(np.moveaxis(arr, range(-rank, 0), range(rank)), complex)

    m1, m2, m3 = (grid_last(m, 2) for m in (m1, m2, m3))
    x_last = grid_last(x, 3)
    y_bar = np.conj(x_last if y is x else grid_last(y, 3))
    n = x_last.shape[0]
    out = np.zeros_like(m2)
    for m in range(n):
        xm3 = np.zeros_like(m2)
        for l in range(n):
            xm3 += x_last[m, :, l, None] * m3[l]
        z = np.zeros_like(m2)
        for b in range(n):
            z += m2[:, b, None] * xm3[b]
        w = np.zeros_like(m2)
        for g in range(n):
            w += m1[m, g] * y_bar[g]
        out += z * w
    return out.sum(axis=(0, 1))
