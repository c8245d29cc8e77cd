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
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import GridError, HermiticityError, PositivityError
from .forms import exterior_d, omega_power
from .grid import TorusGrid

__all__ = [
    "MetricFactor",
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


def hermiticity_defect(g: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):  # a non-finite entry gives NaN or inf
        return float(np.abs(g - np.conj(np.swapaxes(g, -1, -2))).max())


def min_eigenvalue(g: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(g).min())


class MetricFactor:
    """Cholesky factor ``g = L L^H`` of a Hermitian matrix field, grid-last.

    Unrolled over the n x n index slots, each a contiguous array over the
    batch axes, from the lower triangle of g (Golub and Van Loan, *Matrix
    Computations*, 4.2); a pivot that is not positive and finite raises
    :class:`PositivityError`.  ``det`` is the product of the pivots,
    ``inv_chol`` is ``L^-1`` by forward substitution and ``ginv`` is
    ``L^-H L^-1``, exactly Hermitian, both with the index slots first.
    """

    def __init__(self, g: np.ndarray):
        a = np.moveaxis(g, (-2, -1), (0, 1))
        self.lower = low = np.zeros(a.shape, dtype=complex)
        self.det = 1.0
        for j in range(a.shape[0]):
            d = a[j, j].real - (low[j, :j].real ** 2 + low[j, :j].imag ** 2).sum(axis=0)
            if not (d.min() > 0.0 and d.max() < np.inf):
                raise PositivityError(f"metric not positive definite: Cholesky pivot {j}"
                                      f" spans [{d.min():.3e}, {d.max():.3e}]")
            self.det = self.det * d
            low[j, j] = root = np.sqrt(d)
            for i in range(j + 1, a.shape[0]):
                low[i, j] = (a[i, j] - (low[i, :j] * np.conj(low[j, :j])).sum(axis=0)) / root

    @functools.cached_property
    def inv_chol(self) -> np.ndarray:
        low, out = self.lower, np.zeros_like(self.lower)
        for i in range(len(low)):
            out[i, i] = scale = 1.0 / low[i, i].real
            for j in range(i):
                out[i, j] = -scale * (low[i, j:i] * out[j:i, j]).sum(axis=0)
        return out

    @functools.cached_property
    def ginv(self) -> np.ndarray:
        m, out = self.inv_chol, np.empty_like(self.lower)
        for p in range(len(m)):
            out[p, p] = (m[p:, p].real ** 2 + m[p:, p].imag ** 2).sum(axis=0)
            for a in range(p + 1, len(m)):
                out[p, a] = (np.conj(m[a:, p]) * m[a:, a]).sum(axis=0)
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

    Returns the :class:`MetricFactor`; the eigenvalues are computed only on
    failure, for the message.
    """
    defect = hermiticity_defect(g)
    if not defect <= HERMITICITY_TOLERANCE:
        raise HermiticityError(f"matrix field deviates from Hermitian by {defect:.3e}")
    try:
        return MetricFactor(g)
    except PositivityError:
        low = min_eigenvalue(g)
    raise PositivityError(f"metric loses positivity: min eigenvalue {low:.3e}")


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
