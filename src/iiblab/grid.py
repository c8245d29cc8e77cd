"""Flat-torus grids and periodic derivatives.

The domain is the flat complex torus of dimension ``n``: coordinates
``z^j = x^j + i y^j`` where every real coordinate has period one.  The 2n
real coordinates are numbered ``0 .. 2n-1`` in the order
``x^1, y^1, x^2, y^2, ...`` so real axis ``2j`` is the real part and
``2j+1`` the imaginary part of the j-th complex direction (j zero-based).

Fields are sampled on a uniform grid along a chosen subset of the real
axes (the *active* axes) and are constant along the rest, so derivatives
along inactive axes vanish identically.  Arrays carry one leading axis per
active coordinate (in increasing axis order) followed by any tensor index
axes.

Two derivative discretisations are provided:

* ``"spectral"``: FFT differentiation, exact for band-limited data;
* ``"fd8"``: centred finite differences of eighth order, the oracle the
  verifier checks the spectral path against.

:meth:`TorusGrid.derivatives` is the one derivative engine: every
derivative the package takes, on either scheme, is one of its requests,
and it is the only place that takes a Fourier transform or applies the
stencil.  It works on *grid-last* arrays (index axes first, grid axes
last).  A request is a product of complex derivatives, d/dz^j or
d/dzbar^j, so first derivatives and mixed second derivatives d/dz^j
d/dzbar^k (the i del delbar of the anchor flow, the Hessian of a
potential, the scalar Laplacian) share one engine.  On the spectral path
it takes one forward ``fftn`` per field, multiplies by the product of the
precomputed symbols of each request and takes one inverse transform per
request; on the fd8 path it applies the stencil factor by factor, rolling
the grid-last array along its grid axes.  Requests along a direction with
no active real axis are exact zeros and cost no transform on either path.
Nor do components that equal their first node bit for bit at every node:
their deviation from that node is 0, so both the spectral transform of it
and the stencil's differences of equal values give exact zeros.  A caller
that knows which components are exact zeros hands the engine only the
others, so it never scans them: :class:`~iiblab.chern.ChernPackage`
requests the derivatives of the live slots of the metric and of the
connection alone and scatters the results back.  A contiguous grid-last
field, such as the weighted flow's state, is read with no copy.

Complex derivatives follow the convention

    d/dz^j    = (d/dx^j - i d/dy^j) / 2
    d/dzbar^j = (d/dx^j + i d/dy^j) / 2
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError

__all__ = ["TorusGrid", "SPECTRAL", "ORACLE"]

SPECTRAL = "spectral"
ORACLE = "fd8"

# Centred first-derivative weights of the fd8 stencil, w[k] for k = 1..4:
# f'(x) ~ sum_k w[k] (f(x + k h) - f(x - k h)) / h.  The closed form with
# m = 4,  w[k] = (-1)**(k+1) (m!)**2 / (k (m-k)! (m+k)!),  is evaluated in
# exact integer arithmetic and rounded once, so there is no linear-solve
# round-off in the stencil itself.
_FD8_WEIGHTS = tuple(
    (-1) ** (k + 1) * math.factorial(4) ** 2
    / (k * math.factorial(4 - k) * math.factorial(4 + k))
    for k in range(1, 5)
)


def _is_spectral(scheme: str) -> bool:
    """True for the spectral path, False for the fd8 oracle."""
    if scheme not in (SPECTRAL, ORACLE):
        raise GridError(f"unknown derivative scheme {scheme!r}")
    return scheme == SPECTRAL


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on a subset of the torus coordinates.

    Parameters
    ----------
    n : complex dimension, at least 3.
    active_axes : strictly increasing real-axis indices in ``[0, 2n)``
        along which fields actually vary.
    resolution : nodes per active axis; a power of two.
    """

    n: int
    active_axes: tuple[int, ...]
    resolution: int
    _axis_pos: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 3:
            raise GridError(f"complex dimension must be >= 3, got {self.n}")
        axes = tuple(int(a) for a in self.active_axes)
        if not axes:
            raise GridError("at least one active axis is required")
        if list(axes) != sorted(set(axes)):
            raise GridError(f"active axes must be strictly increasing, got {axes}")
        if axes[0] < 0 or axes[-1] >= 2 * self.n:
            raise GridError(f"active axes {axes} outside [0, {2 * self.n})")
        N = self.resolution
        if N < 4 or N & (N - 1):
            raise GridError(f"resolution must be a power of two >= 4, got {N}")
        object.__setattr__(self, "active_axes", axes)
        object.__setattr__(self, "_axis_pos", {a: i for i, a in enumerate(axes)})

    # -- basic geometry -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.resolution,) * len(self.active_axes)

    @property
    def ndim_grid(self) -> int:
        return len(self.active_axes)

    @property
    def spacing(self) -> float:
        return 1.0 / self.resolution

    def axis_position(self, real_axis: int) -> int | None:
        """Array axis carrying this real coordinate, or None if inactive."""
        return self._axis_pos.get(real_axis)

    def coordinate(self, real_axis: int) -> np.ndarray:
        """Node coordinates of one real axis, broadcast to the grid shape.

        Inactive axes sit at coordinate 0.
        """
        pos = self.axis_position(real_axis)
        if pos is None:
            return np.zeros(self.shape)
        t = np.arange(self.resolution) / self.resolution
        reshape = [1] * self.ndim_grid
        reshape[pos] = self.resolution
        return np.broadcast_to(t.reshape(reshape), self.shape).copy()

    # -- derivatives ----------------------------------------------------

    @functools.cached_property
    def active_directions(self) -> tuple[int, ...]:
        """Complex directions (zero-based) with at least one active real axis."""
        return tuple(sorted({a // 2 for a in self.active_axes}))

    @functools.cached_property
    def _symbols(self) -> dict[tuple[int, bool], np.ndarray]:
        """Spectral symbols of d/dz^j and d/dzbar^j over the grid axes.

        Keyed by ``(j, barred)`` for the active directions only.
        """
        N = self.resolution
        k = np.fft.fftfreq(N, d=1.0 / N)
        k[N // 2] = 0.0  # drop the Nyquist mode for odd-order derivatives

        def axis_symbol(real_axis):
            pos = self.axis_position(real_axis)
            if pos is None:
                return 0.0
            shape = [1] * self.ndim_grid
            shape[pos] = N
            return (2j * np.pi * k).reshape(shape)

        out = {}
        for j in self.active_directions:
            dx, dy = axis_symbol(2 * j), axis_symbol(2 * j + 1)
            out[j, False] = 0.5 * (dx - 1j * dy)
            out[j, True] = 0.5 * (dx + 1j * dy)
        return out

    def to_grid_last(self, values: np.ndarray) -> np.ndarray:
        """View of a grid-first array with the grid axes moved to the end."""
        g = self.ndim_grid
        return values.transpose(tuple(range(g, values.ndim)) + tuple(range(g)))

    def to_grid_first(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_grid_last`, also a view."""
        k = values.ndim - self.ndim_grid
        return values.transpose(tuple(range(k, values.ndim)) + tuple(range(k)))

    def _stencil(self, last, j, barred, out=None) -> np.ndarray:
        """fd8 d/dz^j (d/dzbar^j when ``barred``) of a grid-last array."""
        dx, dy = (np.zeros_like(last, dtype=complex) for _ in range(2))
        for d, real_axis in ((dx, 2 * j), (dy, 2 * j + 1)):
            pos = self.axis_position(real_axis)
            if pos is None:
                continue
            axis = pos - self.ndim_grid
            for k, w in enumerate(_FD8_WEIGHTS, start=1):
                c = w * self.resolution
                d += c * (np.roll(last, -k, axis=axis) - np.roll(last, k, axis=axis))
        return np.multiply(0.5, dx + 1j * dy if barred else dx - 1j * dy, out=out)

    def _varies(self, values: np.ndarray, origin: np.ndarray) -> np.ndarray:
        """Which components of a grid-last field differ from their first node
        ``origin`` somewhere, as their deviation would say, with no deviation
        formed: x - x0 is non-zero exactly where x != x0, or everywhere when
        x0 is not finite (inf - inf is NaN).  The first grid line of a
        varying component nearly always shows it, so only the components
        constant along that line are compared at every node."""
        line = values[(...,) + (0,) * (self.ndim_grid - 1)]
        varies = np.asarray((line != line[..., :1]).any(axis=-1))
        if varies.all():
            return varies
        varies |= ~np.isfinite(origin.reshape(varies.shape))
        rest = ~varies
        if rest.any():
            differs = values[rest] != origin[rest]
            varies[rest] = differs.reshape(len(differs), -1).any(axis=-1)
        return varies

    def derivatives(
        self, values: np.ndarray, requests, scheme: str = SPECTRAL
    ) -> np.ndarray:
        """Complex derivatives of one grid-last field.

        Each request is a flat tuple of ``(j, barred)`` factors, d/dz^j or
        d/dzbar^j when ``barred``: ``(j, barred)`` asks for a first
        derivative, ``(j, False, k, True)`` for d/dz^j d/dzbar^k.  Returns
        the grid-last derivatives stacked along a new first axis, one per
        request.  A request with a factor along a direction with no active
        real axis, and components equal to their first node at every node,
        are left at exact zeros (module docstring); only the other
        components, found by comparison (:meth:`_varies`), are transformed,
        or stencilled on their raw values.  On the spectral path all
        requests share one forward transform, each multiplied by the
        product of its factors' symbols; the fd8 path applies the stencil
        factor by factor, the last factor of a request first.  No other
        method differentiates or transforms a field.
        """
        spectral = _is_spectral(scheme)
        out = np.zeros((len(requests),) + values.shape, dtype=complex)
        factors = [tuple(zip(r[::2], r[1::2])) for r in requests]
        live = [
            i for i, fs in enumerate(factors)
            if all(j in self.active_directions for j, _ in fs)
        ]
        if not live:
            return out
        g = self.ndim_grid
        # Derivatives ignore constants: transforming the deviation from the
        # first node keeps a large mean out of the FFT round-off, and a
        # component whose deviation is 0 at every node is left at zero.
        origin = values[(...,) + (slice(0, 1),) * g]
        varies = self._varies(values, origin)
        count = np.count_nonzero(varies)
        if not count:
            return out
        some = count < varies.size  # gather the varying components, then scatter
        if spectral:
            if some:
                spectrum = np.subtract(values[varies], origin[varies], dtype=complex)
            else:
                spectrum = np.subtract(values, origin, dtype=complex, order="C")
            axes = tuple(range(-g, 0))
            np.fft.fftn(spectrum, axes=axes, out=spectrum)
        else:
            raw = values[varies] if some else values
        for i in live:
            if spectral:
                symbol = functools.reduce(np.multiply, map(self._symbols.get, factors[i]))
                d = np.multiply(spectrum, symbol, out=None if some else out[i])
                np.fft.ifftn(d, axes=axes, out=d)
            else:
                d = raw
                for j, barred in reversed(factors[i][1:]):
                    d = self._stencil(d, j, barred)
                d = self._stencil(d, *factors[i][0], out=None if some else out[i])
            if some:
                out[i][varies] = d
        return out

    def holomorphic_gradient(
        self, values: np.ndarray, scheme: str = SPECTRAL, barred: bool = False
    ) -> np.ndarray:
        """Stack of all n complex derivatives.

        The new direction axis is inserted after the grid axes, in front of
        any tensor index axes, matching the index-ordering convention used
        by the covariant-derivative machinery.  The result is a grid-first
        view of a grid-last array; :meth:`to_grid_last` recovers the
        contiguous layout for free.
        """
        requests = [(j, barred) for j in range(self.n)]
        last = self.to_grid_last(values)
        return self.to_grid_first(self.derivatives(last, requests, scheme))
