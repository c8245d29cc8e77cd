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
* ``"fdN"`` (N even, 2..12): centred finite differences of order N,
  used as the independent cross-check path by the verifier.

All complex derivatives go through :meth:`TorusGrid.derivatives`, which
works on *grid-last* arrays (index axes first, grid axes last).  On the
spectral path it takes one forward ``fftn`` per field, multiplies by the
precomputed symbols of the requested active directions and takes one
inverse transform per request.  Directions with no active real axis are
exact zeros and cost no transform on either path.

Complex derivatives follow the convention

    d/dz^j    = (d/dx^j - i d/dy^j) / 2
    d/dzbar^j = (d/dx^j + i d/dy^j) / 2
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError

__all__ = ["TorusGrid", "fd_weights", "SPECTRAL"]

SPECTRAL = "spectral"

_FD_RE = re.compile(r"^fd(\d+)$")


@functools.lru_cache(maxsize=None)
def fd_weights(order: int) -> np.ndarray:
    """Centred first-derivative weights of the given even order.

    Returns the full antisymmetric stencil ``w[-m..m]`` (length 2m+1,
    m = order/2) such that ``f'(x) ~ sum_k w[k] f(x + k h) / h``.  The
    weights come from the closed form

        w[k] = (-1)**(k+1) * (m!)**2 / (k * (m-k)! * (m+k)!)

    evaluated in exact integer arithmetic before conversion to float, so
    there is no linear-solve round-off in the stencil itself.
    """
    if order < 2 or order % 2:
        raise GridError(f"finite-difference order must be even and >= 2, got {order}")
    m = order // 2
    w = np.zeros(2 * m + 1)
    for k in range(1, m + 1):
        num = math.factorial(m) ** 2
        den = k * math.factorial(m - k) * math.factorial(m + k)
        c = ((-1) ** (k + 1)) * num / den
        w[m + k] = c
        w[m - k] = -c
    return w


def _parse_scheme(scheme: str) -> int | None:
    """Return None for spectral, otherwise the finite-difference order."""
    if scheme == SPECTRAL:
        return None
    match = _FD_RE.match(scheme)
    if not match:
        raise GridError(f"unknown derivative scheme {scheme!r}")
    return int(match.group(1))


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

    def require_same(self, other: "TorusGrid"):
        if self != other:
            raise GridError(f"mismatched grids: {self} vs {other}")

    # -- derivatives ----------------------------------------------------

    def _spectral_multiplier(self, array_ndim: int, pos: int) -> np.ndarray:
        N = self.resolution
        k = np.fft.fftfreq(N, d=1.0 / N)
        if N % 2 == 0:
            k = k.copy()
            k[N // 2] = 0.0  # drop the Nyquist mode for odd-order derivatives
        shape = [1] * array_ndim
        shape[pos] = N
        return (2j * np.pi * k).reshape(shape)

    def real_derivative(
        self, values: np.ndarray, real_axis: int, scheme: str = SPECTRAL
    ) -> np.ndarray:
        """d/d(real coordinate) of a sampled field.

        ``values`` may carry trailing tensor index axes; the derivative acts
        along the grid axis only.  Returns zeros for inactive axes.
        """
        pos = self.axis_position(real_axis)
        if pos is None:
            return np.zeros_like(values, dtype=complex)
        order = _parse_scheme(scheme)
        if order is None:
            spectrum = np.fft.fft(values, axis=pos)
            spectrum *= self._spectral_multiplier(values.ndim, pos)
            return np.fft.ifft(spectrum, axis=pos)
        w = fd_weights(order)
        m = order // 2
        out = np.zeros_like(values, dtype=complex)
        for k in range(1, m + 1):
            c = w[m + k] * self.resolution
            out += c * (np.roll(values, -k, axis=pos) - np.roll(values, k, axis=pos))
        return out

    @functools.cached_property
    def active_directions(self) -> tuple[int, ...]:
        """Complex directions (zero-based) with at least one active real axis."""
        return tuple(sorted({a // 2 for a in self.active_axes}))

    @functools.cached_property
    def _symbols(self) -> dict[tuple[int, bool], np.ndarray]:
        """Spectral symbols of d/dz^j and d/dzbar^j over the grid axes.

        Keyed by ``(j, barred)`` for the active directions only.
        """
        def axis_symbol(real_axis):
            pos = self.axis_position(real_axis)
            return 0.0 if pos is None else self._spectral_multiplier(self.ndim_grid, pos)

        out = {}
        for j in self.active_directions:
            dx, dy = axis_symbol(2 * j), axis_symbol(2 * j + 1)
            out[j, False] = 0.5 * (dx - 1j * dy)
            out[j, True] = 0.5 * (dx + 1j * dy)
        return out

    def to_grid_last(self, values: np.ndarray) -> np.ndarray:
        """View of a grid-first array with the grid axes moved to the end."""
        g = self.ndim_grid
        return np.moveaxis(values, range(g), range(values.ndim - g, values.ndim))

    def to_grid_first(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_grid_last`, also a view."""
        g = self.ndim_grid
        return np.moveaxis(values, range(values.ndim - g, values.ndim), range(g))

    def derivatives(
        self, values: np.ndarray, requests, scheme: str = SPECTRAL
    ) -> list[np.ndarray | None]:
        """Complex derivatives of one grid-last field.

        ``requests`` lists ``(j, barred)`` pairs: d/dz^j, or d/dzbar^j when
        ``barred``.  Returns one grid-last array per request, or None for a
        direction with no active real axis, where the derivative vanishes
        identically.  On the spectral path all requests share one forward
        transform; the finite-difference path composes
        :meth:`real_derivative` per direction.
        """
        live = [j in self.active_directions for j, _ in requests]
        if not any(live):
            return [None] * len(live)
        if _parse_scheme(scheme) is None:
            axes = tuple(range(values.ndim - self.ndim_grid, values.ndim))
            # Derivatives ignore constants: transforming the deviation from
            # the first node keeps a large mean out of the FFT round-off.
            origin = values[(...,) + (slice(0, 1),) * self.ndim_grid]
            spectrum = np.subtract(values, origin, dtype=complex, order="C")
            np.fft.fftn(spectrum, axes=axes, out=spectrum)

            def one(j, barred):
                term = spectrum * self._symbols[j, barred]
                return np.fft.ifftn(term, axes=axes, out=term)

        else:
            first = self.to_grid_first(values)

            def one(j, barred):
                dx = self.real_derivative(first, 2 * j, scheme)
                dy = self.real_derivative(first, 2 * j + 1, scheme)
                d = 0.5 * (dx + 1j * dy) if barred else 0.5 * (dx - 1j * dy)
                return self.to_grid_last(d)

        return [
            one(j, bool(barred)) if ok else None
            for (j, barred), ok in zip(requests, live)
        ]

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
        last = self.to_grid_last(values)
        out = np.zeros((self.n,) + last.shape, dtype=complex)
        requests = [(j, barred) for j in range(self.n)]
        for j, d in enumerate(self.derivatives(last, requests, scheme)):
            if d is not None:
                out[j] = d
        return self.to_grid_first(out)

    # -- resolution hygiene ----------------------------------------------

    def top_band_fraction(self, values: np.ndarray) -> float:
        """Fraction of spectral energy above two thirds of the Nyquist band.

        A proxy for aliasing risk: smooth well-resolved fields put
        essentially nothing there.
        """
        axes = tuple(range(self.ndim_grid))
        spectrum = np.fft.fftn(values, axes=axes)
        power = np.abs(spectrum) ** 2
        total = power.sum()
        if total == 0:
            return 0.0
        N = self.resolution
        k = np.abs(np.fft.fftfreq(N, d=1.0 / N))
        cut = N / 3.0
        mask = np.zeros(self.shape, dtype=bool)
        for pos in range(self.ndim_grid):
            shape = [1] * self.ndim_grid
            shape[pos] = N
            mask |= (k.reshape(shape) > cut)
        extra = tuple(range(self.ndim_grid, values.ndim))
        band = power[mask].sum() if not extra else power.sum(axis=extra)[mask].sum()
        return float(band / total)
