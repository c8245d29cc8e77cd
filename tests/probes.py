"""Deterministic probe fields shared by the tests."""

import numpy as np

from iiblab.forms import _real_wedge_table, _wedge_table
from iiblab.metrics import flat_metric, fourier_scalar, hermitize


def band_covector(grid) -> np.ndarray:
    """Fixed band-limited covector field for probing the commutator check.

    Deterministic on purpose: the commutator residual should be
    reproducible from the grid alone.  This is the probe to pass when the
    derivative path itself should be exercised; the check's default probe
    is constant so that flat data stays bit-exactly zero.
    """
    m = grid.ndim_grid
    amplitude = 0.25
    comps = []
    for i in range(grid.n):
        axis = i % m
        lead = [1 if a == axis else 0 for a in range(m)]
        mixed = [1] * m
        terms = [
            lead + [amplitude, -0.4 * amplitude],
            mixed + [0.3 * amplitude, 0.2 * amplitude * (i + 1)],
        ]
        comps.append(fourier_scalar(grid, terms).astype(complex))
    return np.stack(comps, axis=-1)


def kahler_from_potential(grid, phi: np.ndarray) -> np.ndarray:
    """Metric ``g[kbar,j] = delta + d_j d_kbar phi`` from a real potential."""
    n = grid.n
    requests = [(j, False, k, True) for k in range(n) for j in range(n)]
    hess = grid.derivatives(np.asarray(phi, dtype=complex), requests)
    hess = grid.to_grid_first(hess.reshape((n, n) + grid.shape))
    return hermitize(flat_metric(grid) + hess)


def full_wedge(theta) -> np.ndarray:
    """The whole matrix W of :func:`iiblab.forms.wedge_block`, shape
    ``(*grid, n*n, n*n)``: every component of theta, live or not, times the
    whole table C_R.  The oracle the blocks are held to."""
    grid, n = theta.grid, theta.grid.n
    keys, _ = _wedge_table(n)
    stacked = np.stack(
        [np.broadcast_to(theta.comps.get(key, 0.0), grid.shape) for key in keys],
        axis=-1, dtype=complex,
    )
    W = stacked.reshape(-1, len(keys)).view(np.float64) @ _real_wedge_table(n)
    return W.reshape(grid.shape + (n * n, n * n))


def scatter_blocks(system) -> np.ndarray:
    """W rebuilt from the ``(coupled, (singles, pivots))`` of
    :func:`iiblab.forms.wedge_block`, zero outside the blocks."""
    coupled, (singles, pivots) = system
    size = singles.size + sum(block.size for block, _ in coupled)
    W = np.zeros(pivots.shape[:-1] + (size, size))
    for block, sub in coupled:
        W[..., block[:, None], block] = sub
    W[..., singles, singles] = pivots
    return W


def full_relative_residual(W, b, z) -> float:
    """The anchor solve's gate value on the whole W: max |W z - b| over
    max(max |b|, max |W| max |z|)."""
    residual = np.abs((W @ z[..., None])[..., 0] - b).max()
    return residual / max(np.abs(b).max(), np.abs(W).max() * np.abs(z).max(), 1e-30)
