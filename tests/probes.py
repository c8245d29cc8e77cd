"""Deterministic probe fields shared by the tests."""

import numpy as np

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
