"""Deterministic probe fields shared by the tests."""

import numpy as np

from iiblab.metrics import fourier_scalar


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
