"""Metric constructors and volume data."""

import numpy as np
import pytest

from iiblab import (
    IIBLabError,
    PositivityError,
    TorusGrid,
    balanced_band_metric,
    conformally_balanced_defect,
    flat_metric,
    random_band_metric,
    volume_norm,
)
from iiblab.metrics import (
    MetricFactor,
    check_positive,
    fourier_scalar,
    hermiticity_defect,
    is_positive,
)
from probes import kahler_from_potential

GRID = TorusGrid(3, (0, 1), 16)


def test_flat_metric_is_identity():
    g = flat_metric(GRID)
    assert g.shape == GRID.shape + (3, 3)
    assert np.array_equal(g[0, 0], np.eye(3))
    assert np.all(volume_norm(g) == 1.0)


def test_fourier_scalar_terms():
    f = fourier_scalar(GRID, [[1, 0, 0.0, -0.5]])
    x = GRID.coordinate(0)
    assert np.abs(f - 0.5 * np.sin(2 * np.pi * x)).max() < 1e-14


def test_balanced_family_is_exactly_balanced():
    f = fourier_scalar(GRID, [[1, 1, 0.0, -0.15], [1, -1, 0.0, -0.15]])
    for stretch in (1.0, 1.7):
        g = balanced_band_metric(GRID, f, stretch)
        assert hermiticity_defect(g) == 0.0
        assert conformally_balanced_defect(GRID, g) < 1e-12


@pytest.mark.parametrize("n", [4, 5])
def test_balanced_family_is_balanced_beyond_three_dimensions(n):
    grid = TorusGrid(n, (0, 1), 32)
    f = fourier_scalar(grid, [[1, 1, 0.0, -0.15], [1, -1, 0.0, -0.15]])
    g = balanced_band_metric(grid, f)
    assert conformally_balanced_defect(grid, g) < 1e-12


def test_balanced_family_breaks_off_stretched_coordinate():
    # same profile keyed to an axis of z^2: no longer balanced
    grid = TorusGrid(3, (0, 2), 16)
    f = fourier_scalar(grid, [[1, 1, 0.0, -0.15]])
    g = balanced_band_metric(grid, f)
    assert conformally_balanced_defect(grid, g) > 1e-2


def test_volume_norm_closed_form():
    f = fourier_scalar(GRID, [[1, 0, 0.2, 0.0]])
    g = balanced_band_metric(GRID, f, stretch=2.0)
    # det g = 4 exp(4f), so the norm is exp(-2f)/2
    assert np.abs(volume_norm(g) - 0.5 * np.exp(-2 * f)).max() < 1e-13


def test_random_metric_positive_and_seeded():
    a = random_band_metric(GRID, seed=11)
    b = random_band_metric(GRID, seed=11)
    c = random_band_metric(GRID, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.linalg.eigvalsh(a).min() > 0.5  # exp(H) with small H stays near 1


def test_random_metric_resolution_independent():
    """One analytic field: the coarse grid is a restriction of the fine one."""
    coarse = random_band_metric(TorusGrid(3, (0, 1), 8), seed=5)
    fine = random_band_metric(TorusGrid(3, (0, 1), 16), seed=5)
    assert np.allclose(coarse, fine[::2, ::2], atol=1e-14)


def test_random_metric_amplitude_guard():
    with pytest.raises(PositivityError):
        random_band_metric(GRID, seed=1, amplitude=0.5)


def test_kahler_metric_hermitian_positive():
    x, y = GRID.coordinate(0), GRID.coordinate(1)
    phi = 0.01 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    g = kahler_from_potential(GRID, phi)
    assert hermiticity_defect(g) < 1e-14
    assert np.linalg.eigvalsh(g).min() > 0.5


def test_balanced_defect_detects_kahler_nonbalanced():
    x, y = GRID.coordinate(0), GRID.coordinate(1)
    phi = 0.05 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    g = kahler_from_potential(GRID, phi)
    assert conformally_balanced_defect(GRID, g) > 1e-4


def _with_node(eigenvalues):
    """Flat metric with one node replaced by a rotated diagonal matrix."""
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    g = flat_metric(GRID)
    node = u @ np.diag(eigenvalues) @ np.conj(u.T)
    g[5, 9] = 0.5 * (node + np.conj(node.T))
    return g


def test_positivity_gate_reports_negative_eigenvalue():
    g = _with_node([1.0, -0.25, 2.0])
    assert not is_positive(g)
    with pytest.raises(PositivityError, match=r"min eigenvalue -2\.500e-01") as err:
        check_positive(g)
    assert err.value.min_eigenvalue == pytest.approx(-0.25)


def test_positivity_gate_honours_nonzero_floor():
    g = _with_node([1.0, 0.999e-3, 2.0])
    check_positive(g)
    assert is_positive(g, floor=0.998e-3)
    assert not is_positive(g, floor=1e-3)


@pytest.mark.parametrize(
    "node, value",
    [((2, 0), np.nan), ((0, 2), np.nan), ((1, 1), np.inf)],
    ids=["nan-lower", "nan-upper-only", "inf-diagonal"],
)
def test_positivity_gate_rejects_non_finite_entries(node, value):
    g = flat_metric(GRID)
    g[5, 9][node] = value
    assert not is_positive(g)
    assert not is_positive(g, floor=1e-8)
    with pytest.raises(IIBLabError):
        check_positive(g)
    if node[0] >= node[1]:  # the factor reads only the lower triangle
        with pytest.raises(PositivityError):
            volume_norm(g)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_factor_matches_numpy(n):
    grid = TorusGrid(n, (0, 1), 16)
    g = 2.5 * random_band_metric(grid, seed=10 + n, amplitude=0.3)
    factor = check_positive(g)
    ginv, inv_chol = (grid.to_grid_first(x) for x in (factor.ginv, factor.inv_chol))

    def rel(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    assert rel(ginv, np.linalg.inv(g)) <= 1e-14
    assert rel(factor.det, np.linalg.det(g).real) <= 1e-14
    assert rel(inv_chol, np.linalg.inv(np.linalg.cholesky(g))) <= 1e-14
    assert np.array_equal(ginv, np.conj(np.swapaxes(ginv, -1, -2)))
    assert np.array_equal(MetricFactor(g).ginv, factor.ginv)
