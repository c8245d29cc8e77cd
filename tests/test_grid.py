"""Grid construction and derivative operators."""

import numpy as np
import pytest

from iiblab import GridError, SPECTRAL, TorusGrid


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(3, (0, 1), 32)


def test_rejects_bad_construction():
    with pytest.raises(GridError):
        TorusGrid(2, (0,), 8)
    with pytest.raises(GridError):
        TorusGrid(3, (), 8)
    with pytest.raises(GridError):
        TorusGrid(3, (1, 0), 8)
    with pytest.raises(GridError):
        TorusGrid(3, (0, 6), 8)
    with pytest.raises(GridError):
        TorusGrid(3, (0,), 12)  # not a power of two


def test_shape_and_spacing(grid):
    assert grid.shape == (32, 32)
    assert grid.spacing == 1.0 / 32


def test_coordinate_layout(grid):
    # real axes interleave as x^1, y^1, x^2, y^2, ...: axis 1 is y^1 here
    x = grid.coordinate(0)
    y = grid.coordinate(1)
    assert x.shape == grid.shape
    assert x[1, 0] == pytest.approx(1.0 / 32)
    assert y[0, 1] == pytest.approx(1.0 / 32)


def test_inactive_axis_derivative_is_zero(grid):
    f = np.sin(2 * np.pi * grid.coordinate(0))
    assert np.all(grid.real_derivative(f, 2) == 0.0)


def test_spectral_derivative_exact_on_band_limited(grid):
    x, y = grid.coordinate(0), grid.coordinate(1)
    f = np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y)
    df = grid.real_derivative(f, 0)
    exact = 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(4 * np.pi * y)
    assert np.abs(df - exact).max() < 1e-12


@pytest.mark.parametrize("scheme,order", [("fd4", 4), ("fd8", 8)])
def test_fd_derivative_converges(scheme, order):
    errs = []
    for res in (16, 32):
        g = TorusGrid(3, (0,), res)
        x = g.coordinate(0)
        f = np.sin(2 * np.pi * x)
        df = g.real_derivative(f, 0, scheme)
        errs.append(np.abs(df - 2 * np.pi * np.cos(2 * np.pi * x)).max())
    ratio = errs[0] / errs[1]
    assert 0.5 * 2**order < ratio < 2.0 * 2**order


def test_holomorphic_derivative_convention(grid):
    # d/dz of exp(2 pi i x^1) is pi i exp(...): half the real-axis rate
    x = grid.coordinate(0)
    f = np.exp(2j * np.pi * x)
    dz = grid.holomorphic_gradient(f)[..., 0]
    assert np.abs(dz - 1j * np.pi * f).max() < 1e-12
    # and exp(2 pi i x^1) depends on zbar^1 too: the barred half survives
    dzb = grid.holomorphic_gradient(f, barred=True)[..., 0]
    assert np.abs(dzb - 1j * np.pi * f).max() < 1e-12


def test_complex_derivative_symbol(grid):
    # for exp(2 pi i (k x + l y)): d/dz multiplies by pi i (k - i l)
    x, y = grid.coordinate(0), grid.coordinate(1)
    f = np.exp(2j * np.pi * (x + 2 * y))
    grad = grid.holomorphic_gradient(f)
    dzb = grid.holomorphic_gradient(f, barred=True)[..., 0]
    assert np.abs(grad[..., 0] - 1j * np.pi * (1 - 2j) * f).max() < 1e-12
    assert np.abs(dzb - 1j * np.pi * (1 + 2j) * f).max() < 1e-12
    assert grad.shape == grid.shape + (3,)
    assert np.abs(grad[..., 1]).max() < 1e-12  # no z^2 dependence


def test_gradient_axis_insertion_order(grid):
    field = np.zeros(grid.shape + (3, 3), dtype=complex)
    field[..., 0, 0] = np.exp(2j * np.pi * (grid.coordinate(0)))
    grad = grid.holomorphic_gradient(field)
    assert grad.shape == grid.shape + (3, 3, 3)
    # derivative axis sits in front of the matrix axes
    assert np.abs(grad[..., 0, 0, 0]).max() > 1.0
    assert np.abs(grad[..., 1, 0, 0]).max() < 1e-12


def test_top_band_fraction_flags_rough_fields(grid):
    smooth = np.sin(2 * np.pi * grid.coordinate(0))
    rng = np.random.default_rng(0)
    rough = rng.standard_normal(grid.shape)
    assert grid.top_band_fraction(smooth) < 1e-12
    assert grid.top_band_fraction(rough) > 0.1


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("axes", [(0, 1), (0, 2), (1, 4), (0, 1, 2, 3)])
def test_engine_matches_per_axis_derivatives(n, axes):
    grid = TorusGrid(n, axes, 8)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(grid.shape + (2,)) + 1j * rng.standard_normal(grid.shape + (2,))
    grad = grid.holomorphic_gradient(f)
    grad_bar = grid.holomorphic_gradient(f, barred=True)
    for j in range(n):
        dx = grid.real_derivative(f, 2 * j)
        dy = grid.real_derivative(f, 2 * j + 1)
        pairs = [
            (grad[..., j, :], 0.5 * (dx - 1j * dy)),
            (grad_bar[..., j, :], 0.5 * (dx + 1j * dy)),
        ]
        if j in grid.active_directions:
            for got, want in pairs:
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        else:
            assert 2 * j not in axes and 2 * j + 1 not in axes
            for got, _ in pairs:
                assert np.all(got == 0.0)
