"""Grid construction and derivative operators."""

import numpy as np
import pytest

from iiblab import GridError, SPECTRAL, TorusGrid
from iiblab import grid as grid_module
from iiblab.grid import ORACLE

# fd8 weights w[k], k = 1..4, of f(x + k h) - f(x - k h) (Fornberg 1988)
FD8 = (4 / 5, -1 / 5, 4 / 105, -1 / 280)


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
    requests = [(0, False), (1, False), (2, True), (0, False, 1, True)]
    for scheme in (SPECTRAL, ORACLE):
        d = grid.derivatives(f, requests, scheme)
        assert np.abs(d[0]).max() > 1.0
        assert np.all(d[1:] == 0.0)


def test_spectral_derivative_exact_on_band_limited(grid):
    x, y = grid.coordinate(0), grid.coordinate(1)
    f = np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y)
    dz, dzb = grid.derivatives(f, [(0, False), (0, True)])
    fx = 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(4 * np.pi * y)
    fy = -4 * np.pi * np.sin(2 * np.pi * x) * np.sin(4 * np.pi * y)
    assert np.abs(dz - 0.5 * (fx - 1j * fy)).max() < 1e-12
    assert np.abs(dzb - 0.5 * (fx + 1j * fy)).max() < 1e-12


@pytest.mark.parametrize("scheme,order", [(ORACLE, 8)])
def test_fd_derivative_converges(scheme, order):
    errs = []
    for res in (16, 32):
        g = TorusGrid(3, (0,), res)
        x = g.coordinate(0)
        (dz,) = g.derivatives(np.sin(2 * np.pi * x), [(0, False)], scheme)
        # only x^1 is active, so d/dz^1 is half of d/dx^1
        errs.append(np.abs(2 * dz - 2 * np.pi * np.cos(2 * np.pi * x)).max())
    ratio = errs[0] / errs[1]
    assert 0.5 * 2**order < ratio < 2.0 * 2**order


def test_fd8_weights_are_the_closed_form():
    assert grid_module._FD8_WEIGHTS == FD8


@pytest.mark.parametrize("scheme", ["fd4", "fd", "fd08", "Spectral"])
def test_unknown_scheme_raises(grid, scheme):
    f = np.sin(2 * np.pi * grid.coordinate(0))
    with pytest.raises(GridError):
        grid.derivatives(f, [(0, False)], scheme)
    with pytest.raises(GridError):
        grid.derivatives(f, [(2, False)], scheme)  # inactive direction too
    with pytest.raises(GridError):
        grid.holomorphic_gradient(f, scheme)


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


ENGINE_GEOMETRIES = [
    pytest.param(n, axes, 8, id=f"axes{i}-{n}")
    for i, axes in enumerate([(0, 1), (0, 2), (1, 4), (0, 1, 2, 3)])
    for n in (3, 4)
] + [
    pytest.param(5, (0, 1), 8, id="n5-axes01"),
    pytest.param(5, (1, 4, 9), 8, id="n5-axes149"),
    pytest.param(3, (0, 1, 2, 3, 4, 5), 4, id="n3-all-axes-r4"),
]


def _real_derivative(grid, first, real_axis, scheme):
    """d/d(real coordinate) of a grid-first field, one axis at a time.

    The per-axis reference for the engine: a 1-D transform, or the fd8
    stencil rolled along the grid-first axis; zeros on an inactive axis.
    """
    pos = grid.axis_position(real_axis)
    if pos is None:
        return np.zeros_like(first, dtype=complex)
    N = grid.resolution
    if scheme == SPECTRAL:
        k = np.fft.fftfreq(N, d=1.0 / N)
        k[N // 2] = 0.0
        shape = [1] * first.ndim
        shape[pos] = N
        spectrum = np.fft.fft(first, axis=pos)
        spectrum *= (2j * np.pi * k).reshape(shape)
        return np.fft.ifft(spectrum, axis=pos)
    out = np.zeros_like(first, dtype=complex)
    for k, w in enumerate(FD8, start=1):
        c = w * N
        out += c * (np.roll(first, -k, axis=pos) - np.roll(first, k, axis=pos))
    return out


def _full_derivatives(grid, values, requests, scheme):
    """The engine with every component differentiated: the oracle for the skip."""
    out = np.zeros((len(requests),) + values.shape, dtype=complex)
    axes = tuple(range(values.ndim - grid.ndim_grid, values.ndim))
    origin = values[(...,) + (slice(0, 1),) * grid.ndim_grid]
    spectrum = np.subtract(values, origin, dtype=complex, order="C")
    np.fft.fftn(spectrum, axes=axes, out=spectrum)
    first = grid.to_grid_first(values)
    for i, (j, barred) in enumerate(requests):
        if j not in grid.active_directions:
            continue
        if scheme == SPECTRAL:
            term = spectrum * grid._symbols[j, barred]
            out[i] = np.fft.ifftn(term, axes=axes, out=term)
        else:
            dx = _real_derivative(grid, first, 2 * j, scheme)
            dy = _real_derivative(grid, first, 2 * j + 1, scheme)
            d = 0.5 * (dx + 1j * dy) if barred else 0.5 * (dx - 1j * dy)
            out[i] = grid.to_grid_last(d)
    return out


def _engine_fields(grid, rng):
    """Grid-first (2, 3) fields: every component varies, some do, none do, one does.

    ``wave`` varies along the first grid axis only, so it is constant on
    the grid row where that axis's index is 0: a constancy test that looks
    at that row alone would skip it.
    """
    shape = grid.shape + (2, 3)
    rough = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    wave = np.exp(2j * np.pi * grid.coordinate(grid.active_axes[0]))
    constant = np.zeros(shape, dtype=complex)
    constant[...] = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    constant[..., 1, 2] = 0.0
    mixed = rough.copy()
    mixed[..., 0, 0] = 0.0
    mixed[..., 0, 2] = 1.5 - 0.25j
    mixed[..., 1, 1] = 3.0 * wave
    one = constant.copy()
    one[..., 1, 0] = 0.3 + 2.0 * wave
    return {"rough": rough, "mixed": mixed, "constant": constant, "one": one}


@pytest.mark.parametrize("n, axes, resolution", ENGINE_GEOMETRIES)
def test_engine_matches_per_axis_derivatives(n, axes, resolution):
    grid = TorusGrid(n, axes, resolution)
    rng = np.random.default_rng(7)
    fields = _engine_fields(grid, rng)
    f = fields["rough"]
    grad = grid.holomorphic_gradient(f)
    grad_bar = grid.holomorphic_gradient(f, barred=True)
    for j in range(n):
        dx = _real_derivative(grid, f, 2 * j, SPECTRAL)
        dy = _real_derivative(grid, f, 2 * j + 1, SPECTRAL)
        pairs = [
            (grad[..., j, :, :], 0.5 * (dx - 1j * dy)),
            (grad_bar[..., j, :, :], 0.5 * (dx + 1j * dy)),
        ]
        if j in grid.active_directions:
            for got, want in pairs:
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        else:
            assert 2 * j not in axes and 2 * j + 1 not in axes
            for got, _ in pairs:
                assert np.all(got == 0.0)

    # skipping the constant components changes no bit on either scheme
    requests = [(j, False) for j in range(n)] + [(j, True) for j in range(n)]
    grid_axes = tuple(range(-grid.ndim_grid, 0))
    for f in fields.values():
        for view in (f, np.swapaxes(f, -1, -2)):  # the second is not contiguous
            last = grid.to_grid_last(view)
            origin = last[(...,) + (slice(0, 1),) * grid.ndim_grid]
            constant = np.all(last == origin, axis=grid_axes)
            for scheme in (SPECTRAL, ORACLE):
                got = grid.derivatives(last, requests, scheme)
                assert np.array_equal(got, _full_derivatives(grid, last, requests, scheme))
                assert np.all(got[:, constant] == 0.0)
                for barred in (False, True):
                    rows = got[n:] if barred else got[:n]
                    grad = grid.holomorphic_gradient(view, scheme, barred=barred)
                    assert np.array_equal(grad, grid.to_grid_first(rows))

    # a mixed request d/dz^j d/dzbar^k is the two first derivatives it names,
    # chained: bit for bit on the stencils, to round-off on the spectral path
    mixed = [(j, False, k, True) for j in range(n) for k in range(n)]
    for f in fields.values():
        for view in (f, np.swapaxes(f, -1, -2)):
            last = grid.to_grid_last(view)
            origin = last[(...,) + (slice(0, 1),) * grid.ndim_grid]
            constant = np.all(last == origin, axis=grid_axes)
            for scheme in (SPECTRAL, ORACLE):
                got = grid.derivatives(last, mixed, scheme)
                assert np.all(got[:, constant] == 0.0)
                for (j, _, k, _), d in zip(mixed, got):
                    inner = grid.derivatives(last, [(k, True)], scheme)[0]
                    want = grid.derivatives(inner, [(j, False)], scheme)[0]
                    if scheme == ORACLE:
                        assert np.array_equal(d, want)
                    else:
                        assert np.abs(d - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("scheme", [SPECTRAL, ORACLE])
def test_a_constant_infinite_component_is_not_skipped(scheme):
    """Its deviation from the first node is inf - inf = NaN, not 0, so the
    engine differentiates it (to NaN) while a constant finite one stays +0."""
    grid = TorusGrid(3, (0, 1), 8)
    last = np.zeros((2,) + grid.shape, dtype=complex)
    last[0] = np.inf
    last[1] = 2.5
    with np.errstate(invalid="ignore"):
        got = grid.derivatives(last, [(0, False)], scheme)
    assert np.isnan(got[0, 0]).all()
    assert np.all(got[0, 1] == 0.0) and not np.signbit(got[0, 1].real).any()
