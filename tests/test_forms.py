"""Exterior algebra: wedge products, the sigma basis, exterior derivative."""

import numpy as np
import pytest

from iiblab import DifferentialForm, TorusGrid, wedge, wedge_power
from iiblab.errors import DegreeError
from iiblab.forms import (
    matrix_to_n1n1,
    matrix_to_one_one,
    n1n1_to_matrix,
    one_one_to_matrix,
    sigma_basis_form,
    top_coefficient,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False

GRID = TorusGrid(3, (0, 1), 8)


def _one_form(seed):
    rng = np.random.default_rng(seed)
    out = DifferentialForm(GRID, 1, 0)
    for j in range(3):
        out.set_component((j,), (), rng.standard_normal(GRID.shape)
                          + 1j * rng.standard_normal(GRID.shape))
    return out


def test_bidegree_validation():
    with pytest.raises(DegreeError):
        DifferentialForm(GRID, 4, 0)
    f = DifferentialForm(GRID, 1, 1)
    with pytest.raises(DegreeError):
        f.set_component((0, 1), (0,), 1.0)
    with pytest.raises(DegreeError):
        f.set_component((1,), (1, 0), 1.0)  # not strictly increasing


def test_wedge_anticommutes_on_one_forms():
    a, b = _one_form(1), _one_form(2)
    ab = wedge(a, b)
    ba = wedge(b, a)
    for key, val in ab.comps.items():
        assert np.allclose(val, -ba.comps[key])


def test_wedge_square_of_one_form_vanishes():
    a = _one_form(3)
    assert wedge(a, a).max_abs() < 1e-14


def test_wedge_associates():
    a, b, c = _one_form(4), _one_form(5), _one_form(6)
    left = wedge(wedge(a, b), c)
    right = wedge(a, wedge(b, c))
    for key in set(left.comps) | set(right.comps):
        assert np.allclose(left.component(*key), right.component(*key))


def test_wedge_degree_overflow():
    a = _one_form(7)
    with pytest.raises(DegreeError):
        wedge_power(a, 4)


def test_one_one_matrix_roundtrip():
    rng = np.random.default_rng(8)
    g = rng.standard_normal(GRID.shape + (3, 3)) + 1j * rng.standard_normal(
        GRID.shape + (3, 3)
    )
    form = matrix_to_one_one(GRID, g)
    assert np.allclose(one_one_to_matrix(form), g)


def test_sigma_basis_duality():
    """sigma(j,k) pairs to one volume against i dz^j ^ dzbar^k only.

    A probe matrix with a single entry at [a, b] encodes, barred index
    first, the monomial i dz^b ^ dzbar^a.
    """
    for j in range(3):
        for k in range(3):
            sig = sigma_basis_form(GRID, j, k)
            for a in range(3):
                for b in range(3):
                    probe = np.zeros((3, 3))
                    probe[a, b] = 1.0
                    pairing = top_coefficient(
                        wedge(sig, matrix_to_one_one(GRID, probe))
                    )
                    want = 1.0 if (j, k) == (b, a) else 0.0
                    assert np.abs(pairing - want).max() < 1e-14


def test_n1n1_matrix_roundtrip():
    rng = np.random.default_rng(9)
    m = rng.standard_normal(GRID.shape + (3, 3)) + 1j * rng.standard_normal(
        GRID.shape + (3, 3)
    )
    assert np.allclose(n1n1_to_matrix(matrix_to_n1n1(GRID, m)), m)


def test_exterior_derivative_pieces_square_to_zero():
    x, y = GRID.coordinate(0), GRID.coordinate(1)
    f = DifferentialForm(GRID, 0, 0)
    f.set_component((), (), np.exp(2j * np.pi * x) * np.cos(2 * np.pi * y))
    d1, d2 = f.exterior_d()
    assert d1.del_().max_abs() < 1e-10
    assert d2.delbar().max_abs() < 1e-10
    # the mixed second derivatives anticommute
    mixed = d1.delbar() + d2.del_()
    assert mixed.max_abs() < 1e-10


def test_exterior_d_on_scalar_matches_gradient():
    x = GRID.coordinate(0)
    f = DifferentialForm(GRID, 0, 0)
    f.set_component((), (), np.sin(2 * np.pi * x))
    dhol, dbar = f.exterior_d()
    dz = GRID.holomorphic_gradient(np.sin(2 * np.pi * x))[..., 0]
    assert np.abs(dhol.component((0,), ()) - dz).max() < 1e-12
    assert np.abs(dbar.component((), (0,)) - np.conj(dz)).max() < 1e-12


if HAS_HYPOTHESIS:

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_wedge_with_zero_is_zero(seed):
        a = _one_form(seed)
        zero = DifferentialForm(GRID, 1, 0)
        assert wedge(a, zero).max_abs() == 0.0

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_wedge_is_bilinear(seed, scale):
        a, b = _one_form(seed), _one_form(seed + 1)
        scaled = wedge(a * scale, b)
        plain = wedge(a, b) * scale
        for key in set(scaled.comps) | set(plain.comps):
            assert np.allclose(scaled.component(*key), plain.component(*key))
