"""Differential forms of type (p,q) on the flat torus.

A (p,q)-form is stored sparsely as a mapping from ordered multi-index
pairs ``(J, K)`` (both strictly increasing tuples of zero-based axis
labels) to complex coefficient arrays over the grid:

    theta = sum_{J,K} comps[(J, K)] dz^J wedge dzbar^K

with ``dz^J = dz^{J[0]} ^ ... ^ dz^{J[p-1]}``.  All reordering signs are
handled by the algebra below; only strictly increasing keys are stored.

Conventions fixed here and relied on throughout the library:

* conjugation maps a (p,q)-form to a (q,p)-form with
  ``conj(theta)[(K,J)] = (-1)**(p*q) * conj(theta[(J,K)])``;
* a form of bidegree (p,p) is *real* when it equals its conjugate;
* the positive volume element is ``V = prod_m (i dz^m ^ dzbar^m)``,
  equal to ``i**(n**2) dz^1..dz^n ^ dzbar^1..dzbar^n``;
* ``sigma(j,k)`` is the unique (n-1,n-1) monomial with
  ``sigma(j,k) ^ (i dz^j ^ dzbar^k) = V``.  The sigma coefficients of an
  (n-1,n-1)-form are its *matrix encoding*; the matrix of a real form is
  Hermitian.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DegreeError, GridError
from .grid import TorusGrid

__all__ = [
    "DifferentialForm",
    "wedge",
    "wedge_power",
    "wedge_monomial",
    "sigma_basis_form",
    "sigma_coefficient",
    "n1n1_to_matrix",
    "matrix_to_n1n1",
    "matrix_to_one_one",
    "one_one_to_matrix",
    "volume_coefficient",
    "top_coefficient",
]

Key = tuple[tuple[int, ...], tuple[int, ...]]


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]):
    """Sign and merged tuple for sorting the concatenation left+right.

    Returns ``(None, 0)`` when the tuples share a label (the wedge dies).
    Both inputs are strictly increasing; the sign counts the inversions
    removed while interleaving ``right`` into ``left``.
    """
    if set(left) & set(right):
        return None, 0
    inversions = 0
    for r in right:
        inversions += sum(1 for l in left if l > r)
    merged = tuple(sorted(left + right))
    return merged, (-1) ** inversions


def wedge_monomial(j1: Key, j2: Key):
    """Combine two monomials ``dz^J1 dzbar^K1`` and ``dz^J2 dzbar^K2``.

    Returns ``(key, sign)`` or ``(None, 0)`` if a label repeats.  The sign
    includes the factor from moving the first monomial's dzbar block past
    the second monomial's dz block.
    """
    (J1, K1), (J2, K2) = j1, j2
    J, s_j = _merge_sign(J1, J2)
    if J is None:
        return None, 0
    K, s_k = _merge_sign(K1, K2)
    if K is None:
        return None, 0
    cross = (-1) ** (len(K1) * len(J2))
    return (J, K), cross * s_j * s_k


def volume_coefficient(n: int) -> complex:
    """Coefficient of ``dz^{1..n} ^ dzbar^{1..n}`` in the volume element V."""
    return (1j ** n) * ((-1) ** (n * (n - 1) // 2))


@dataclass
class DifferentialForm:
    """Sparse (p,q)-form over a torus grid."""

    grid: TorusGrid
    p: int
    q: int
    comps: dict[Key, np.ndarray] = dc_field(default_factory=dict)

    def __post_init__(self):
        n = self.grid.n
        if not (0 <= self.p <= n and 0 <= self.q <= n):
            raise DegreeError(f"bidegree ({self.p},{self.q}) outside [0,{n}]")

    # -- bookkeeping ------------------------------------------------------

    def _check_key(self, key: Key):
        J, K = key
        if len(J) != self.p or len(K) != self.q:
            raise DegreeError(f"key {key} does not match bidegree ({self.p},{self.q})")
        if list(J) != sorted(set(J)) or list(K) != sorted(set(K)):
            raise DegreeError(f"multi-indices must be strictly increasing: {key}")

    def set_component(self, J: tuple[int, ...], K: tuple[int, ...], values) -> None:
        key = (tuple(J), tuple(K))
        self._check_key(key)
        arr = np.asarray(values, dtype=complex)
        self.comps[key] = np.broadcast_to(arr, self.grid.shape).astype(complex)

    def component(self, J: tuple[int, ...], K: tuple[int, ...]) -> np.ndarray:
        """Coefficient array of one monomial (zeros when absent)."""
        key = (tuple(J), tuple(K))
        self._check_key(key)
        got = self.comps.get(key)
        return got if got is not None else np.zeros(self.grid.shape, dtype=complex)

    def _accumulate(self, key: Key, values: np.ndarray):
        have = self.comps.get(key)
        self.comps[key] = values if have is None else have + values

    def copy(self) -> "DifferentialForm":
        return DifferentialForm(
            self.grid, self.p, self.q,
            {k: v.copy() for k, v in self.comps.items()},
        )

    def max_abs(self) -> float:
        if not self.comps:
            return 0.0
        return max(float(np.abs(v).max()) for v in self.comps.values())

    # -- linear structure ---------------------------------------------------

    def _require_compatible(self, other: "DifferentialForm"):
        self.grid.require_same(other.grid)
        if (self.p, self.q) != (other.p, other.q):
            raise DegreeError(
                f"bidegree mismatch ({self.p},{self.q}) vs ({other.p},{other.q})"
            )

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._require_compatible(other)
        out = self.copy()
        for key, v in other.comps.items():
            out._accumulate(key, v)
        return out

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "DifferentialForm":
        out = self.copy()
        for key in out.comps:
            out.comps[key] = out.comps[key] * scalar
        return out

    __rmul__ = __mul__

    # -- derivatives --------------------------------------------------------

    def _derivatives(self, holomorphic: bool, antiholomorphic: bool):
        """Spectral del and/or delbar, sharing one transform per component.

        Returns the (p+1,q) and (p,q+1) forms, None for the one not asked for.
        """
        n = self.grid.n
        d = DifferentialForm(self.grid, self.p + 1, self.q) if holomorphic else None
        dbar = DifferentialForm(self.grid, self.p, self.q + 1) if antiholomorphic else None
        front = (-1) ** self.p  # dzbar^k passes the whole dz block
        for (J, K), v in self.comps.items():
            requests = []
            if holomorphic:
                requests += [(j, False) for j in range(n) if j not in J]
            if antiholomorphic:
                requests += [(k, True) for k in range(n) if k not in K]
            for (j, barred), dv in zip(requests, self.grid.derivatives(v, requests)):
                if dv is None:
                    continue
                if barred:
                    merged, sign = _merge_sign((j,), K)
                    dbar._accumulate((J, merged), front * sign * dv)
                else:
                    merged, sign = _merge_sign((j,), J)
                    d._accumulate((merged, K), sign * dv)
        return d, dbar

    def del_(self) -> "DifferentialForm":
        """Holomorphic exterior derivative (p,q) -> (p+1,q)."""
        return self._derivatives(True, False)[0]

    def delbar(self) -> "DifferentialForm":
        """Anti-holomorphic exterior derivative (p,q) -> (p,q+1)."""
        return self._derivatives(False, True)[1]

    def exterior_d(self):
        """Full exterior derivative, returned as the (del, delbar) pair."""
        return self._derivatives(True, True)

    def exterior_d_max_abs(self) -> float:
        d1, d2 = self.exterior_d()
        return max(d1.max_abs(), d2.max_abs())


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Wedge product of two forms on the same grid."""
    a.grid.require_same(b.grid)
    p, q = a.p + b.p, a.q + b.q
    n = a.grid.n
    if p > n or q > n:
        raise DegreeError(f"wedge overflows bidegree: ({p},{q}) with n={n}")
    out = DifferentialForm(a.grid, p, q)
    for ka, va in a.comps.items():
        for kb, vb in b.comps.items():
            key, sign = wedge_monomial(ka, kb)
            if key is None:
                continue
            out._accumulate(key, sign * (va * vb))
    return out


def wedge_power(a: DifferentialForm, m: int) -> DifferentialForm:
    """m-fold wedge power (m >= 1)."""
    if m < 1:
        raise DegreeError("wedge power needs m >= 1")
    out = a
    for _ in range(m - 1):
        out = wedge(out, a)
    return out


# -- the complement basis on (n-1, n-1) forms --------------------------------


def _complement(n: int, j: int) -> tuple[int, ...]:
    return tuple(m for m in range(n) if m != j)


def sigma_coefficient(n: int, j: int, k: int) -> complex:
    """Coefficient c with sigma(j,k) = c dz^{J'} ^ dzbar^{K'}."""
    key, sign = wedge_monomial(
        (_complement(n, j), _complement(n, k)), ((j,), (k,))
    )
    assert key is not None
    return volume_coefficient(n) / (1j * sign)


def sigma_basis_form(grid: TorusGrid, j: int, k: int) -> DifferentialForm:
    """The (n-1,n-1) monomial dual to ``i dz^j ^ dzbar^k`` (zero-based)."""
    n = grid.n
    out = DifferentialForm(grid, n - 1, n - 1)
    c = sigma_coefficient(n, j, k)
    out.set_component(_complement(n, j), _complement(n, k), np.full(grid.shape, c))
    return out


def n1n1_to_matrix(theta: DifferentialForm) -> np.ndarray:
    """Matrix encoding of an (n-1,n-1)-form in the sigma basis.

    Entry ``[j, k]`` multiplies ``sigma(j,k)``; shape ``(*grid, n, n)``.
    """
    n = theta.grid.n
    if (theta.p, theta.q) != (n - 1, n - 1):
        raise DegreeError(f"need an (n-1,n-1)-form, got ({theta.p},{theta.q})")
    out = np.zeros(theta.grid.shape + (n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            c = sigma_coefficient(n, j, k)
            out[..., j, k] = theta.component(_complement(n, j), _complement(n, k)) / c
    return out


def matrix_to_n1n1(grid: TorusGrid, matrix: np.ndarray) -> DifferentialForm:
    """Inverse of :func:`n1n1_to_matrix`."""
    n = grid.n
    out = DifferentialForm(grid, n - 1, n - 1)
    for j in range(n):
        for k in range(n):
            c = sigma_coefficient(n, j, k)
            out._accumulate(
                (_complement(n, j), _complement(n, k)),
                c * np.asarray(matrix[..., j, k], dtype=complex),
            )
    return out


# -- (1,1) forms from Hermitian matrix fields ---------------------------------


def matrix_to_one_one(grid: TorusGrid, g: np.ndarray) -> DifferentialForm:
    """The (1,1)-form ``i g[kbar,j] dz^j ^ dzbar^k`` of a matrix field.

    ``g[..., k, j]`` carries the barred index first, matching the metric
    convention used everywhere in this library.
    """
    n = grid.n
    out = DifferentialForm(grid, 1, 1)
    for j in range(n):
        for k in range(n):
            out._accumulate(((j,), (k,)), 1j * np.asarray(g[..., k, j], dtype=complex))
    return out


def one_one_to_matrix(form: DifferentialForm) -> np.ndarray:
    """Inverse of :func:`matrix_to_one_one`: recover g[..., k, j]."""
    if (form.p, form.q) != (1, 1):
        raise DegreeError(f"need a (1,1)-form, got ({form.p},{form.q})")
    n = form.grid.n
    out = np.zeros(form.grid.shape + (n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            out[..., k, j] = form.component((j,), (k,)) / 1j
    return out


def top_coefficient(theta: DifferentialForm) -> np.ndarray:
    """Coefficient of the volume element V in an (n,n)-form."""
    n = theta.grid.n
    if (theta.p, theta.q) != (n, n):
        raise DegreeError(f"need an (n,n)-form, got ({theta.p},{theta.q})")
    full = tuple(range(n))
    return theta.component(full, full) / volume_coefficient(n)
