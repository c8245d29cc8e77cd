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

The sign functions ``_merge_sign``, ``wedge_monomial`` and
``sigma_coefficient``, like ``_complement``, depend only on their index
arguments and are cached.  The anchor right-hand side reads tables
compiled from them once per n.  The complex coefficient matrix C of the
wedge with an (n-2,n-2)-form, restricted to the active directions, lets
:func:`i_del_delbar_matrix` sum the mixed second derivatives of the
components into i del delbar with one ``tensordot``.  The real table C_R
is C after the change to the real basis of Hermitian matrices
(:func:`hermitian_basis`); column ``r * n**2 + c`` of it gives entry
``[r, c]`` of the wedge matrix W.  :func:`wedge_block` never forms W: per
set of live components it caches the columns of W's blocks and of its
1 x 1 pivots, and multiplies the real and imaginary parts of the stacked
live components by each, one real matrix product per block.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DegreeError
from .grid import TorusGrid

__all__ = [
    "DifferentialForm",
    "wedge",
    "wedge_power",
    "wedge_monomial",
    "sigma_coefficient",
    "matrix_to_one_one",
    "volume_coefficient",
    "hermitian_basis",
    "wedge_block",
    "i_del_delbar_matrix",
]

Key = tuple[tuple[int, ...], tuple[int, ...]]


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
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

    def _accumulate(self, key: Key, values: np.ndarray):
        have = self.comps.get(key)
        self.comps[key] = values if have is None else have + values

    def __mul__(self, scalar) -> "DifferentialForm":
        return DifferentialForm(
            self.grid, self.p, self.q, {k: v * scalar for k, v in self.comps.items()}
        )

    def exterior_d(self):
        """Full exterior derivative d = del + delbar, spectral.

        Returns the (p+1,q) and (p,q+1) forms as the (del, delbar) pair.
        Each component takes one forward transform, shared by all its
        derivatives.
        """
        d = DifferentialForm(self.grid, self.p + 1, self.q)
        dbar = DifferentialForm(self.grid, self.p, self.q + 1)
        front = (-1) ** self.p  # dzbar^k passes the whole dz block
        active = self.grid.active_directions
        for (J, K), v in self.comps.items():
            requests = [(j, False) for j in active if j not in J]
            requests += [(k, True) for k in active if k not in K]
            for (j, barred), dv in zip(requests, self.grid.derivatives(v, requests)):
                if barred:
                    merged, sign = _merge_sign((j,), K)
                    dbar._accumulate((J, merged), front * sign * dv)
                else:
                    merged, sign = _merge_sign((j,), J)
                    d._accumulate((merged, K), sign * dv)
        return d, dbar


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


@functools.lru_cache(maxsize=None)
def _complement(n: int, j: int) -> tuple[int, ...]:
    return tuple(m for m in range(n) if m != j)


@functools.lru_cache(maxsize=None)
def sigma_coefficient(n: int, j: int, k: int) -> complex:
    """Coefficient c with sigma(j,k) = c dz^{J'} ^ dzbar^{K'}."""
    key, sign = wedge_monomial(
        (_complement(n, j), _complement(n, k)), ((j,), (k,))
    )
    assert key is not None
    return volume_coefficient(n) / (1j * sign)


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


# -- compiled tables of the anchor right-hand side -----------------------------


@functools.lru_cache(maxsize=None)
def _wedge_table(n: int) -> tuple[tuple[Key, ...], np.ndarray]:
    """Keys of an (n-2,n-2)-form and the matrix C of :func:`wedge_block`.

    C has shape ``(K, n**4)`` with K = C(n, n-2)**2 components.  Column
    ``(a*n + b)*n**2 + k*n + j`` holds, in the row of component ``kappa``,
    the sigma coefficient ``[a, b]`` of ``E[k, j] ^ dz^J ^ dzbar^K``,
    where ``E[k, j] = i dz^j ^ dzbar^k``.  Each entry is 0, +-1 or +-i,
    and each column has at most one non-zero entry.
    """
    lowers = list(itertools.combinations(range(n), n - 2))
    keys = tuple(itertools.product(lowers, lowers))
    C = np.zeros((len(keys), n ** 4), dtype=complex)
    for row, kappa in enumerate(keys):
        for j, k in itertools.product(range(n), range(n)):
            merged, sign = wedge_monomial(((j,), (k,)), kappa)
            if merged is None:
                continue
            a = next(m for m in range(n) if m not in merged[0])
            b = next(m for m in range(n) if m not in merged[1])
            C[row, (a * n + b) * n * n + k * n + j] = 1j * sign / sigma_coefficient(n, a, b)
    C.flags.writeable = False
    return keys, C


@functools.lru_cache(maxsize=None)
def hermitian_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """T and T^-1 of the real basis of Hermitian n x n matrices.

    Column ``j*n + k`` of T is the flattened ``E[j, j]`` (j == k),
    ``E[j, k] + E[k, j]`` (j < k) or ``i (E[k, j] - E[j, k])`` (j > k).
    The columns are orthogonal, so T^-1 is T^H with each row divided by 1
    or 2, exactly.  ``Re(T_inv @ M)`` are the coordinates of the Hermitian
    part of any M.
    """
    T = np.zeros((n * n, n * n), dtype=complex)
    for j, k in itertools.product(range(n), range(n)):
        m = j * n + k
        if j == k:
            T[m, m] = 1.0
        elif j < k:
            T[j * n + k, m] = T[k * n + j, m] = 1.0
        else:
            T[k * n + j, m], T[j * n + k, m] = 1j, -1j
    T_inv = T.conj().T / (np.abs(T) ** 2).sum(axis=0)[:, None]
    for table in (T, T_inv):
        table.flags.writeable = False
    return T, T_inv


@functools.lru_cache(maxsize=None)
def _real_wedge_table(n: int) -> np.ndarray:
    """C_R of :func:`wedge_block`: C in the Hermitian basis, ``(2K, n**4)``.

    Rows 2*kappa and 2*kappa + 1 are the real part and minus the imaginary
    part of ``T_inv @ C[kappa] @ T`` (a row of C as its n*n by n*n block),
    so the stacked components, read as interleaved real and imaginary
    parts, multiply it into the real part of the block.  Entries are sums
    of at most four terms in 0, +-1/2 and +-1, so the change is exact.
    """
    _, C = _wedge_table(n)
    T, T_inv = hermitian_basis(n)
    block = T_inv @ C.reshape(-1, n * n, n * n) @ T
    C_R = np.stack([block.real, -block.imag], axis=1).reshape(-1, n ** 4)
    C_R.flags.writeable = False
    return C_R


@functools.lru_cache(maxsize=None)
def _i_del_delbar_table(n: int, directions: tuple[int, ...]):
    """The part of C that i del delbar reaches along the given directions.

    Returns ``(pairs, comps, rows, D)``: the (j, k) direction pairs, the
    keys of the components and the indices of the sigma rows some pair
    couples, and ``D[p, r, c]``, the coefficient of ``d_j dbar_k`` of
    component ``comps[c]`` in row ``rows[r]`` for ``pairs[p] = (j, k)``.
    """
    keys, C = _wedge_table(n)
    pairs = tuple(itertools.product(directions, directions))
    D = C.reshape(-1, n * n, n * n)[:, :, [k * n + j for j, k in pairs]].transpose(2, 1, 0)
    rows = np.flatnonzero(D.any(axis=(0, 2)))
    live = np.flatnonzero(D.any(axis=(0, 1)))
    D = np.ascontiguousarray(D[:, rows][:, :, live])
    for table in (rows, D):
        table.flags.writeable = False
    return pairs, tuple(keys[c] for c in live), rows, D


def _require_lower(theta: DifferentialForm) -> None:
    n = theta.grid.n
    if (theta.p, theta.q) != (n - 2, n - 2):
        raise DegreeError(f"need an (n-2,n-2)-form, got ({theta.p},{theta.q})")


def _stack(theta: DifferentialForm, keys, axis: int) -> np.ndarray:
    shape = theta.grid.shape
    return np.stack(
        [np.broadcast_to(theta.comps.get(key, 0.0), shape) for key in keys],
        axis=axis, dtype=complex,
    )


@functools.lru_cache(maxsize=None)
def _blocks(n: int, live: tuple[bool, ...]):
    """The coupled blocks of :func:`wedge_block` for the components flagged
    in ``live``, the C_R columns of each block's entries, the 1 x 1 blocks
    and the C_R columns of their pivots, on the rows of the live components."""
    C_R = _real_wedge_table(n)[np.repeat(live, 2)]
    reach = (C_R != 0).any(axis=0).reshape(n * n, n * n)
    reach = reach | reach.T | np.eye(n * n, dtype=bool)
    while not np.array_equal(wider := (reach.astype(int) @ reach) > 0, reach):
        reach = wider  # until every chain of entries joins its two ends
    blocks = [np.array(block) for block in sorted({tuple(np.flatnonzero(r)) for r in reach})]
    coupled = tuple(block for block in blocks if block.size > 1)
    singles = np.array([block[0] for block in blocks if block.size == 1], dtype=int)
    tables = tuple(C_R[:, (block[:, None] * n * n + block).ravel()] for block in coupled)
    pivot_table = C_R[:, singles * (n * n + 1)]
    for table in (*coupled, *tables, singles, pivot_table):
        table.flags.writeable = False
    return coupled, tables, singles, pivot_table


def wedge_block(theta: DifferentialForm):
    """Matrix W of ``X -> sigma matrix of X ^ theta`` in the Hermitian basis, as its blocks.

    Entry ``[r, m]`` of W holds the :func:`hermitian_basis` coordinate r of
    the sigma matrix of ``T_m ^ theta``, with ``T_m`` as a (1,1)-form
    (:func:`matrix_to_one_one`): the real part of ``T_inv @ M @ T`` for the
    complex sigma-basis block M, which is real when theta is a real
    (n-2,n-2)-form.  An entry of W is zero at every node unless a row of
    C_R of a live component (one non-zero at some node) reaches it; the
    connected components of that pattern are the blocks (Duff, Erisman and
    Reid, *Direct Methods for Sparse Matrices*, 1986, ch. 6).  Returns
    ``(coupled, (singles, pivots))``: each coupled block's sorted indices
    (two or more) and principal submatrix, shape ``(*grid, m, m)``, then the
    indices of the 1 x 1 blocks and their entries, shape ``(*grid, s)``.
    Every other entry of W is a structural zero, and W is never formed.
    """
    _require_lower(theta)
    grid, n = theta.grid, theta.grid.n
    keys, _ = _wedge_table(n)
    live = tuple(bool(np.any(theta.comps.get(key, 0.0))) for key in keys)
    coupled, tables, singles, pivot_table = _blocks(n, live)
    comps = [key for key, on in zip(keys, live) if on]
    stacked = _stack(theta, comps, axis=-1).reshape(-1, len(comps)).view(np.float64)
    blocks = tuple(
        (block, (stacked @ table).reshape(grid.shape + (block.size, block.size)))
        for block, table in zip(coupled, tables)
    )
    return blocks, (singles, (stacked @ pivot_table).reshape(grid.shape + (singles.size,)))


def i_del_delbar_matrix(theta: DifferentialForm) -> np.ndarray:
    """Sigma matrix of ``i del delbar theta`` for an (n-2,n-2)-form theta.

    i del delbar of ``v dz^J ^ dzbar^K`` is the sum over (j, k) of
    ``d_j dbar_k v  E[k, j] ^ dz^J ^ dzbar^K``, so its sigma coefficients
    are the entries of C.  The components some active direction pair
    reaches go to :meth:`TorusGrid.derivatives` together, one mixed request
    per pair (one forward transform; constant components cost nothing),
    and one ``tensordot`` with the part of C that couples them to the
    sigma rows that can be non-zero sums the result.  Shape
    ``(*grid, n, n)``.
    """
    _require_lower(theta)
    grid, n = theta.grid, theta.grid.n
    pairs, comps, rows, D = _i_del_delbar_table(n, grid.active_directions)
    mixed = grid.derivatives(
        _stack(theta, comps, axis=0), [(j, False, k, True) for j, k in pairs]
    )
    out = np.zeros(grid.shape + (n * n,), dtype=complex)
    out[..., rows] = grid.to_grid_first(np.tensordot(D, mixed, axes=([0, 2], [0, 1])))
    return out.reshape(grid.shape + (n, n))
