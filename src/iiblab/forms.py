"""Differential forms on the flat torus, as stacks of components.

The runtime has one representation of forms.  A (p,p)-form
``sum_{J,K} theta[(J, K)] dz^J ^ dzbar^K`` (J, K strictly increasing
tuples of zero-based labels) is one complex array of shape ``(K, *grid)``:
its components in *key order*, (J, K) running over the product of the
p-subsets of ``range(n)`` in ``itertools.combinations`` order
(:func:`_keys`).  The library needs omega^{n-2} and omega^{n-1} of
``omega = i g[kbar,j] dz^j ^ dzbar^k`` (barred index first, as everywhere)
and d of the second.  A general sparse form algebra lives only with the
tests, as the oracle these stacks and tables are held to.

Conventions fixed here and relied on throughout the library:

* the positive volume element is ``V = prod_m (i dz^m ^ dzbar^m)``,
  equal to ``i**(n**2) dz^1..dz^n ^ dzbar^1..dzbar^n``;
* ``sigma(j,k)`` is the unique (n-1,n-1) monomial with
  ``sigma(j,k) ^ (i dz^j ^ dzbar^k) = V``.  The sigma coefficients of an
  (n-1,n-1)-form are its *matrix encoding*; the matrix of a real form is
  Hermitian.

The sign functions ``_merge_sign``, ``wedge_monomial``, ``sigma_coefficient``
and ``_complement`` are cached; every table below is compiled from them.

Powers of omega (:func:`omega_power`).  The 2-forms ``i g[k, j] dz^j ^
dzbar^k`` commute, so in omega^m each set J of the j appears in m!
orders; with the j in index order, the k run over the orderings of a set
K, each signed by its permutation.  Hence omega^m[(J, K)] = c_{J,K} det
g[K, J], the minor on rows K (barred) and columns J, with c_{J,K} = m! i^m
s and s the sign :func:`wedge_monomial` gives to the factors ``i dz^{J_l}
^ dzbar^{K_l}`` wedged in index order.  A Laplace recursion along the
first row, det g[K, J] = sum_l (-1)^l g[K_0, J_l] det g[K_1.., J - J_l],
builds the m x m minors from the (m-1)-minors as arrays over the grid,
with no inverse metric.  d of an (n-1,n-1) stack (:func:`exterior_d`,
derived in :mod:`iiblab.metrics`) is compiled from ``_merge_sign``.

The anchor right-hand side reads the complex coefficient matrix C of the
wedge with an (n-2,n-2)-form.  Restricted to the active directions, it
lets :func:`i_del_delbar_matrix` sum the mixed second derivatives of the
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
import math

import numpy as np

from .grid import TorusGrid

__all__ = [
    "wedge_monomial",
    "sigma_coefficient",
    "volume_coefficient",
    "omega_power",
    "exterior_d",
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


# -- powers of omega and their exterior derivative ----------------------------


@functools.lru_cache(maxsize=None)
def _keys(n: int, m: int) -> tuple[Key, ...]:
    """Keys (J, K) of the components of an (m,m)-form, in stack order."""
    subsets = tuple(itertools.combinations(range(n), m))
    return tuple(itertools.product(subsets, subsets))


@functools.lru_cache(maxsize=None)
def _power_table(n: int, m: int):
    """The constants and the Laplace plan of :func:`omega_power`.

    Returns c_{J,K} in key order, the index ``k * n + j`` of each entry
    g[k, j] the recursion starts from and, per size r = 2..m, ``(entries,
    minors)`` of shape ``(r, count)``: term l of minor i is ``(-1)**l``
    times entry ``entries[l, i]`` times minor ``minors[l, i]`` of size r - 1.
    """
    keys = _keys(n, m)
    consts = np.empty(len(keys), dtype=complex)
    for c, (J, K) in enumerate(keys):
        key, sign = ((), ()), 1
        for j, k in zip(J, K):
            key, s = wedge_monomial(key, ((j,), (k,)))
            sign *= s
        consts[c] = math.factorial(m) * (1, 1j, -1, -1j)[m % 4] * sign
    # the minors (rows, columns) each size needs, top-down
    levels = [[(K, J) for J, K in keys]]
    for r in range(m, 1, -1):
        levels.append(sorted({(K[1:], J[:l] + J[l + 1:]) for K, J in levels[-1] for l in range(r)}))
    levels.reverse()
    first = np.array([K[0] * n + J[0] for K, J in levels[0]])
    steps = []
    for r, (lower, upper) in enumerate(zip(levels, levels[1:]), start=2):
        at = {minor: i for i, minor in enumerate(lower)}
        entries = np.array([[K[0] * n + J[l] for K, J in upper] for l in range(r)])
        minors = np.array([[at[K[1:], J[:l] + J[l + 1:]] for K, J in upper] for l in range(r)])
        steps.append((entries, minors))
    for table in (consts, first, *itertools.chain(*steps)):
        table.flags.writeable = False
    return consts, first, tuple(steps)


def omega_power(g: np.ndarray, m: int) -> np.ndarray:
    """omega^m of the metric field ``g[..., k, j]`` (m >= 1) as a stack in
    key order, shape ``(K, *grid)``: c_{J,K} det g[K, J] by the Laplace
    recursion (module docstring), C(n, r) minors at a time."""
    n = g.shape[-1]
    consts, first, steps = _power_table(n, m)
    entries = np.moveaxis(g, (-2, -1), (0, 1)).reshape((n * n,) + g.shape[:-2])
    minors = entries[first]
    for rows, below in steps:
        out = np.empty((rows.shape[1],) + minors.shape[1:], dtype=complex)
        width = math.comb(n, len(rows))
        for start in range(0, len(out), width):
            part = slice(start, start + width)
            acc = np.multiply(entries[rows[0, part]], minors[below[0, part]], out=out[part])
            for l in range(1, len(rows)):
                term = entries[rows[l, part]] * minors[below[l, part]]
                (np.subtract if l % 2 else np.add)(acc, term, out=acc)
        minors = out
    minors *= consts.reshape((-1,) + (1,) * (g.ndim - 2))
    return minors


@functools.lru_cache(maxsize=None)
def _exterior_d_table(n: int, directions: tuple[int, ...]):
    """For each component of an (n-1,n-1)-form: its index, its derivative
    requests along the directions and, per request, the part it adds to
    (del parts first) and the sign."""
    subsets = tuple(itertools.combinations(range(n), n - 1))
    front = (-1) ** (n - 1)  # dzbar^k passes the whole dz block
    plan = []
    for c, (J, K) in enumerate(_keys(n, n - 1)):
        requests = [(j, False) for j in directions if j not in J]
        requests += [(k, True) for k in directions if k not in K]
        targets = [
            (n + subsets.index(J), front * _merge_sign((j,), K)[1]) if barred
            else (subsets.index(K), _merge_sign((j,), J)[1])
            for j, barred in requests
        ]
        plan.append((c, requests, targets))
    return tuple(plan)


def nonzero_components(stack: np.ndarray, ndim_grid: int) -> np.ndarray:
    """Boolean over the index axes of ``stack[*index, *grid]``: the
    components non-zero (or NaN) at some node.  One non-zero at the first
    node costs no scan, so a dense field is read once, at that node."""
    live = stack[(Ellipsis,) + (0,) * ndim_grid] != 0
    for i in zip(*np.nonzero(~live)):
        live[i] = stack[i].any()
    return live


def exterior_d(grid: TorusGrid, stack: np.ndarray) -> list[np.ndarray]:
    """d of an (n-1,n-1)-form given as its stack: the n components of the
    (n,n-1) part, then the n of the (n-1,n) part, each in key order (module
    docstring).  Each component is transformed at most once.  One that is
    0 at every node (a structural zero, such as an off-diagonal minor of a
    diagonal metric) is skipped: its derivatives are +0, and the parts,
    sums that start at +0, never hold -0, so adding +0 changes no bit
    (:func:`nonzero_components`)."""
    parts = [np.zeros(grid.shape, dtype=complex) for _ in range(2 * grid.n)]
    live = nonzero_components(stack, grid.ndim_grid)
    for c, requests, targets in _exterior_d_table(grid.n, grid.active_directions):
        if not live[c]:
            continue
        for (part, sign), dv in zip(targets, grid.derivatives(stack[c], requests)):
            (np.add if sign > 0 else np.subtract)(parts[part], dv, out=parts[part])
    return parts


# -- compiled tables of the anchor right-hand side -----------------------------


@functools.lru_cache(maxsize=None)
def _wedge_table(n: int) -> np.ndarray:
    """The matrix C of :func:`wedge_block`, on the keys of an (n-2,n-2)-form.

    C has shape ``(K, n**4)`` with K = C(n, n-2)**2 components.  Column
    ``(a*n + b)*n**2 + k*n + j`` holds, in the row of component ``kappa``,
    the sigma coefficient ``[a, b]`` of ``E[k, j] ^ dz^J ^ dzbar^K``,
    where ``E[k, j] = i dz^j ^ dzbar^k``.  Each entry is 0, +-1 or +-i,
    and each column has at most one non-zero entry.
    """
    keys = _keys(n, n - 2)
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
    return C


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
    C = _wedge_table(n)
    T, T_inv = hermitian_basis(n)
    block = T_inv @ C.reshape(-1, n * n, n * n) @ T
    C_R = np.stack([block.real, -block.imag], axis=1).reshape(-1, n ** 4)
    C_R.flags.writeable = False
    return C_R


@functools.lru_cache(maxsize=None)
def _i_del_delbar_table(n: int, directions: tuple[int, ...]):
    """The part of C that i del delbar reaches along the given directions.

    Returns ``(pairs, comps, rows, D)``: the (j, k) direction pairs, the
    stack indices of the components and the indices of the sigma rows some
    pair couples, and ``D[p, r, c]``, the coefficient of ``d_j dbar_k`` of
    component ``comps[c]`` in row ``rows[r]`` for ``pairs[p] = (j, k)``.
    """
    C = _wedge_table(n)
    pairs = tuple(itertools.product(directions, directions))
    D = C.reshape(-1, n * n, n * n)[:, :, [k * n + j for j, k in pairs]].transpose(2, 1, 0)
    rows = np.flatnonzero(D.any(axis=(0, 2)))
    live = np.flatnonzero(D.any(axis=(0, 1)))
    D = np.ascontiguousarray(D[:, rows][:, :, live])
    for table in (rows, live, D):
        table.flags.writeable = False
    return pairs, live, rows, D


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


def wedge_block(grid: TorusGrid, theta: np.ndarray):
    """Matrix W of ``X -> sigma matrix of X ^ theta`` in the Hermitian basis, as its blocks.

    ``theta`` is the stack of an (n-2,n-2)-form.  Entry ``[r, m]`` of W
    holds the :func:`hermitian_basis` coordinate r of the sigma matrix of
    ``T_m ^ theta``, with ``T_m`` as the (1,1)-form ``i T_m[kbar, j] dz^j ^
    dzbar^k``: the real part of ``T_inv @ M @ T`` for the complex
    sigma-basis block M, which is real when theta is a real (n-2,n-2)-form.
    An entry of W is zero at every node unless a row of C_R of a live
    component (one non-zero at some node) reaches it; the connected
    components of that pattern are the blocks (Duff, Erisman and Reid,
    *Direct Methods for Sparse Matrices*, 1986, ch. 6).  Returns
    ``(coupled, (singles, pivots))``: each coupled block's sorted indices
    (two or more) and principal submatrix, shape ``(*grid, m, m)``, then the
    indices of the 1 x 1 blocks and their entries, shape ``(*grid, s)``.
    Every other entry of W is a structural zero, and W is never formed.
    """
    live = nonzero_components(theta, grid.ndim_grid)
    coupled, tables, singles, pivot_table = _blocks(grid.n, tuple(live.tolist()))
    stacked = np.ascontiguousarray(grid.to_grid_first(theta[live]))
    stacked = stacked.reshape(-1, stacked.shape[-1]).view(np.float64)
    blocks = tuple(
        (block, (stacked @ table).reshape(grid.shape + (block.size, block.size)))
        for block, table in zip(coupled, tables)
    )
    return blocks, (singles, (stacked @ pivot_table).reshape(grid.shape + (singles.size,)))


def i_del_delbar_matrix(grid: TorusGrid, theta: np.ndarray) -> np.ndarray:
    """Sigma matrix of ``i del delbar theta`` for the stack of an
    (n-2,n-2)-form theta.

    i del delbar of ``v dz^J ^ dzbar^K`` is the sum over (j, k) of
    ``d_j dbar_k v  E[k, j] ^ dz^J ^ dzbar^K``, so its sigma coefficients
    are the entries of C.  The components some active direction pair
    reaches and that are non-zero somewhere (:func:`nonzero_components`; a
    component 0 at every node has zero derivatives) go to
    :meth:`TorusGrid.derivatives` together, one mixed request per pair (one
    forward transform), and one ``tensordot`` with the part of C that
    couples them to the sigma rows that can be non-zero sums the result.
    Shape ``(*grid, n, n)``.
    """
    n = grid.n
    pairs, comps, rows, D = _i_del_delbar_table(n, grid.active_directions)
    live = nonzero_components(theta, grid.ndim_grid)[comps]
    mixed = grid.derivatives(theta[comps[live]], [(j, False, k, True) for j, k in pairs])
    out = np.zeros(grid.shape + (n * n,), dtype=complex)
    out[..., rows] = grid.to_grid_first(np.tensordot(D[:, :, live], mixed, axes=([0, 2], [0, 1])))
    return out.reshape(grid.shape + (n, n))
