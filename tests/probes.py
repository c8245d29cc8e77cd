"""Deterministic probe fields shared by the tests, the form-algebra oracle,
and the dense-loop oracle of the Chern tensors.

The oracle is a general sparse form algebra: a (p,q)-form is a mapping from
ordered multi-index pairs ``(J, K)`` (strictly increasing tuples of
zero-based labels) to complex coefficient arrays over the grid,

    theta = sum_{J,K} comps[(J, K)] dz^J wedge dzbar^K,

multiplied term by term with the signs of :func:`iiblab.forms.wedge_monomial`
and differentiated component by component.  The library's stacks of minors
(:func:`iiblab.forms.omega_power`) and its compiled d
(:func:`iiblab.forms.exterior_d`) are held to it.

The dense-loop oracle (:func:`dense_tensors`, :func:`dense_pair_endo_forms`)
computes the metric factor, the connection, curvature and torsion and the
pairing of endomorphism-valued forms with every slot of every product,
in the unrolled grid-last loops the live-slot kernels of
:mod:`iiblab.chern` and :mod:`iiblab.metrics` restrict: those must match
it bit for bit.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from iiblab.forms import _keys, _merge_sign, _real_wedge_table, wedge_monomial
from iiblab.grid import SPECTRAL, TorusGrid
from iiblab.metrics import flat_metric, fourier_scalar, hermitize

Key = tuple[tuple[int, ...], tuple[int, ...]]


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
            raise ValueError(f"bidegree ({self.p},{self.q}) outside [0,{n}]")

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
    if a.grid != b.grid:
        raise ValueError(f"mismatched grids: {a.grid} vs {b.grid}")
    p, q = a.p + b.p, a.q + b.q
    n = a.grid.n
    if p > n or q > n:
        raise ValueError(f"wedge overflows bidegree: ({p},{q}) with n={n}")
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
        raise ValueError("wedge power needs m >= 1")
    out = a
    for _ in range(m - 1):
        out = wedge(out, a)
    return out


def matrix_to_one_one(grid: TorusGrid, g: np.ndarray) -> DifferentialForm:
    """The (1,1)-form ``i g[kbar,j] dz^j ^ dzbar^k`` of a matrix field.

    ``g[..., k, j]`` carries the barred index first, matching the metric
    convention used everywhere in the library.
    """
    n = grid.n
    out = DifferentialForm(grid, 1, 1)
    for j in range(n):
        for k in range(n):
            out._accumulate(((j,), (k,)), 1j * np.asarray(g[..., k, j], dtype=complex))
    return out


def form_stack(theta: DifferentialForm) -> np.ndarray:
    """The stack of a (p,p)-form in the library's key order, shape
    ``(K, *grid)``; a key theta does not hold is a zero component."""
    grid = theta.grid
    return np.stack([np.broadcast_to(theta.comps.get(key, 0.0), grid.shape)
                     for key in _keys(grid.n, theta.p)], dtype=complex)


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


def full_wedge(grid, theta) -> np.ndarray:
    """The whole matrix W of :func:`iiblab.forms.wedge_block` of the stack
    theta, shape ``(*grid, n*n, n*n)``: every component, live or not, times
    the whole table C_R.  The oracle the blocks are held to."""
    n = grid.n
    stacked = np.ascontiguousarray(grid.to_grid_first(theta))
    W = stacked.reshape(-1, len(theta)).view(np.float64) @ _real_wedge_table(n)
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


def tridiagonal_metric(grid: TorusGrid, scale: float) -> np.ndarray:
    """Tridiagonal metric: g[0, 2] = 0 everywhere, every slot of ginv live."""
    g = flat_metric(grid) * (1.0 + 0.1 * scale * np.sin(2 * np.pi * grid.coordinate(0)))[..., None, None]
    wave = 0.2 * scale * np.exp(2j * np.pi * grid.coordinate(grid.active_axes[-1]))
    for a in range(grid.n - 1):
        g[..., a + 1, a] = wave
        g[..., a, a + 1] = np.conj(wave)
    return g


def diagonal_metric(grid: TorusGrid, scale: float) -> np.ndarray:
    """Diagonal metric varying along every active real axis, so that on two
    active directions the torsion square couples them."""
    g = np.zeros(grid.shape + (grid.n, grid.n), dtype=complex)
    for a in range(grid.n):
        f = sum(np.sin(2 * np.pi * (a + 1) * grid.coordinate(x) + x) for x in grid.active_axes)
        g[..., a, a] = np.exp(0.1 * scale * f)
    return g


def dense_factor(g_last: np.ndarray):
    """``(L, L^-1, g^-1)`` of a grid-last matrix field, every slot computed."""
    n = len(g_last)
    low = np.zeros(g_last.shape, dtype=complex)
    for j in range(n):
        d = g_last[j, j].real - (low[j, :j].real ** 2 + low[j, :j].imag ** 2).sum(axis=0)
        low[j, j] = root = np.sqrt(d)
        for i in range(j + 1, n):
            low[i, j] = (g_last[i, j] - (low[i, :j] * np.conj(low[j, :j])).sum(axis=0)) / root
    inv = np.zeros_like(low)
    for i in range(n):
        inv[i, i] = scale = 1.0 / low[i, i].real
        for j in range(i):
            inv[i, j] = -scale * (low[i, j:i] * inv[j:i, j]).sum(axis=0)
    ginv = np.empty_like(low)
    for p in range(n):
        ginv[p, p] = (inv[p:, p].real ** 2 + inv[p:, p].imag ** 2).sum(axis=0)
        for a in range(p + 1, n):
            ginv[p, a] = (np.conj(inv[a:, p]) * inv[a:, a]).sum(axis=0)
            ginv[a, p] = np.conj(ginv[p, a])
    return low, inv, ginv


def dense_tensors(grid: TorusGrid, g: np.ndarray, scheme: str = SPECTRAL) -> dict:
    """Grid-first factor, dg, gamma, curvature, second Ricci form, torsion,
    its trace, its square and the square's norm, from full-shape grid-last
    loops over every slot."""
    n, act = grid.n, grid.active_directions
    g = np.ascontiguousarray(grid.to_grid_last(g))
    low, inv_chol, ginv = dense_factor(g)
    dg = grid.derivatives(g, [(j, False) for j in range(n)], scheme)
    gamma = np.zeros_like(dg)
    for m in act:
        for a in range(n):
            gamma[m] += ginv[:, a, None] * dg[m, a]
    curv = np.zeros((n,) + gamma.shape, dtype=complex)
    for j in act:
        for k, d in zip(act, grid.derivatives(gamma[j], [(k, True) for k in act], scheme)):
            np.negative(d, out=curv[k, j])
    traced = np.zeros_like(ginv)
    for j in act:
        for k in act:
            traced += ginv[j, k] * curv[k, j]
    ricci = np.zeros_like(ginv)
    for l in range(n):
        ricci += g[:, l, None] * traced[l]
    t_low = np.zeros_like(dg)
    for a in act:
        t_low[:, a] += dg[a]
        t_low[:, :, a] -= dg[a]
    tau = np.zeros_like(ginv[0])
    for p in act:
        for q in range(n):
            tau += ginv[p, q] * dg[p, q]
        tau[p] -= (np.swapaxes(ginv, 0, 1) * dg[p]).sum(axis=(0, 1))
    r = {}
    for p in act:
        r[p] = np.zeros_like(ginv)
        for q in range(n):
            r[p] += dg[p, :, q, None] * ginv[q]
    ttbar = np.zeros_like(ginv)
    for a in act:
        u = np.zeros_like(ginv)
        for p in act:
            u += ginv[p, a] * r[p]
            u -= r[p][:, a, None] * ginv[p]
        dg_bar = np.conj(dg[a])
        for b in range(n):
            ttbar += u[:, b, None] * dg_bar[:, b]
    ttbar *= 2.0
    t_norm_sq = (ginv * np.swapaxes(ttbar, 0, 1)).real.sum(axis=(0, 1))
    out = dict(lower=low, inv_chol=inv_chol, ginv=ginv, dg=dg, gamma=gamma, curvature=curv,
               second_ricci=ricci, t_low=t_low, tau=tau, ttbar=ttbar, t_norm_sq=t_norm_sq)
    return {key: grid.to_grid_first(value) for key, value in out.items()}


def dense_pair_endo_forms(m1, m2, m3, x, y) -> np.ndarray:
    """:func:`iiblab.chern.pair_endo_forms` with every slot of every product
    live: its grid-last loops, in its order, over every slot."""

    def grid_last(arr, rank):
        return np.ascontiguousarray(np.moveaxis(arr, range(-rank, 0), range(rank)), complex)

    m1, m2, m3 = (grid_last(m, 2) for m in (m1, m2, m3))
    x_last = grid_last(x, 3)
    y_bar = np.conj(x_last if y is x else grid_last(y, 3))
    out = np.zeros_like(m2)
    for m in range(len(x_last)):
        xm3 = np.zeros_like(m2)
        for l in range(len(m3)):
            xm3 += x_last[m, :, l, None] * m3[l]
        z = np.zeros_like(m2)
        for b in range(len(m2)):
            z += m2[:, b, None] * xm3[b]
        w = np.zeros_like(m2)
        for g in range(len(y_bar)):
            w += m1[m, g] * y_bar[g]
        out += z * w
    return out.sum(axis=(0, 1))


def dense_weighted_velocity(grid: TorusGrid, w: np.ndarray) -> np.ndarray:
    """``hermitize(-ricci2 - ttbar / 2)`` of w from :func:`dense_tensors`."""
    want = dense_tensors(grid, w)
    return hermitize(-want["second_ricci"] - 0.5 * want["ttbar"])
