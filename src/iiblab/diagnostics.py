"""Per-time scalar diagnostics for flow runs.

Every record compares the current physical metric against the *initial*
physical metric of the same run: the relative endomorphism h, its
eigenvalue range, trace extrema and determinant minimum are all taken
with respect to that fixed baseline.  The connection-magnitude field S
uses the same baseline as reference connection.

A record is the plain dict that one line of ``diagnostics.jsonl``
holds: float values under the keys ``t``, ``hEigMin``, ``hEigMax``,
``tauMax``, ``normMax``, ``normMin``, ``sMax``, ``trhMin``, ``trhMax``,
``detHMin``, ``balancedDefect`` and ``torsionSqMax``, in that order, plus
``testFunctionMax`` when a test function is requested.

The baseline is the :class:`ChernPackage` of the run's initial metric,
built once per run; it caches the inverse metric, the connection, the
volume norm and the inverse Cholesky factor that whitens each metric
against it, so a record costs one :class:`ChernPackage` of the current
metric, and none when the current metric is the baseline's own array.
The S pairing skips the slots its inputs hold 0 at every node
(:func:`iiblab.chern.pair_endo_forms`), and the balanced defect the minors
of omega^{n-1} that are 0 at every node (:func:`iiblab.forms.exterior_d`);
each finds them in its inputs, and both keep every bit.

S, and so ``sMax``, is the norm of a difference of two O(1) connections
that differ little early in a run, so there it carries only about 1e-10
relative precision: a 1e-16 relative change of the state can move it by a
few 1e-10 relative.  ``testFunctionMax`` inherits this through log S.

The optional blended test function ``log S + epsilon * tr h - a * log
norm`` is only evaluated when requested.  S vanishes identically at the
baseline time, so its logarithm is clamped at a tiny floor to keep the
record finite there; the clamp is far below any value of interest.
"""

from __future__ import annotations

import numpy as np

from .chern import ChernPackage, pair_endo_forms
from .metrics import block_eigenvalues, conformally_balanced_defect

__all__ = ["compute_diagnostics"]

_LOG_FLOOR = 1e-300


def compute_diagnostics(
    g: np.ndarray,
    baseline: ChernPackage,
    t: float,
    test_function: tuple[float, float] | None = None,
) -> dict:
    """Build the record of the physical metric ``g`` at time ``t``.

    ``baseline`` is the :class:`ChernPackage` of the run's initial metric;
    it fixes the grid, the endomorphism baseline and the reference
    connection for S, and when ``g`` is its own metric array it is also
    the package of ``g``.  ``test_function`` is an optional ``(epsilon, a)``
    pair.
    """
    grid, n = baseline.grid, baseline.grid.n
    pkg = baseline if g is baseline.g else ChernPackage(grid, g)

    # h = L^-1 g L^-H is Hermitian and similar to g0^-1 g (g0 the baseline metric):
    # same eigenvalues and trace.  Grid-last, over the lower triangles of L^-1
    # and h, which is all block_eigenvalues reads
    inv_chol, g_last = baseline.factor.inv_chol, pkg._g_last
    half = [sum(inv_chol[a, b] * g_last[b] for b in range(a + 1)) for a in range(n)]
    bar, h = np.conj(inv_chol), np.zeros_like(inv_chol)
    for a in range(n):
        for d in range(a + 1):
            h[a, d] = sum(half[a][c] * bar[d, c] for c in range(d + 1))
    eigs = block_eigenvalues(grid.to_grid_first(h))
    trh = sum(h[j, j].real for j in range(n))
    det_h = baseline.norm_sq / pkg.norm_sq

    tau = grid.to_grid_last(pkg.tau)
    tau_sq = (pkg.factor.ginv * tau[:, None] * np.conj(tau)).real.sum(axis=(0, 1))

    norm = np.sqrt(pkg.norm_sq)
    # gamma vanishes along the inactive directions: pair the active form slots only
    act = grid.active_directions
    a = grid.to_grid_first(pkg.active_gamma - baseline.active_gamma)
    form_ginv = pkg.ginv[..., act, :][..., :, act]
    s_field = pair_endo_forms(form_ginv, pkg.g, pkg.ginv, a, a).real

    record = {
        "t": float(t),
        "hEigMin": float(min(e.min() for e in eigs)),
        "hEigMax": float(max(e.max() for e in eigs)),
        "tauMax": float(np.sqrt(max(tau_sq.max(), 0.0))),
        "normMax": float(norm.max()),
        "normMin": float(norm.min()),
        "sMax": float(s_field.max()),
        "trhMin": float(trh.min()),
        "trhMax": float(trh.max()),
        "detHMin": float(det_h.min()),
        "balancedDefect": float(conformally_balanced_defect(grid, pkg.g, norm)),
        "torsionSqMax": float(pkg.t_norm_sq.max()),
    }
    if test_function is not None:
        eps, a = test_function
        blended = (
            np.log(np.maximum(s_field, _LOG_FLOOR))
            + eps * trh
            - a * np.log(norm)
        )
        record["testFunctionMax"] = float(blended.max())
    return record
