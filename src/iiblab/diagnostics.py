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
metric.

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
from .metrics import conformally_balanced_defect

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
    connection for S.  ``test_function`` is an optional ``(epsilon, a)``
    pair.
    """
    grid = baseline.grid
    pkg = ChernPackage(grid, g)

    # h = L^-1 g L^-H is Hermitian and similar to g0^-1 g (g0 the baseline metric):
    # same eigenvalues and trace
    inv_chol = grid.to_grid_first(baseline.factor.inv_chol)
    half = np.einsum("...ab,...bc->...ac", inv_chol, pkg.g)
    h = np.einsum("...ac,...dc->...ad", half, np.conj(inv_chol))
    eigs = np.linalg.eigvalsh(h)
    trh = np.einsum("...jj->...", h).real
    det_h = baseline.norm_sq / pkg.norm_sq

    tau = pkg.tau
    tau_sq = np.einsum("...jk,...j,...k->...", pkg.ginv, tau, np.conj(tau)).real

    norm = np.sqrt(pkg.norm_sq)
    # gamma vanishes along the inactive directions: pair the active form slots only
    act = grid.active_directions
    a = grid.to_grid_first(pkg.active_gamma - baseline.active_gamma)
    form_ginv = pkg.ginv[..., act, :][..., :, act]
    s_field = pair_endo_forms(form_ginv, pkg.g, pkg.ginv, a, a).real

    record = {
        "t": float(t),
        "hEigMin": float(eigs.min()),
        "hEigMax": float(eigs.max()),
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
