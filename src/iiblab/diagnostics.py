"""Per-time scalar diagnostics for flow runs.

Every record compares the current physical metric against the *initial*
physical metric of the same run: the relative endomorphism h, its
eigenvalue range, trace extrema and determinant minimum are all taken
with respect to that fixed baseline.  The connection-magnitude field S
uses the same baseline as reference connection.  Records are plain
floats so a stream of them serializes directly to JSON lines.

The baseline is built once per run, as a :class:`DiagnosticsBaseline`
(its Chern package, with the inverse metric, the connection and the
volume norm, and the inverse Cholesky factor that whitens each metric
against it), so a record costs one :class:`ChernPackage` of the current
metric.

The optional blended test function ``log S + epsilon * tr h - a * log
norm`` is only evaluated when requested.  S vanishes identically at the
baseline time, so its logarithm is clamped at a tiny floor to keep the
record finite there; the clamp is far below any value of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chern import ChernPackage, inverse_cholesky, whiten
from .grid import TorusGrid
from .metrics import conformally_balanced_defect

__all__ = ["DiagnosticsBaseline", "DiagnosticsRecord", "compute_diagnostics"]

_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    h_eig_min: float
    h_eig_max: float
    tau_max: float
    norm_max: float
    norm_min: float
    s_max: float
    trh_min: float
    trh_max: float
    det_h_min: float
    balanced_defect: float
    torsion_sq_max: float
    test_function_max: float | None = None

    def to_dict(self) -> dict:
        out = {
            "t": self.t,
            "hEigMin": self.h_eig_min,
            "hEigMax": self.h_eig_max,
            "tauMax": self.tau_max,
            "normMax": self.norm_max,
            "normMin": self.norm_min,
            "sMax": self.s_max,
            "trhMin": self.trh_min,
            "trhMax": self.trh_max,
            "detHMin": self.det_h_min,
            "balancedDefect": self.balanced_defect,
            "torsionSqMax": self.torsion_sq_max,
        }
        if self.test_function_max is not None:
            out["testFunctionMax"] = self.test_function_max
        return out

    def is_finite(self) -> bool:
        vals = [v for v in self.to_dict().values()]
        return bool(np.all(np.isfinite(vals)))


class DiagnosticsBaseline:
    """The t = 0 data every record of one run is compared against.

    ``package`` is the :class:`ChernPackage` of the initial physical metric
    (its inverse, connection and volume norm are cached there) and
    ``inv_chol`` the inverse of its Cholesky factor.
    """

    def __init__(self, grid: TorusGrid, g_initial: np.ndarray):
        self.package = ChernPackage(grid, np.asarray(g_initial, dtype=complex))
        self.inv_chol = inverse_cholesky(self.package.g)


def compute_diagnostics(
    grid: TorusGrid,
    g: np.ndarray,
    baseline: DiagnosticsBaseline,
    t: float,
    test_function: tuple[float, float] | None = None,
) -> DiagnosticsRecord:
    """Build one record for the physical metric ``g`` at time ``t``.

    ``baseline`` is the run's :class:`DiagnosticsBaseline`; it fixes both
    the endomorphism baseline and the reference connection for S.
    ``test_function`` is an optional ``(epsilon, a)`` pair.
    """
    ref = baseline.package
    pkg = ChernPackage(grid, g)

    h = whiten(baseline.inv_chol, pkg.g)
    eigs = np.linalg.eigvalsh(h)
    trh = np.einsum("...jj->...", h).real
    det_h = ref.norm_sq / pkg.norm_sq

    tau = pkg.tau
    tau_sq = np.einsum("...jk,...j,...k->...", pkg.ginv, tau, np.conj(tau)).real

    norm = np.sqrt(pkg.norm_sq)
    s_field = pkg.endo_norm_sq(pkg.connection_difference(ref))

    tf_max = None
    if test_function is not None:
        eps, a = test_function
        blended = (
            np.log(np.maximum(s_field, _LOG_FLOOR))
            + eps * trh
            - a * np.log(norm)
        )
        tf_max = float(blended.max())

    return DiagnosticsRecord(
        t=float(t),
        h_eig_min=float(eigs.min()),
        h_eig_max=float(eigs.max()),
        tau_max=float(np.sqrt(max(tau_sq.max(), 0.0))),
        norm_max=float(norm.max()),
        norm_min=float(norm.min()),
        s_max=float(s_field.max()),
        trh_min=float(trh.min()),
        trh_max=float(trh.max()),
        det_h_min=float(det_h.min()),
        balanced_defect=float(conformally_balanced_defect(grid, pkg.g, norm)),
        torsion_sq_max=float(pkg.t_norm_sq.max()),
        test_function_max=tf_max,
    )
