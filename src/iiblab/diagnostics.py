"""Per-time scalar diagnostics for flow runs.

Every record compares the current physical metric against the *initial*
physical metric of the same run: the relative endomorphism h, its
eigenvalue range, trace extrema and determinant minimum are all taken
with respect to that fixed baseline.  The connection-magnitude field S
uses the same baseline as reference connection.  Records are plain
floats so a stream of them serializes directly to JSON lines.

The optional blended test function ``log S + epsilon * tr h - a * log
norm`` is only evaluated when requested.  S vanishes identically at the
baseline time, so its logarithm is clamped at a tiny floor to keep the
record finite there; the clamp is far below any value of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chern import ChernPackage, relative_eigenvalues
from .grid import TorusGrid
from .metrics import conformally_balanced_defect, volume_norm

__all__ = ["DiagnosticsRecord", "compute_diagnostics"]

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


def compute_diagnostics(
    grid: TorusGrid,
    g: np.ndarray,
    g_initial: np.ndarray,
    t: float,
    test_function: tuple[float, float] | None = None,
) -> DiagnosticsRecord:
    """Build one record for the physical metric ``g`` at time ``t``.

    ``g_initial`` is the physical metric at t = 0 of the same run and
    fixes both the endomorphism baseline and the reference connection
    for S.  ``test_function`` is an optional ``(epsilon, a)`` pair.
    """
    pkg = ChernPackage(grid, g)
    ref = ChernPackage(grid, np.asarray(g_initial, dtype=complex))

    eigs = relative_eigenvalues(g_initial, g)
    trh = np.einsum("...jk,...kj->...", ref.ginv, pkg.g).real
    det_h = (np.linalg.det(pkg.g) / np.linalg.det(ref.g)).real

    tau = pkg.tau
    tau_sq = np.einsum("...jk,...j,...k->...", pkg.ginv, tau, np.conj(tau)).real

    norm = volume_norm(pkg.g)
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
        balanced_defect=float(conformally_balanced_defect(grid, pkg.g)),
        torsion_sq_max=float(pkg.t_norm_sq.max()),
        test_function_max=tf_max,
    )
