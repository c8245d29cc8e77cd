"""Command line driver: run flows, verify identities, inspect snapshots.

Exit codes:

* 0  clean completion (and, for ``verify``, every report passed)
* 1  configuration or input error
* 2  the flow stopped itself: a step would leave the state below the
     positivity floor, a stage's metric is not positive definite, or the
     anchor velocity solve failed or lost accuracy
* 3  the flow blew up (non-finite state or step budget exhausted)
* 4  at least one verification report failed

Errors are emitted as one JSON object on stderr so scripted callers
never have to parse prose.  The diagnostics stream is JSON lines: a
header record embedding the fully resolved configuration, then one
record per cadence tick with strictly increasing time, then a status
record.  Snapshot files use the binary container from
``iiblab.snapshot`` and always include the final state, which on a
singularity stop is the last positive-definite one.

Allocator policy: a right-hand side frees and allocates the same 0.1-5 MB
temporaries at every stage.  With glibc's defaults, blocks that large are
mmapped and given back to the kernel when freed, so each stage faults its
memory in and zero-fills it again; at R = 64 that was about 40 % of the
weighted right-hand side.  :func:`main` therefore first raises glibc's
mmap threshold to 32 MiB (the highest value glibc's own dynamic threshold
reaches on 64-bit) and its trim threshold to 64 MiB (twice that, as the
dynamic rule sets it), so freed blocks stay in the process for the next
stage.  This applies to glibc only: where the C library has no
``mallopt`` the call is skipped.  Nothing is set at import, so library
callers keep the allocator's defaults.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys

from . import __version__
from .chern import ChernPackage
from .errors import ConfigError, IIBLabError
from .flow import (
    FORM_WEIGHTED,
    STATUS_BLOWUP,
    STATUS_COMPLETED,
    STATUS_SINGULARITY,
    StepControl,
    induced_weighted_source,
    run_flow,
    weighted_from_metric,
)
from .diagnostics import compute_diagnostics
from .runconfig import ResolvedConfig, load_config_file, resolve_config
from .snapshot import save_snapshot, snapshot_info
from .verify import EVOLUTION_REGISTRY, SPATIAL_REGISTRY

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SINGULARITY = 2
EXIT_BLOWUP = 3
EXIT_VERIFY = 4

# glibc mallopt parameters and the values main sets (module docstring)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

EVOLUTION_WINDOW = 5  # snapshots in the short trajectory behind evolution checks

_STATUS_EXIT = {
    STATUS_COMPLETED: EXIT_OK,
    STATUS_SINGULARITY: EXIT_SINGULARITY,
    STATUS_BLOWUP: EXIT_BLOWUP,
}


def _emit_error(code: int, err: Exception) -> int:
    payload = {
        "error": {
            "code": code,
            "type": type(err).__name__,
            "message": str(err),
        }
    }
    offset = getattr(err, "offset", None)
    if offset is not None:
        payload["error"]["offset"] = offset
    print(json.dumps(payload), file=sys.stderr)
    return code


def _out_dir(args, rc: ResolvedConfig) -> str:
    out = args.out if args.out else rc.output["directory"]
    os.makedirs(out, exist_ok=True)
    return out


def _execute_suite(rc: ResolvedConfig) -> list:
    """Run the configured identity suite on the configured initial data.

    Spatial identities share one spectral package of the initial metric,
    built when the first of them runs; the stationarity check also
    receives the run's anchor source.  Evolution identities share one
    short fixed-step trajectory of the weighted formulation, five
    snapshots wide, and the packages of its states that the trajectory
    keeps.  A sigma-basis source psi is frozen to its induced matrix field
    ``-w0 psi w0 / (n-2)!`` at t = 0, so the window is an exact solution
    of the equation the identities describe.
    """
    grid, g0 = rc.grid, rc.initial_metric
    reports = []
    pkg0 = window = window_phi = None
    for name, tol in rc.verify_suite:
        kw = {} if tol is None else {"tolerance": tol}
        if name in SPATIAL_REGISTRY:
            if name == "stationarity":
                kw["source_matrix"] = rc.anchor_source
            if pkg0 is None:
                pkg0 = ChernPackage(grid, g0)
            reports += SPATIAL_REGISTRY[name](pkg0, **kw)
            continue
        if window is None:
            window_phi = rc.weighted_source
            if rc.anchor_source is not None:
                window_phi = induced_weighted_source(weighted_from_metric(g0), rc.anchor_source)
            dt = rc.control.dt
            window = run_flow(
                grid,
                g0,
                FORM_WEIGHTED,
                t_final=(EVOLUTION_WINDOW - 1) * dt,
                control=StepControl(dt=dt),
                weighted_source=window_phi,
                snapshot_every=1,
            )
            if len(window.snapshots) < EVOLUTION_WINDOW:
                raise ConfigError(
                    f"verification trajectory stopped early"
                    f" ({window.status}: {window.stop_detail}); evolution"
                    " identities need five healthy snapshots"
                )
        reports += EVOLUTION_REGISTRY[name](window, phi=window_phi, **kw)
    return reports


def _write_reports(path: str, rc: ResolvedConfig, reports: list) -> bool:
    all_pass = all(r["pass"] for r in reports)
    doc = {
        "kind": "verification",
        "package": __version__,
        "config": rc.resolved,
        "allPass": all_pass,
        "reports": reports,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return all_pass


def _resolve(args) -> ResolvedConfig:
    return resolve_config(
        load_config_file(args.config),
        seed=args.seed,
        resolution=args.resolution,
        base_dir=os.path.dirname(os.path.abspath(args.config)),
    )


def _cmd_run(args) -> int:
    rc = _resolve(args)
    out = _out_dir(args, rc)

    diag_every = rc.diagnostics_every
    stride = diag_every
    if rc.snapshot_every is not None:
        stride = math.gcd(diag_every, rc.snapshot_every)

    trajectory = run_flow(
        rc.grid,
        rc.initial_metric,
        rc.formulation,
        rc.t_end,
        control=rc.control,
        anchor_source=rc.anchor_source,
        weighted_source=rc.weighted_source,
        snapshot_every=stride,
    )

    last = len(trajectory.steps) - 1
    diag_path = os.path.join(out, rc.output["diagnostics"])
    with open(diag_path, "w", encoding="utf-8") as fh:
        header = {
            "kind": "header",
            "package": __version__,
            "config": rc.resolved,
        }
        fh.write(json.dumps(header) + "\n")
        for j, step in enumerate(trajectory.steps):
            record = j == last or step % diag_every == 0
            snap = j == last or (
                rc.snapshot_every is not None and step % rc.snapshot_every == 0
            )
            if not (record or snap):
                continue
            g = trajectory.metric_at(j)
            if j == 0:
                # Baseline for the relative-endomorphism diagnostics, built once
                # per run from the run's own initial physical metric as the
                # snapshot chain preserves it, so a recompute from saved files
                # reproduces every record bit for bit.  Its metric array is g
                # (complex already), so the step-0 record reuses it.
                baseline = ChernPackage(rc.grid, g)
            if record:
                line = {"kind": "diagnostics", "step": step}
                line.update(compute_diagnostics(
                    g, baseline, trajectory.times[j], test_function=rc.test_function,
                ))
                fh.write(json.dumps(line) + "\n")
            if snap:
                name = f"{rc.output['snapshotPrefix']}-{step:08d}.snap"
                save_snapshot(
                    os.path.join(out, name),
                    rc.grid,
                    trajectory.times[j],
                    {"metric": g},
                    meta={
                        "formulation": rc.formulation,
                        "step": step,
                        "status": trajectory.status if j == last else "running",
                    },
                )
        status = {
            "kind": "status",
            "status": trajectory.status,
            "stepsTaken": trajectory.steps_taken,
            "tFinal": trajectory.times[-1],
        }
        if trajectory.stop_detail:
            status["detail"] = trajectory.stop_detail
        fh.write(json.dumps(status) + "\n")

    suite_pass = True
    if rc.verify_suite:
        reports = _execute_suite(rc)
        suite_pass = _write_reports(
            os.path.join(out, rc.output["reports"]), rc, reports
        )

    code = _STATUS_EXIT[trajectory.status]
    if code == EXIT_OK and not suite_pass:
        code = EXIT_VERIFY
    print(
        f"status={trajectory.status} steps={trajectory.steps_taken}"
        f" t={trajectory.times[-1]:.8g} diagnostics={diag_path}"
    )
    return code


def _cmd_verify(args) -> int:
    rc = _resolve(args)
    if not rc.verify_suite:
        raise ConfigError("verify needs a non-empty verifySuite block")
    out = _out_dir(args, rc)
    reports = _execute_suite(rc)
    all_pass = _write_reports(os.path.join(out, rc.output["reports"]), rc, reports)
    for r in reports:
        flag = "pass" if r["pass"] else "FAIL"
        result = r["status"] if r["maxResidual"] is None else f"max={r['maxResidual']:.3e}"
        print(f"{flag} {r['identityName']}: {result} tol={r['tolerance']:.3e}")
    return EXIT_OK if all_pass else EXIT_VERIFY


def _cmd_snapshot_info(args) -> int:
    info = snapshot_info(args.path)
    print(json.dumps(info, indent=2, sort_keys=True))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iiblab",
        description="Geometric flow laboratory on flat complex tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="random-family seed override")
        p.add_argument(
            "--resolution", type=int, help="grid resolution override (power of two)"
        )

    p_run = sub.add_parser("run", help="integrate the configured flow")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the configured identity suite")
    add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_info = sub.add_parser("snapshot-info", help="print a snapshot header")
    p_info.add_argument("path", help="snapshot file")
    p_info.set_defaults(func=_cmd_snapshot_info)
    return parser


def _keep_freed_memory() -> None:
    """Raise glibc's mmap and trim thresholds (module docstring); a no-op
    where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IIBLabError, OSError) as err:
        return _emit_error(EXIT_CONFIG, err)


if __name__ == "__main__":
    sys.exit(main())
