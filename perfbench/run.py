"""End-to-end benchmark of the ``iiblab`` command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload weighted-r64 --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: a fresh child process
(``child.py``) sets up and makes one ``iiblab.cli.main`` call, its outputs
are checked, and the next child starts only when the previous one has
ended.  The loop runs for ``--seconds`` (at least ``MIN_RUNS`` children).
Children run the package from ``src/`` of the checkout with BLAS and
OpenMP pinned to one thread.

With ``--trace 0`` the last stdout line reports the medians of the
end-to-end metrics over the children whose outputs passed the check.
With ``--trace 1`` traced and untraced children alternate; the last line
reports the per-layer metrics (medians over traced children) and
``trace.overhead_frac``.  Rationale and the layer-to-metric map are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

import spans  # beside this file

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120

N = 3
DT = 1e-5
README_TERMS = [[1, 1, 0.0, -0.15], [1, -1, 0.0, -0.15]]
# Seeded workloads use random-family seed ``--seed % SEED_CYCLE``; every one
# of these inputs has a stored reference and passes at the reference commit.
SEED_CYCLE = 32
# the seven identities that pass on non-balanced data; spans.py reports each
VERIFY_SUITE = spans.VERIFY_KEYS

# resolution, formulation, family, verb, accepted steps per CLI call
WORKLOADS = {
    "weighted-r64": (64, "weighted", "balanced-family", "run", 5),
    "anchor-r32": (32, "anchor", "balanced-family", "run", 20),
    "monitor-r32": (32, "weighted", "random", "run", 12),
    "verify-r32": (32, "weighted", "random", "verify", None),
}
# Run length of the benchmark's own tests; reference.json covers it too.
TEST_STEPS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_or_reports_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def workload_config(name: str, steps: int | None) -> dict:
    """The JSON run config of one workload at the given run length."""
    resolution, formulation, family, verb, _ = WORKLOADS[name]
    if family == "random":
        metric = {"family": "random", "seed": 0}
    else:
        metric = {"family": family, "fourierTerms": README_TERMS}
    cfg = {
        "geometry": {"n": N, "activeAxes": [0, 1], "resolution": resolution},
        "initialMetric": metric,
        "formulation": formulation,
        "source": {"kind": "none"},
    }
    if verb == "verify":
        cfg["control"] = {"tEnd": 4 * DT, "dt": DT}
        cfg["verifySuite"] = [{"identity": i} for i in VERIFY_SUITE]
    elif name == "monitor-r32":
        cfg["control"] = {"tEnd": steps * DT, "dt": DT,
                          "diagnosticsEvery": 1, "snapshotEvery": 1}
        cfg["testFunction"] = {"epsilon": 0.02, "a": 1.0}
    else:
        cfg["control"] = {"tEnd": steps * DT, "dt": DT, "diagnosticsEvery": steps}
    return cfg


def input_seed(name: str, seed: int) -> int | None:
    return seed % SEED_CYCLE if WORKLOADS[name][2] == "random" else None


def reference_key(name: str, steps: int | None, seed: int | None) -> str:
    return f"{name}/steps={steps}/seed={seed}"


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- output check ----------------------------------------------------------------


def _finite_numbers(record: dict) -> bool:
    return all(
        isinstance(v, (int, float)) and math.isfinite(v)
        for k, v in record.items() if k != "kind"
    )


def check_outputs(out_dir: str, child: dict, expected: dict | None, tol: dict) -> list[str]:
    """Problems found in one child's outputs; empty when the run is correct.

    ``expected`` is the workload's reference entry, or None when there is
    none (a problem in itself).
    """
    if child.get("exit") != 0:
        return [f"CLI exit code {child.get('exit')}"]
    if expected is None:
        return ["no reference values for this workload, length and seed"]
    if "reports" in expected:
        return _check_reports(out_dir, expected)
    return _check_run(out_dir, child, expected, tol)


def _check_reports(out_dir: str, expected: dict) -> list[str]:
    with open(os.path.join(out_dir, "reports.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    if doc.get("allPass") is not True:
        problems.append("reports.json allPass is not true")
    names = [r.get("identityName") for r in doc.get("reports", [])]
    if names != expected["reports"]:
        problems.append(f"report names {names} differ from the reference")
    for r in doc.get("reports", []):
        if r.get("pass") is not True or not _finite_numbers(
            {"max": r.get("maxResidual"), "mean": r.get("meanResidual")}
        ):
            problems.append(f"report {r.get('identityName')} failed or is not finite")
    return problems


def _check_run(out_dir: str, child: dict, expected: dict, tol: dict) -> list[str]:
    with open(os.path.join(out_dir, "diagnostics.jsonl"), encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    problems = []
    status = lines[-1] if lines else {}
    if status.get("kind") != "status" or status.get("status") != "completed":
        problems.append(f"status record {status}")
    if status.get("stepsTaken") != expected["stepsTaken"]:
        problems.append(
            f"stepsTaken {status.get('stepsTaken')}, expected {expected['stepsTaken']}"
        )
    records = [r for r in lines if r.get("kind") == "diagnostics"]
    if len(records) != expected["records"]:
        problems.append(f"{len(records)} diagnostics records, expected {expected['records']}")
    last_t = -math.inf
    for r in records:
        if not _finite_numbers(r):
            problems.append(f"non-finite diagnostics record at step {r.get('step')}")
        if not r.get("t", -math.inf) > last_t:
            problems.append(f"time not strictly increasing at step {r.get('step')}")
        last_t = r.get("t", last_t)
        gate = expected.get("balancedGate") and child.get("balanced_gate")
        if gate and not r.get("balancedDefect", math.inf) <= gate:
            problems.append(
                f"balancedDefect {r.get('balancedDefect')} above {gate} at step {r.get('step')}"
            )
    snaps = sum(1 for f in os.listdir(out_dir) if f.endswith(".snap"))
    if snaps != expected["snapshots"]:
        problems.append(f"{snaps} snapshot files, expected {expected['snapshots']}")
    if records:
        final = records[-1]
        for key, want in expected["final"].items():
            got = final.get(key)
            if not isinstance(got, (int, float)) or not math.isclose(
                got, want, rel_tol=tol["rtol"], abs_tol=tol["atol"]
            ):
                problems.append(f"final {key} = {got}, reference {want}")
    return problems


# -- one child -------------------------------------------------------------------


def run_child(verb: str, config_path: str, out_dir: str, seed: int | None,
              spans_path: str | None = None) -> tuple[dict, str]:
    """Start one child, wait for it, and return (its result, error text)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
           "--verb", verb, "--config", config_path, "--out", out_dir]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if spans_path:
        cmd += ["--spans", spans_path]
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": SRC}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {}, f"child timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        return {}, f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return result, ""


def run_iteration(verb: str, seed: int | None, work: str, index: int,
                  expected: dict | None, tol: dict, spans_path: str | None) -> dict:
    """One closed-loop iteration: child, output check, clean-up."""
    out_dir = os.path.join(work, f"out-{index}")
    child, error = run_child(verb, os.path.join(work, "config.json"), out_dir, seed,
                             spans_path)
    if error:
        problems = [error]
    else:
        try:
            problems = check_outputs(out_dir, child, expected, tol)
        except (OSError, ValueError, KeyError) as err:
            problems = [f"unreadable output: {err!r}"]
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"child": child, "problems": problems}


# -- environment -----------------------------------------------------------------


def _cache_sizes() -> list[str]:
    try:
        proc = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return []
    return [" ".join(line.split()) for line in proc.stdout.splitlines()
            if "cache" in line.lower()]


def environment(name: str) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    resolution = WORKLOADS[name][0]
    nodes = resolution ** 2
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "jsonschema": importlib.metadata.version("jsonschema"),
        "child_thread_env": THREAD_ENV,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "calibration_nominal_s": CAL_NOMINAL_S,
        "caches_lscpu": _cache_sizes(),
        "working_set_bytes_computed": {
            "metric_field": nodes * N ** 2 * 16,
            "curvature_or_anchor_system": nodes * N ** 4 * 16,
        },
    }


# -- the loop --------------------------------------------------------------------

# The speed of the machine that defined the benchmark drifts by tens of percent
# over tens of seconds (other tenants).  A fixed numpy kernel that does not use
# iiblab is timed in this process right before and right after every child,
# and every time is scaled by CAL_NOMINAL_S / (mean of the two), i.e. reported
# at the speed at which the kernel takes CAL_NOMINAL_S.  Raw medians are
# printed beside the scaled ones.
CAL_NOMINAL_S = 0.25
CAL_REPS = 10


def make_calibration():
    """A warmed-up function returning the seconds the fixed kernel takes."""
    import numpy as np

    rng = np.random.default_rng(0)
    # FFTs of a curvature-sized field (64x64x81, 5.3 MB), batched 3x3
    # contractions, batched 9x9 solves and an interpreter loop
    big = rng.standard_normal((64, 64, 81)) + 1j * rng.standard_normal((64, 64, 81))
    mats = rng.standard_normal((4096, 3, 3)) + 1j * rng.standard_normal((4096, 3, 3))
    system = rng.standard_normal((1024, 9, 9)) + 9.0 * np.eye(9)
    rhs = rng.standard_normal((1024, 9, 1))

    def kernel() -> float:
        start = perf_counter()
        for _ in range(CAL_REPS):
            np.fft.ifft(np.fft.fft(big, axis=0) * 2.0, axis=1)
            np.einsum("...pa,...ab,...qb->...pq", mats, mats, np.conj(mats))
            np.linalg.solve(system, rhs)
            sum(i * i for i in range(20000))
        return perf_counter() - start

    kernel()
    return kernel


def _scaled_layers(layers: dict, speed: float) -> dict:
    return {k: v * speed if per_layer_units(k) in ("s", "ms") else v
            for k, v in layers.items()}


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              steps: int | None = None) -> dict:
    """Run one workload for ``seconds``; returns the result record.

    ``steps`` overrides the workload's run length (the tests use it).
    """
    if steps is None:
        steps = WORKLOADS[name][4]
    reference = load_reference()
    seed_in = input_seed(name, seed)
    entry = reference["entries"].get(reference_key(name, steps, seed_in))
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(workload_config(name, steps), fh)
    spans_path = os.path.join(OUT, f"spans-{name}.json")
    calibrate = make_calibration()

    plain, traced, problems = [], [], []
    attempted = 0
    cal_before = calibrate()
    start = perf_counter()
    try:
        while attempted < (2 * MIN_RUNS if trace else MIN_RUNS) or (
            perf_counter() - start < seconds
        ):
            with_spans = trace and attempted % 2 == 1
            it = run_iteration(WORKLOADS[name][3], seed_in, work, attempted, entry,
                               reference["tolerance"], spans_path if with_spans else None)
            cal_after = calibrate()
            it["speed"] = 2.0 * CAL_NOMINAL_S / (cal_before + cal_after)
            cal_before = cal_after
            attempted += 1
            if it["problems"]:
                problems.append(it["problems"])
                continue
            if with_spans:
                with open(spans_path, encoding="utf-8") as fh:
                    layers = spans.layer_metrics(json.load(fh)["spans"])
                it["layers"] = _scaled_layers(layers, it["speed"])
            (traced if with_spans else plain).append(it)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def median(values):
        return statistics.median(list(values))

    metrics, raw, layers = {}, {}, {}
    if plain:
        # accepted steps of a flow workload, identity reports of verify-r32
        items = steps if steps is not None else len(entry["reports"])
        metrics = {
            "setup_s": median(it["child"]["setup_s"] * it["speed"] for it in plain),
            "wall_s": median(it["child"]["wall_s"] * it["speed"] for it in plain),
            "steps_or_reports_per_s": median(
                items / (it["child"]["wall_s"] * it["speed"]) for it in plain
            ),
            "peak_rss_mb": median(it["child"]["maxrss_kb"] / 1024 for it in plain),
        }
        raw = {
            "setup_s": median(it["child"]["setup_s"] for it in plain),
            "wall_s": median(it["child"]["wall_s"] for it in plain),
            "speed": median(it["speed"] for it in plain),
        }
    if trace and traced and plain:
        for key in traced[0]["layers"]:
            layers[key] = median(it["layers"][key] for it in traced)
        traced_wall = median(it["child"]["wall_s"] * it["speed"] for it in traced)
        layers["trace.overhead_frac"] = traced_wall / metrics["wall_s"] - 1.0
    return {
        "workload": name,
        "seed": seed,
        "input_seed": seed_in,
        "steps": steps,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "runs": len(plain),
        "traced_runs": len(traced),
        "wall_s_samples": [it["child"]["wall_s"] for it in plain],
        "raw": raw,
        "end_to_end": metrics,
        "per_layer": layers,
    }


def per_layer_units(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".builds"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes_held") or name.endswith("bytes_written"):
        return "B"
    if name.endswith("per_record"):
        return "builds/record"
    return "1"


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    name = result["workload"]
    rate_name = "reports_per_s" if WORKLOADS[name][3] == "verify" else "steps_per_s"
    print(f"workload {name}: seed {result['seed']} -> input seed {result['input_seed']},"
          f" length {result['steps']}, {result['runs']} untraced and"
          f" {result['traced_runs']} traced children")
    for problem in result["problems"]:
        print(f"FAILED child: {'; '.join(problem)}")
    print("raw wall_s of the untraced children: "
          + " ".join(f"{w:.4f}" for w in result["wall_s_samples"]))
    if result["raw"]:
        raw = result["raw"]
        print(f"raw medians: setup_s {raw['setup_s']:.6g} s, wall_s {raw['wall_s']:.6g} s;"
              f" median speed factor {raw['speed']:.4g} (times below are scaled by it)")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} 1")
    metrics = {}
    if trace:
        for key, value in result["per_layer"].items():
            metrics[key] = {"value": value, "unit": per_layer_units(key)}
    else:
        for key, value in result["end_to_end"].items():
            metrics[key] = {"value": value, "unit": END_TO_END_UNITS[key]}
            alias = f" ({rate_name})" if key == "steps_or_reports_per_s" else ""
            print(f"{key}{alias} = {value:.6g} {END_TO_END_UNITS[key]}")
    return {
        "correct": result["failed"] == 0 and bool(metrics),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="iiblab CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "iiblab", "cli.py")):
        print(f"no iiblab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    # One CPU for this process and its children, so the calibration kernel
    # and the child run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("environment " + json.dumps(environment(args.workload), sort_keys=True))
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    final = report(result, bool(args.trace))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
