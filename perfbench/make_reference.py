"""Regenerate ``perfbench/reference.json`` from the current sources.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py

Runs every workload once per reference key (benchmark length and the
tests' short length; every input seed of the seeded workloads) through
the same child process the benchmark uses, and stores what the output
check compares against.  Refuses to store a run that did not complete
cleanly.  Only regenerate at a commit whose numerics are trusted: the
benchmark then holds every later commit to these values.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run

TOLERANCE = {"rtol": 1e-7, "atol": 1e-9}


def _entry(name: str, out_dir: str, child: dict) -> dict:
    if child.get("exit") != 0:
        raise SystemExit(f"{name}: CLI exit code {child.get('exit')}")
    if run.WORKLOADS[name][3] == "verify":
        with open(os.path.join(out_dir, "reports.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["allPass"] is not True:
            raise SystemExit(f"{name}: reports do not all pass")
        return {"reports": [r["identityName"] for r in doc["reports"]]}
    with open(os.path.join(out_dir, "diagnostics.jsonl"), encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    status = lines[-1]
    if status["status"] != "completed":
        raise SystemExit(f"{name}: status {status}")
    records = [r for r in lines if r["kind"] == "diagnostics"]
    entry = {
        "stepsTaken": status["stepsTaken"],
        "records": len(records),
        "snapshots": sum(1 for f in os.listdir(out_dir) if f.endswith(".snap")),
        "final": {k: v for k, v in records[-1].items() if k not in ("kind", "step")},
    }
    if run.WORKLOADS[name][1] == "anchor":
        entry["balancedGate"] = True
    return entry


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    work = os.path.join(run.WORK, f"reference-{os.getpid()}")
    entries = {}
    try:
        for name, (_, _, family, _, steps) in run.WORKLOADS.items():
            seeds = range(run.SEED_CYCLE) if family == "random" else [None]
            lengths = [steps] if steps is None else [steps, run.TEST_STEPS]
            for length in lengths:
                os.makedirs(work, exist_ok=True)
                config_path = os.path.join(work, "config.json")
                with open(config_path, "w", encoding="utf-8") as fh:
                    json.dump(run.workload_config(name, length), fh)
                for seed in seeds:
                    if length == run.TEST_STEPS and seed not in (None, 0):
                        continue
                    out_dir = os.path.join(work, "out")
                    child, error = run.run_child(
                        run.WORKLOADS[name][3], config_path, out_dir, seed
                    )
                    if error:
                        raise SystemExit(f"{name} seed {seed}: {error}")
                    key = run.reference_key(name, length, seed)
                    entries[key] = _entry(name, out_dir, child)
                    shutil.rmtree(out_dir)
                    print(key, "ok", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"tolerance": TOLERANCE, "entries": entries}
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
