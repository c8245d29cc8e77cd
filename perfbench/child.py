"""One benchmark iteration in a fresh process: set up, then one CLI verb call.

Usage (``run.py`` starts it; the package is found through PYTHONPATH):

    python3 perfbench/child.py --src SRC --verb run --config CFG --out DIR
        [--seed N] [--spans FILE]

Set-up time covers ``import iiblab`` plus ``load_config_file`` and
``resolve_config`` (which builds the initial metric).  Wall time covers
``iiblab.cli.main`` with the same arguments a user would type.  With
``--spans`` the package is traced and the spans are written to FILE at
exit.  The last stdout line is a JSON object with the results.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--verb", required=True, choices=["run", "verify"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--spans")
    args = parser.parse_args()

    import iiblab
    from iiblab import cli, flow, runconfig

    here = os.path.realpath(os.path.dirname(iiblab.__file__))
    if os.path.dirname(here) != os.path.realpath(args.src):
        print(f"iiblab imported from {here}, not from {args.src}", file=sys.stderr)
        return 2
    raw = runconfig.load_config_file(args.config)
    runconfig.resolve_config(
        raw, seed=args.seed, base_dir=os.path.dirname(os.path.abspath(args.config))
    )
    setup_s = perf_counter() - T0

    argv = [args.verb, "--config", args.config, "--out", args.out]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    tracer = None
    if args.spans:
        import spans  # beside this script, so first on sys.path

        tracer = spans.Tracer()
        spans.install(tracer)
    start = perf_counter()
    if tracer is None:
        code = cli.main(argv)
    else:
        code = tracer.wrap(cli.main, "cli.main")(argv)
    wall_s = perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(args.spans)

    result = {
        "exit": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "maxrss_kb": maxrss_kb,
        "balanced_gate": getattr(flow, "BALANCED_GATE", None),
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
