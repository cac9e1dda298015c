"""One round of one workload, in a fresh Python process.

    python3 perfbench/round.py --workload NAME --seed N --size full|tiny \
        --trace 0|1 --t0 T

`run.py` starts this script once per round, so every round starts with
empty memo tables, as a `coidealbasis` CLI call does.  `--t0` is the
parent's `time.monotonic()` just before the process was started; set-up time
runs from there until the package and all its modules are imported.  The
last line of standard output is one JSON object with the round's figures.
A traced round writes its spans to `perfbench/out/spans-<workload>.jsonl.gz`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    import coidealbasis.cli  # imports every package module

    setup_s = time.monotonic() - args.t0
    here = os.path.dirname(os.path.realpath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if os.path.dirname(os.path.dirname(os.path.realpath(coidealbasis.cli.__file__))) != src:
        sys.exit(f"coidealbasis was imported from {coidealbasis.cli.__file__}, not from {src}")

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ops = workload.operations(args.size)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    failed = 0
    wall_s = 0.0
    for label, thunk in ops:
        start = time.perf_counter()
        try:
            out = thunk()
        except Exception:  # the round goes on; the operation counts as failed
            traceback.print_exc()
            failed += 1
            out = None
        wall_s += time.perf_counter() - start
        results.append((label, out))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = {}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        tracer.write(os.path.join(here, "out", f"spans-{args.workload}.jsonl.gz"))

    errors = workload.check(workload.collect(results, args.size, args.seed), args.size)
    for e in errors:
        print(f"{args.workload}: check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "correct": not errors,
        "traced": bool(args.trace),
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
