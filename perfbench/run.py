"""Benchmark command for coidealbasis.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload for about S seconds, each round in a fresh
Python process (`round.py`), and prints as its last line one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: `setup_s` (the first
round's cold set-up, from process start until the package is imported),
and the medians over rounds of `wall_s` (the workload's calls, timed from
outside) and `peak_rss_mb`.  With `--trace 1` untraced and traced rounds
alternate and the metrics are the per-layer ones: counts of one traced
round, median self times of the traced rounds, and the tracing overhead.
Per-round figures go to `perfbench/out/result-<workload>-trace<0|1>.json`,
the spans of the last traced round to `perfbench/out/spans-<workload>.jsonl.gz`.
See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("psi-routes", "strip-inversion", "rmatrix-routes", "scalar-identities")
# a run, set-up included, must end within this many seconds
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
COUNTS = (
    "laurent.gcd_calls", "laurent.mul_calls", "laurent.add_calls",
    "laurent.exact_div_calls", "hecke.kl_columns", "ballot.configs",
    "ballot.q_polynomial_calls", "quantum.vector_add_calls",
)
SELF_TIMES = (
    "laurent.gcd_s", "laurent.telescoping_s", "hecke.kl_basis_s",
    "ballot.verify_inversion_s", "quantum.psi_iota_s", "quantum.project_s",
    "basis.solve_fixed_basis_s", "coideal.elimination_s", "coideal.graph_s",
    "coideal.transition_s", "coideal.closed_s", "coideal.y_matrix_s",
    "coideal.closed_form_s",
)
PER_LAYER = (
    {name: "count" for name in COUNTS}
    | {"ballot.q_polynomial_hit_ratio": "ratio"}
    | {name: "s" for name in SELF_TIMES}
    | {"trace.overhead_s": "s"}
)


def run_round(args, traced, deadline):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    env.pop("COIDEALBASIS_THREADS", None)
    # set-up loads the cached bytecode, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [
        sys.executable, os.path.join(HERE, "round.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--trace", str(int(traced)),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - t0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"round of {args.workload} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def summarise(rounds, trace):
    plain = [r for r in rounds if not r["traced"]]
    if not trace:
        values = {
            "setup_s": rounds[0]["setup_s"],
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    traced = [r["layers"] for r in rounds if r["traced"]]
    for layers in traced[1:]:
        for name in COUNTS:
            if layers[name] != traced[0][name]:
                print(f"warning: {name} differs between traced rounds", file=sys.stderr)
    values = {name: traced[0][name] for name in COUNTS}
    values["ballot.q_polynomial_hit_ratio"] = traced[0]["ballot.q_polynomial_hit_ratio"]
    values.update({name: statistics.median(t[name] for t in traced) for name in SELF_TIMES})
    values["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in rounds if r["traced"])
        - statistics.median(r["wall_s"] for r in plain)
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at a test size")
    args = parser.parse_args(argv)

    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "coidealbasis", "__init__.py")):
        sys.exit(f"no coidealbasis sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)

    # Whole rounds until the next one would overrun --seconds; with tracing,
    # whole (untraced, traced) pairs.
    step = 2 if args.trace else 1
    rounds = []
    while True:
        rounds.append(run_round(args, args.trace and len(rounds) % 2 == 1, start + DEADLINE_S))
        elapsed = time.monotonic() - start
        if len(rounds) % step == 0 and elapsed * (len(rounds) + step) / len(rounds) > args.seconds:
            break

    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": summarise(rounds, args.trace),
    }
    with open(os.path.join(HERE, "out", f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({"args": vars(args), "rounds": rounds, "result": result}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
