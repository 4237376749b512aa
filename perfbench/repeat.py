"""Run one workload N times on this checkout and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/repeat.py --workload serve_mix --runs 10 --first-seed 1

Each run is a fresh ``perfbench/run.py`` process with its own seed
(``first-seed``, ``first-seed + 1``, ...) and ``run_seconds`` from
``BENCHMARK.json``.  For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and, for end-to-end metrics, the bound from
``BENCHMARK.json``: a spread at or above the bound marks the metric
``WIDE``, one above a third of it ``loose``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"seed {seed}: exit {completed.returncode}\n{completed.stderr[-2000:]}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if result["failed"] or not result["correct"]:
        print(f"seed {seed}: failed {result['failed']} of {result['attempted']}, "
              f"correct {result['correct']}\n{completed.stderr[-2000:]}", flush=True)
    return result


def summarize(runs, spec, trace: int) -> str:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = list(runs[0]["metrics"])
    lines = [f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"]
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds.get(name) if not trace else None
        flag = ""
        if bound is not None:
            flag = "WIDE" if spread >= bound else ("loose" if spread > bound / 3 else "ok")
        lines.append(
            f"{name:28} {mid:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
            f"{'' if bound is None else bound:>6} {flag}"
        )
    shares = {r["failed"] / r["attempted"] for r in runs}
    lines.append(
        f"correct: {all(r['correct'] for r in runs)}   failed/attempted: "
        f"{sorted(shares)}   attempted: {[r['attempted'] for r in runs]}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        runs.append(run_once(args.workload, seed, spec["run_seconds"], args.trace))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    print(f"\n{args.workload}, {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, trace={args.trace}")
    print(summarize(runs, spec, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
