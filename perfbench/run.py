"""Run one benchmark workload and print its metrics as the last stdout line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rg_stream --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
same workload with the benchmark's spans around each call, prints the
per-layer metrics and writes the spans to ``perfbench/out/``.  The last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).
"""

from __future__ import annotations

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rg_stream", "rg_spill", "serve_mix")


def hash_seed(seed: int, trace: int) -> str:
    """The string-hash seed of a run.

    The hash layout moves the points where the cyclic garbage collector
    runs, and on R_G the collector takes about half the time, so the
    layout alone spreads run times by about 7%.  An untraced run takes its
    layout from ``--seed``: a set of runs then samples that spread instead
    of fixing one layout's bias per commit, and a rerun of one seed stays
    comparable.  A traced run always uses seed 0, because the spill path
    partitions by string hash: its counters then repeat exactly from run
    to run.
    """
    return "0" if trace else str(seed % 4294967296)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    scratch = os.path.join(HERE, "out", "tmp")
    seed_env = hash_seed(args.seed, args.trace)
    if os.environ.get("PYTHONHASHSEED") != seed_env or os.environ.get("TMPDIR") != scratch:
        # Re-exec in place (same pid) so this process, and the server it
        # may spawn, hash strings as the seed says and spill into the
        # checkout rather than the system's temporary directory.
        os.makedirs(scratch, exist_ok=True)
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=seed_env, TMPDIR=scratch))

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload == "serve_mix":
        import serve

        result = serve.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    else:
        sys.path.insert(0, src)
        import repro  # noqa: F401  (the in-process program's import is part of set-up)

        import_s = perf_counter() - _PROCESS_START
        import rg

        result = rg.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)

    for problem in result["wrong"][:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    for problem in result["errors"][:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["per_layer"]
        # Layers a workload does not reach read 0 (see the README's map).
        metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            m["name"]: {"value": result["end_to_end"][m["name"]][0], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(
        json.dumps(
            {
                "correct": not result["wrong"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
