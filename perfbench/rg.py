"""The R_G workloads: ``rg_stream`` (no budget) and ``rg_spill`` (64 rows).

One in-process :class:`repro.Session` over the R_G relations of the
formula bank.  A round runs every operation once, in an order fixed by the
run seed: ``execute`` of φ_G, and ``contains(u_G)`` on π_Y(φ_G).  Each
output is checked against the brute-force oracle right after the call,
outside its timed interval; keeping every result until the window closes
would itself raise the peak RSS that ``peak_rss_mb`` reports.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Dict, List, Optional

from inputs import NUM_VARIABLES, formula_bank, formula_text, rg_round_orders
from measure import OUT_DIR, Tracer, median, own_peak_rss_mb, percentile
from oracles import RGOracle, u_g

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: The latency percentile reported as ``latency_tail_ms``.  Each leaves at
#: least 10 samples beyond it at a 25 s run (about 230 to 300 operations on
#: ``rg_stream``, 70 to 100 on ``rg_spill``) and sits inside a cluster of equally
#: costly operations, so it does not jump between clusters from run to run.
TAIL_PERCENTILE = {"rg_stream": 90, "rg_spill": 80}

BUDGET_ROWS = {"rg_stream": None, "rg_spill": 64}

COUNTERS = ("join_probes", "spill_rows", "spill_partitions", "join_spills")


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float) -> Dict:
    import repro
    from repro.reductions.rg import RGConstruction
    from repro.sat.cnf import CNFFormula

    budget = BUDGET_ROWS[workload]
    bank = formula_bank()
    checks = [RGOracle(clauses, NUM_VARIABLES) for *_, clauses in bank]
    candidates = [u_g(len(clauses)) for *_, clauses in bank]
    ops = [(kind, i) for i in range(len(bank)) for kind in ("execute", "contains")]
    tracer = Tracer(trace)
    wrong: List[str] = []  # outputs the oracle rejects
    errors: List[str] = []  # operations that raised or overflowed
    failed = 0

    def call(prepared: List, kind: str, i: int, parent=None, request=None):
        """Run one operation; a span is kept only when ``request`` names it.

        Returns the output, the call's own time, and its time with the
        span opened and closed, which ``trace.overhead_ratio`` compares.
        """
        outer = perf_counter()
        span = request and tracer.open(
            "engine.execute" if kind == "execute" else "decision.contains", parent, request
        )
        start = perf_counter()
        if kind == "execute":
            out = prepared[i][0].execute()
        else:
            out = prepared[i][1].contains(candidates[i])
        elapsed = perf_counter() - start
        tracer.close(span)
        return out, elapsed, perf_counter() - outer

    def check(kind: str, i: int, out) -> Optional[str]:
        if kind == "execute":
            return checks[i].check_execute(out.relation.scheme.names, out.relation.rows)
        return checks[i].check_contains(out)

    setups = []
    session = prepared = None
    for rep in range(SETUP_REPEATS):
        if session is not None:
            session.close()
        root = tracer.open("setup", request=f"setup{rep}")
        start = perf_counter()
        constructions = []
        for i, (_kind, _m, _seed, clauses) in enumerate(bank):
            span = tracer.open("reductions.construct", root, f"setup{rep}")
            rg = RGConstruction(CNFFormula.parse(formula_text(clauses)), operand_name=f"R{i}")
            texts = (rg.expression.to_text(), rg.pair_projection_expression().to_text())
            tracer.close(span)
            constructions.append((rg, texts))
        span = tracer.open("api.connect", root, f"setup{rep}")
        session = repro.connect(
            {f"R{i}": rg.relation for i, (rg, _) in enumerate(constructions)}, budget=budget
        )
        tracer.close(span)
        prepared = []
        for rg, texts in constructions:
            pair = []
            for text in texts:
                span = tracer.open("api.prepare", root, f"setup{rep}")
                pair.append(session.prepare(text))
                tracer.close(span)
            prepared.append(pair)
        warm = [(kind, i, call(prepared, kind, i, root, f"setup{rep}")[0]) for kind, i in ops]
        setups.append(perf_counter() - start)
        tracer.close(root)
        for kind, i, out in warm:
            problem = check(kind, i, out)
            if problem:
                wrong.append(f"warm {kind} formula {i}: {problem}")
        del warm

    # -- the timed window ------------------------------------------------
    latencies: List[float] = []
    untraced: List[float] = []  # latencies of the operations in untraced rounds
    rounds = 0
    round_busy = {True: [], False: []}  # round times, span work included
    pass_counters: List[Dict[str, int]] = []
    orders = rg_round_orders(seed, ops)
    deadline = perf_counter() + seconds
    while True:
        traced = trace and rounds % 2 == 1
        root = tracer.open("round", request=f"round{rounds}") if traced else None
        totals = dict.fromkeys(COUNTERS + ("intermediate_tuples", "peak_live_rows"), 0)
        this_round = 0.0
        for position, (kind, i) in enumerate(next(orders)):
            try:
                out, elapsed, outer = call(
                    prepared, kind, i, root, f"round{rounds}.{position}" if traced else None
                )
            except Exception as error:  # an operation that raises is a failed one
                failed += 1
                errors.append(f"{kind} formula {i} raised {type(error).__name__}: {error}")
                continue
            latencies.append(elapsed)
            if not traced:
                untraced.append(elapsed)
            this_round += outer
            problem = check(kind, i, out)
            if problem:
                failed += 1
                wrong.append(f"{kind} formula {i}: {problem}")
            elif kind == "execute" and out.trace.counters.get("spill_overflows", 0):
                failed += 1
                errors.append(f"execute formula {i}: spill_overflows > 0")
            if kind == "execute":
                counters = out.trace.counters
                for name in COUNTERS:
                    totals[name] += counters.get(name, 0)
                totals["intermediate_tuples"] += out.trace.total_intermediate_tuples
                totals["peak_live_rows"] = max(totals["peak_live_rows"], out.trace.peak_live_rows)
            del out
        tracer.close(root)
        round_busy[traced].append(this_round)
        pass_counters.append(totals)
        rounds += 1
        if perf_counter() >= deadline and (rounds >= 2 or not trace):
            break
    session.close()

    attempted = rounds * len(ops)
    end_to_end = {
        # Operations completed over the time they took; checks between
        # operations are off the clock.
        "throughput_ops_s": (len(untraced) / sum(untraced), "ops/s"),
        "latency_p50_ms": (median(latencies) * 1000.0, "ms"),
        "latency_tail_ms": (percentile(latencies, TAIL_PERCENTILE[workload]) * 1000.0, "ms"),
        "setup_s": (import_s + median(setups), "s"),
        "peak_rss_mb": (own_peak_rss_mb(), "MiB"),
    }
    per_layer = {}
    if trace:
        repeat_exactly = all(p == pass_counters[0] for p in pass_counters)
        first = pass_counters[0]
        per_layer = {
            "reductions.construct_ms": median(s.ms for s in tracer.by_name("reductions.construct")),
            "api.prepare_ms": median(s.ms for s in tracer.by_name("api.prepare")),
            "engine.execute_ms": median(
                s.ms for s in tracer.by_name("engine.execute") if s.request.startswith("round")
            ),
            "decision.contains_ms": median(
                s.ms for s in tracer.by_name("decision.contains") if s.request.startswith("round")
            ),
            "engine.join_probes": first["join_probes"],
            "engine.intermediate_tuples": first["intermediate_tuples"],
            "engine.peak_live_rows": first["peak_live_rows"],
            "engine.spill_rows": first["spill_rows"],
            "engine.spill_partitions": first["spill_partitions"],
            "engine.join_spills": first["join_spills"],
            "trace.overhead_ratio": median(round_busy[True]) / median(round_busy[False]),
        }
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json"),
            {
                "workload": workload,
                "seed": seed,
                "rounds": rounds,
                "counters_repeat_exactly": repeat_exactly,
                "pass_counters": pass_counters[0],
            },
        )
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "errors": errors,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
