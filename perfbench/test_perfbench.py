"""Tests for the benchmark's own code: inputs, schedules and oracles."""

from __future__ import annotations

import itertools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402

# The paper's worked example: (x1 | x2 | x3) & (~x2 | x3 | ~x4) & (~x3 | ~x4 | ~x5).
PAPER_CLAUSES = [(1, 2, 3), (-2, 3, -4), (-3, -4, -5)]


def test_brute_force_oracle_on_the_paper_example():
    oracle = oracles.RGOracle(PAPER_CLAUSES, 5)
    assert len(oracle.base) == 22
    assert len(oracle.models) == 20
    assert oracle.expected_size() == 42 == 22 + 20
    assert oracle.check_contains(True) is None
    assert oracle.check_contains(False) is not None


def test_oracle_rebuilds_the_printed_relation():
    from repro.workloads.paper_example import PAPER_EXAMPLE_COLUMNS, PAPER_EXAMPLE_ROWS

    oracle = oracles.RGOracle(PAPER_CLAUSES, 5)
    printed = {tuple(zip(PAPER_EXAMPLE_COLUMNS, row)) for row in PAPER_EXAMPLE_ROWS}
    rebuilt = {tuple((a, row[a]) for a in PAPER_EXAMPLE_COLUMNS) for row in oracle.base}
    assert rebuilt == printed


def test_oracle_accepts_the_engine_result_and_rejects_tampering():
    import repro
    from repro.reductions.rg import RGConstruction
    from repro.sat.cnf import CNFFormula

    rg = RGConstruction(CNFFormula.parse(inputs.formula_text(PAPER_CLAUSES)))
    with repro.connect({"R": rg.relation}) as session:
        result = session.prepare(rg.expression.to_text()).execute().relation
        verdict = session.prepare(rg.pair_projection_expression().to_text()).contains(
            oracles.u_g(3)
        )
    oracle = oracles.RGOracle(PAPER_CLAUSES, 5)
    names, rows = result.scheme.names, set(result.rows)
    assert len(rows) == 42
    assert oracle.check_execute(names, rows) is None
    assert oracle.check_contains(verdict) is None

    special = next(r for r in rows if r[names.index("S")] == oracles.EXTRA_TAG)
    assert "missing" in oracle.check_execute(names, rows - {special})
    model = next(
        r for r in rows
        if r[names.index("S")] == oracles.SAT_TAG and r[names.index("X1")] in (0, 1)
        and r[names.index("Y_1_2")] == oracles.MARK and r[names.index("F2")] == 1
    )
    assert "Lemma 1" in oracle.check_execute(names, rows - {model})
    flipped = tuple(
        1 - v if a == "X5" else v for a, v in zip(names, model)
    )
    assert oracle.check_execute(names, (rows - {model}) | {flipped}) is not None


def test_unsatisfiable_formula_has_no_models():
    clauses = inputs.generate_formula("unsat", 12, 3)
    oracle = oracles.RGOracle(clauses, inputs.NUM_VARIABLES)
    assert oracle.models == []
    assert oracle.check_contains(False) is None
    assert oracle.check_contains(True) is not None


def test_formula_bank_is_strict_3cnf_over_nine_variables():
    for kind, m, _seed, clauses in inputs.formula_bank():
        assert len(clauses) == m and 12 <= m <= 14
        assert all(len({abs(lit) for lit in clause}) == 3 for clause in clauses)
        occurring = [abs(lit) for clause in clauses for lit in clause]
        assert set(occurring) == set(range(1, 10))
        # Renumbered by first occurrence: x_i is the i-th variable met.
        assert list(dict.fromkeys(occurring)) == list(range(1, 10))
        count = len(oracles.models(clauses, 9))
        assert (count > 0) if kind == "planted" else True
        assert (count == 0) if kind == "unsat" else True


def test_serving_oracle_on_a_hand_checked_instance():
    schemes = inputs.SERVING_SCHEMES
    relations = {
        "R": [(1, 2), (3, 2), (5, 6)],
        "S": [(2, 7), (6, 8), (9, 9)],
        "T": [(7, 0), (8, 1), (4, 4)],
    }
    # R * S = (1,2,7), (3,2,7), (5,6,8); joined with T: D = 0, 0, 1.
    by_text = {text: (out, terms) for text, out, terms in inputs.SERVING_QUERIES}
    expected = {
        "project[A, D](R * S * T)": {(1, 0), (3, 0), (5, 1)},
        "project[D](R * S * T)": {(0,), (1,)},
        "project[A, C](R * S)": {(1, 7), (3, 7), (5, 8)},
        "project[C](S * T)": {(7,), (8,)},
        "project[B, D](S * T)": {(2, 0), (6, 1)},
        "project[A, B](R * project[B](S))": {(1, 2), (3, 2), (5, 6)},
        "project[A, C, D](R * S * T)": {(1, 7, 0), (3, 7, 0), (5, 8, 1)},
        "project[A](R * S)": {(1,), (3,), (5,)},
    }
    assert set(expected) == set(by_text)
    for text, rows in expected.items():
        out, terms = by_text[text]
        assert oracles.evaluate_query(out, terms, schemes, relations) == rows, text


def test_serving_queries_are_the_programs():
    from repro.workloads import serving_queries

    assert [text for text, _, _ in inputs.SERVING_QUERIES] == serving_queries()


def test_live_generations():
    sends, acks = [1.0, 5.0], [2.0, 6.0]
    assert oracles.live_generations(0.0, 0.5, sends, acks) == (0, 0)
    assert oracles.live_generations(0.5, 1.5, sends, acks) == (0, 1)
    assert oracles.live_generations(3.0, 4.0, sends, acks) == (1, 1)
    assert oracles.live_generations(5.5, 7.0, sends, acks) == (1, 2)
    assert oracles.live_generations(7.0, 8.0, sends, acks) == (2, 2)


def test_each_seed_fixes_the_schedule():
    def rounds(seed, k=5):
        return list(itertools.islice(inputs.client_schedule(seed), k))

    assert rounds(7) == rounds(7)
    assert rounds(7) != rounds(8)
    counts = inputs.zipf_counts(95, 8)
    for one in rounds(3):
        assert len(one) == inputs.ROUND_REQUESTS
        positions = [p for p, entry in enumerate(one) if entry < 0]
        # Writes sit at fixed positions: every 20th request.
        assert positions == list(range(19, inputs.ROUND_REQUESTS, inputs.WRITE_EVERY))
        assert [one.count(q) for q in range(8)] == counts

    ops = [("execute", i) for i in range(7)]
    orders = lambda seed: list(itertools.islice(inputs.rg_round_orders(seed, ops), 4))  # noqa: E731
    assert orders(1) == orders(1) != orders(2)
    assert all(sorted(order) == sorted(ops) for order in orders(1))

    assert inputs.serving_variants(4) == inputs.serving_variants(4)
    assert inputs.serving_variants(4) != inputs.serving_variants(5)
    for name, variants in inputs.serving_variants(4).items():
        assert len({frozenset(v) for v in variants}) == inputs.VARIANTS
        assert {len(set(v)) for v in variants} == {inputs.SERVING_ROWS[name]}


def test_generation_states_cycle():
    assert inputs.generation_state(0) == (0, 0, 0)
    assert inputs.generation_state(1) == (1, 0, 0)
    assert inputs.generation_state(3) == (1, 1, 1)
    period = 3 * inputs.VARIANTS
    assert inputs.generation_state(period) == (0, 0, 0)
    assert len({inputs.generation_state(g) for g in range(100)}) == period
