"""The benchmark's inputs, generated here from fixed and per-run seeds.

Nothing in this module imports ``repro``: the program under test receives
only what these functions return (formula texts, relation rows, query
texts), and the oracles in :mod:`oracles` check its answers against the
same plain-Python values.

Two kinds of seed are involved:

* the **bank seeds** below are fixed.  They pick the R_G formulas, so every
  run of ``rg_stream``/``rg_spill`` does the same work and the
  end-to-end figures of two runs can be compared;
* the **run seed** (``--seed``) fixes the order of operations within each
  round, and for ``serve_mix`` the relation contents of every generation.
  Neither changes how much work a round does.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Sequence, Tuple

Clause = Tuple[int, int, int]

#: Variables per formula.  n = 9 keeps the brute-force oracle at 512
#: assignments per formula.
NUM_VARIABLES = 9

#: The R_G formula bank: (kind, m, bank seed).  Chosen from a sweep of
#: bank seeds so that one round mixes cheap and costly plans; the
#: ``planted`` m=14 formula is the instance whose in-memory hash join emits
#: a single output block of 229,625 rows (see the README's known waste),
#: so ``peak_rss_mb`` on ``rg_stream`` moves when that is fixed.
FORMULA_BANK: Tuple[Tuple[str, int, int], ...] = (
    ("planted", 12, 3),
    ("planted", 13, 1),
    ("planted", 14, 1),
    ("unsat", 12, 3),
    ("unsat", 14, 2),
    ("random", 13, 3),
    ("random", 14, 2),
)


def generate_formula(kind: str, m: int, seed: int, n: int = NUM_VARIABLES) -> List[Clause]:
    """A strict 3CNF formula with ``m`` clauses over exactly ``n`` variables.

    Literals are signed variable numbers (``-3`` is ``~x3``); every clause
    has three distinct variables.  ``kind`` is

    * ``planted``: every clause is satisfied by a hidden assignment, so the
      formula is satisfiable;
    * ``unsat``: the eight sign patterns over one variable triple are all
      present, so no assignment satisfies the formula;
    * ``random``: clauses drawn uniformly.

    Variables are renumbered in order of first occurrence, so column
    ``X_i`` of R_G carries variable ``x_i``, as in the paper.
    """
    if kind not in ("planted", "unsat", "random"):
        raise ValueError(f"unknown formula kind {kind!r}")
    rng = random.Random(seed)
    while True:
        hidden = [rng.random() < 0.5 for _ in range(n)]
        clauses: List[Clause] = []
        if kind == "unsat":
            triple = rng.sample(range(1, n + 1), 3)
            for bits in range(8):
                clauses.append(
                    tuple(v if (bits >> k) & 1 else -v for k, v in enumerate(triple))
                )
        while len(clauses) < m:
            triple = rng.sample(range(1, n + 1), 3)
            clause = tuple(v if rng.random() < 0.5 else -v for v in triple)
            if kind == "planted" and not any(
                (lit > 0) == hidden[abs(lit) - 1] for lit in clause
            ):
                continue
            clauses.append(clause)
        rng.shuffle(clauses)
        if len({abs(lit) for clause in clauses for lit in clause}) == n:
            return _renumber(clauses)


def _renumber(clauses: Sequence[Clause]) -> List[Clause]:
    order: Dict[int, int] = {}
    for clause in clauses:
        for lit in clause:
            order.setdefault(abs(lit), len(order) + 1)
    return [
        tuple(order[abs(lit)] if lit > 0 else -order[abs(lit)] for lit in clause)
        for clause in clauses
    ]


def formula_text(clauses: Sequence[Clause]) -> str:
    """The formula in the ``(x1 | ~x2 | x3) & ...`` syntax of the program's parser."""
    return " & ".join(
        "(" + " | ".join(f"x{lit}" if lit > 0 else f"~x{-lit}" for lit in clause) + ")"
        for clause in clauses
    )


def formula_bank() -> List[Tuple[str, int, int, List[Clause]]]:
    """Every bank formula as ``(kind, m, bank seed, clauses)``."""
    return [(kind, m, seed, generate_formula(kind, m, seed)) for kind, m, seed in FORMULA_BANK]


def rg_round_orders(seed: int, ops: Sequence) -> Iterator[List]:
    """Endless shuffles of ``ops``, one per round, fixed by ``seed``."""
    rng = random.Random(seed)
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


# -- serve_mix --------------------------------------------------------------

#: The serving schemes, per-column moduli and sizes.  The moduli are those
#: of the program's demo serving database, so the join fan-out is the one
#: the serving tier is tuned on.  Each relation is a window of consecutive
#: ``i`` in the cycle of ``(i mod p1, i mod p2)``, shorter than the cycle,
#: so windows at different starts are different relations.
SERVING_SCHEMES: Dict[str, Tuple[str, str]] = {
    "R": ("A", "B"),
    "S": ("B", "C"),
    "T": ("C", "D"),
}
SERVING_MODULI: Dict[str, Tuple[int, int]] = {
    "R": (40, 17),
    "S": (17, 23),
    "T": (23, 9),
}
SERVING_ROWS: Dict[str, int] = {"R": 600, "S": 360, "T": 180}

#: The eight serving queries, as (text, output attributes, operand terms).
#: An operand term is a relation name or ``(name, projected attributes)``.
SERVING_QUERIES: Tuple[Tuple[str, Tuple[str, ...], Tuple], ...] = (
    ("project[A](R * S)", ("A",), ("R", "S")),
    ("project[A, C](R * S)", ("A", "C"), ("R", "S")),
    ("project[B, D](S * T)", ("B", "D"), ("S", "T")),
    ("project[A, D](R * S * T)", ("A", "D"), ("R", "S", "T")),
    ("project[D](R * S * T)", ("D",), ("R", "S", "T")),
    ("project[C](S * T)", ("C",), ("S", "T")),
    ("project[A, B](R * project[B](S))", ("A", "B"), ("R", ("S", ("B",)))),
    ("project[A, C, D](R * S * T)", ("A", "C", "D"), ("R", "S", "T")),
)

#: Variants per relation.  Mutations cycle through them, so a run has at
#: most ``3 * VARIANTS`` distinct databases for the oracle to evaluate.
VARIANTS = 4

#: Requests per round, and the positions (0-based) of its writes:
#: every 20th request is a ``POST /mutate``.
ROUND_REQUESTS = 100
WRITE_EVERY = 20

#: Zipf(1.2) request counts per query rank for the 95 reads of a round:
#: the expected counts ``95 * k^-1.2 / H`` rounded by largest remainder.
ZIPF_S = 1.2


def serving_variant(name: str, start: int) -> List[Tuple[int, int]]:
    """One relation's rows: ``(i mod p1, i mod p2)`` for consecutive ``i`` from ``start``.

    Every variant of a relation has the same size and nearly the same
    per-value frequencies, so a swap changes the answers but hardly the work.
    """
    p1, p2 = SERVING_MODULI[name]
    return [((start + i) % p1, (start + i) % p2) for i in range(SERVING_ROWS[name])]


def serving_variants(seed: int) -> Dict[str, List[List[Tuple[int, int]]]]:
    """``VARIANTS`` distinct seeded variants of each of R, S and T."""
    rng = random.Random(seed * 7919 + 17)
    variants: Dict[str, List[List[Tuple[int, int]]]] = {}
    for name in ("R", "S", "T"):
        p1, p2 = SERVING_MODULI[name]
        starts = rng.sample(range(p1 * p2 // math.gcd(p1, p2)), VARIANTS)
        variants[name] = [serving_variant(name, start) for start in starts]
    return variants


def mutation_plan(k: int) -> Tuple[str, int]:
    """The k-th mutation (1-based) of a run: which relation, which variant.

    Mutations cycle R, S, T, and each relation steps to its next variant,
    so generation states repeat with period ``3 * VARIANTS``.
    """
    name = "RST"[(k - 1) % 3]
    return name, ((k - 1) // 3 + 1) % VARIANTS


def generation_state(g: int) -> Tuple[int, int, int]:
    """The variant index of (R, S, T) after ``g`` mutations."""
    state = [0, 0, 0]
    for k in range(1, g + 1):
        name, variant = mutation_plan(k)
        state["RST".index(name)] = variant
    return tuple(state)


def zipf_counts(total: int, count: int, s: float = ZIPF_S) -> List[int]:
    """Exact Zipf(s) counts of ``count`` ranks summing to ``total``."""
    weights = [1.0 / (rank + 1) ** s for rank in range(count)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(count), key=lambda r: (exact[r] - counts[r], -r), reverse=True)
    for rank in by_remainder[: total - sum(counts)]:
        counts[rank] += 1
    return counts


def client_schedule(seed: int) -> Iterator[List[int]]:
    """Endless rounds of requests, fixed by ``seed``.

    Each round holds ``ROUND_REQUESTS`` entries: ``-1`` marks a write, at
    fixed positions (every ``WRITE_EVERY``-th request); the reads are the
    query indices with exact Zipf(1.2) counts, shuffled.
    """
    rng = random.Random(seed * 1_000_003)
    writes = {p for p in range(ROUND_REQUESTS) if p % WRITE_EVERY == WRITE_EVERY - 1}
    counts = zipf_counts(ROUND_REQUESTS - len(writes), len(SERVING_QUERIES))
    while True:
        reads = [q for q, c in enumerate(counts) for _ in range(c)]
        rng.shuffle(reads)
        it = iter(reads)
        yield [-1 if p in writes else next(it) for p in range(ROUND_REQUESTS)]
