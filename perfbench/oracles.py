"""Independent oracles: brute-force models for R_G, a dict join for serving.

None of this imports ``repro``.  The R_G oracle rebuilds the paper's
relation and Lemma 1's prediction from the clause list alone, with the
models found by enumerating all ``2^n`` assignments; the serving oracle
evaluates the eight project-join queries with plain hash joins.  The
attribute names (``F1``, ``X1``, ``Y_1_2``, ``S``) and the symbols
(``e``, ``x``, ``a``, ``b``) are the paper's, spelled as the program
spells them so that rows can be compared.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

BLANK, MARK, SAT_TAG, EXTRA_TAG = "e", "x", "a", "b"

Clause = Tuple[int, int, int]
Row = Tuple


# -- R_G (Lemma 1, Proposition 1) -------------------------------------------


def models(clauses: Sequence[Clause], n: int) -> List[Tuple[int, ...]]:
    """Every satisfying assignment of the formula, as 0/1 tuples over x1..xn."""
    found = []
    for bits in itertools.product((0, 1), repeat=n):
        if all(any((lit > 0) == bool(bits[abs(lit) - 1]) for lit in clause) for clause in clauses):
            found.append(bits)
    return found


def _pairs(m: int) -> List[Tuple[int, int]]:
    return [(i, l) for i in range(1, m + 1) for l in range(i + 1, m + 1)]


def rg_scheme(m: int, n: int) -> List[str]:
    """The column names of R_G: F_1..F_m, X_1..X_n, Y_{i,l} (i < l), S."""
    return (
        [f"F{j}" for j in range(1, m + 1)]
        + [f"X{i}" for i in range(1, n + 1)]
        + [f"Y_{i}_{l}" for i, l in _pairs(m)]
        + ["S"]
    )


def rg_rows(clauses: Sequence[Clause], n: int) -> List[Dict[str, object]]:
    """R_G as the paper defines it: 7 tuples per clause plus the tuple v."""
    m = len(clauses)
    names = rg_scheme(m, n)
    rows = []
    for j, clause in enumerate(clauses, start=1):
        for values in itertools.product((0, 1), repeat=3):
            if not any((lit > 0) == bool(v) for lit, v in zip(clause, values)):
                continue
            row = dict.fromkeys(names, BLANK)
            row[f"F{j}"] = 1
            for lit, v in zip(clause, values):
                row[f"X{abs(lit)}"] = v
            for i, l in _pairs(m):
                if j in (i, l):
                    row[f"Y_{i}_{l}"] = MARK
            row["S"] = SAT_TAG
            rows.append(row)
    special = dict.fromkeys(names, BLANK)
    for j in range(1, m + 1):
        special[f"F{j}"] = 1
    special["S"] = EXTRA_TAG
    rows.append(special)
    return rows


def model_row(bits: Sequence[int], m: int) -> Dict[str, object]:
    """The tuple Lemma 1 adds for one model: F all 1, X the model, Y all x, S = a."""
    row = dict.fromkeys(rg_scheme(m, len(bits)), MARK)
    for j in range(1, m + 1):
        row[f"F{j}"] = 1
    for i, v in enumerate(bits, start=1):
        row[f"X{i}"] = v
    row["S"] = SAT_TAG
    return row


def u_g(m: int) -> Dict[str, str]:
    """The Y-tuple u_G of Proposition 1: every pair column equal to x."""
    return {f"Y_{i}_{l}": MARK for i, l in _pairs(m)}


class RGOracle:
    """Lemma 1 and Proposition 1 for one formula, by brute force."""

    def __init__(self, clauses: Sequence[Clause], n: int):
        self.clauses = list(clauses)
        self.m = len(clauses)
        self.n = n
        self.models = models(clauses, n)
        self.base = rg_rows(clauses, n)
        self.names = rg_scheme(self.m, n)
        self._expected: Dict[Tuple[str, ...], Tuple[FrozenSet[Row], FrozenSet[Row]]] = {}

    @property
    def satisfiable(self) -> bool:
        return bool(self.models)

    def expected_size(self) -> int:
        """|φ_G(R_G)| = 7m + 1 + #SAT(G)."""
        return 7 * self.m + 1 + len(self.models)

    def check_execute(self, names: Sequence[str], rows: Iterable[Row]) -> Optional[str]:
        """Why ``rows`` (over ``names``) is not φ_G(R_G), or ``None`` if it is."""
        names = tuple(names)
        if sorted(names) != sorted(self.names):
            return f"scheme {sorted(names)} is not R_G's"
        got = rows if isinstance(rows, frozenset) else frozenset(map(tuple, rows))
        expected = self._expected.get(names)
        if expected is None:
            wanted = self.base + [model_row(bits, self.m) for bits in self.models]
            expected = self._expected[names] = (
                frozenset(tuple(row[a] for a in names) for row in self.base),
                frozenset(tuple(row[a] for a in names) for row in wanted),
            )
        base, full = expected
        if got == full:
            return None
        if len(base) != 7 * self.m + 1:
            return "oracle R_G has the wrong size"
        if not base <= got:
            return f"{len(base - got)} tuples of R_G missing from the result"
        if len(got) != self.expected_size():
            return f"|result| = {len(got)}, Lemma 1 says {self.expected_size()}"
        return "the extra tuples do not spell the formula's distinct models"

    def check_contains(self, verdict: bool) -> Optional[str]:
        """Proposition 1: u_G ∈ π_Y(φ_G(R_G)) iff G is satisfiable."""
        if bool(verdict) != self.satisfiable:
            return f"contains(u_G) = {verdict}, but #SAT = {len(self.models)}"
        return None


# -- serving (project-join over R, S, T) --------------------------------------


def _join(
    left: Tuple[Tuple[str, ...], FrozenSet[Row]],
    right: Tuple[Tuple[str, ...], FrozenSet[Row]],
) -> Tuple[Tuple[str, ...], FrozenSet[Row]]:
    """Natural join of two (attributes, rows) relations by hashing."""
    la, lrows = left
    ra, rrows = right
    shared = [a for a in la if a in ra]
    li = [la.index(a) for a in shared]
    ri = [ra.index(a) for a in shared]
    rest = [i for i, a in enumerate(ra) if a not in la]
    index: Dict[Row, List[Row]] = {}
    for row in rrows:
        index.setdefault(tuple(row[i] for i in ri), []).append(tuple(row[i] for i in rest))
    out = set()
    for row in lrows:
        for tail in index.get(tuple(row[i] for i in li), ()):
            out.add(row + tail)
    return la + tuple(ra[i] for i in rest), frozenset(out)


def _project(
    relation: Tuple[Tuple[str, ...], FrozenSet[Row]], keep: Sequence[str]
) -> Tuple[Tuple[str, ...], FrozenSet[Row]]:
    attrs, rows = relation
    idx = [attrs.index(a) for a in keep]
    return tuple(keep), frozenset(tuple(row[i] for i in idx) for row in rows)


def evaluate_query(
    output: Sequence[str],
    terms: Sequence,
    schemes: Mapping[str, Sequence[str]],
    relations: Mapping[str, Iterable[Row]],
) -> FrozenSet[Row]:
    """``π_output(t_1 * ... * t_k)`` with ``output``'s attribute order.

    Joins left to right and, after each join, keeps only the attributes the
    output or a later operand needs (pushing a projection below a join is
    sound for natural joins, so the answer is the same).
    """
    def operand(term):
        if isinstance(term, str):
            return tuple(schemes[term]), frozenset(map(tuple, relations[term]))
        name, keep = term
        return _project(operand(name), keep)

    operands = [operand(term) for term in terms]
    current = operands[0]
    for position in range(1, len(operands)):
        current = _join(current, operands[position])
        needed = set(output)
        for later in operands[position + 1:]:
            needed.update(later[0])
        current = _project(current, [a for a in current[0] if a in needed])
    return _project(current, output)[1]


def live_generations(
    send: float, receive: float, mutation_sends: Sequence[float], mutation_acks: Sequence[float]
) -> Tuple[int, int]:
    """The generations a response sent at ``send`` and read at ``receive`` may show.

    Generation ``g`` is the database after the first ``g`` mutations.  It
    may be served from the moment mutation ``g`` was sent until mutation
    ``g + 1`` was acknowledged.  Mutations are totally ordered, so both
    lists ascend and the answer is a range ``[low, high]``.
    """
    return bisect.bisect_left(mutation_acks, send), bisect.bisect_left(mutation_sends, receive)
