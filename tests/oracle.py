"""A definitional oracle for the fourteen AFD measures, and a differential fuzzer.

The first half of this file restates every measure of the paper
(Sections IV-A to IV-D, Table III) from its definition, over a plain list
of row tuples: pairs of tuples are counted pair by pair, g3 keeps each
``x``'s majority ``y``, SFI smooths the dense ``dom(X) x dom(Y)`` table,
and the permutation expectation of RFI+ sums the hypergeometric model
over every ``(x, y)`` cell with log-factorials.  None of it imports the
library, so a fast path that drifts from the definitions cannot take the
oracle with it.

The second half is a seeded, stdlib-only generator of relations built
from declared column shapes (key, NULL-heavy, skewed, constant, mixed
types, small uniform domains, two-attribute LHS) and of insert / delete /
window streams, plus :func:`check_case`, which scores each case on every
path the library offers — both backends over a ``Relation``, over a
``ChunkedRelation`` at chunk sizes 1, 7 and the default, through the
incremental tracker (also compared with a recompute after every stream
step, with one more tracker enrolled halfway), and through ``AfdSession.score``
(one session per backend for all the case's FDs and the reverses of its
single-attribute ones, so expectation cells come from the session's
memo) — and reports every path that is not within :data:`ATOL` of the
oracle or not ``==`` to the others.  ``tests/test_oracle.py`` runs a fixed set of
cases; for a longer search run::

    python tests/oracle.py --seconds 60 --seed 7

Every failure prints its seed and the relation's rows.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
import time
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: The tolerance of every oracle comparison (the one perfbench answers use).
ATOL = 1e-9

#: The most initial rows a generated case draws.
MAX_ROWS = 60

#: The registry's measure names, in the paper's order.
MEASURE_NAMES = (
    "rho",
    "g2",
    "g3",
    "g3_prime",
    "gS1",
    "fi",
    "rfi_plus",
    "rfi_prime_plus",
    "sfi",
    "g1",
    "g1_prime",
    "pdep",
    "tau",
    "mu_plus",
)

#: SFI's pseudo-count (the registry default and the paper's best setting).
SFI_ALPHA = 0.5

Row = Tuple[object, ...]


# ----------------------------------------------------------------------
# The measures, from their definitions
# ----------------------------------------------------------------------
def entropy(counts, base: float = 2.0) -> float:
    """Shannon entropy of the distribution proportional to ``counts``."""
    counts = [count for count in counts if count > 0]
    total = sum(counts)
    return -sum(c / total * math.log(c / total, base) for c in counts)


def mutual_information(joint_counts, base: float = 2.0) -> float:
    """``I(X; Y) = Σ p(x, y) log(p(x, y) / (p(x) p(y)))`` from ``(x, y)`` counts."""
    x_counts: Counter = Counter()
    y_counts: Counter = Counter()
    for (x, y), count in joint_counts.items():
        x_counts[x] += count
        y_counts[y] += count
    n = sum(joint_counts.values())
    return sum(
        count / n * math.log(count * n / (x_counts[x] * y_counts[y]), base)
        for (x, y), count in joint_counts.items()
        if count > 0
    )


def expected_mutual_information(x_counts, y_counts, base: float = 2.0) -> float:
    """``E[I(X; Y)]`` over random (X; Y)-permutations, one cell at a time.

    The count of cell ``(x, y)`` with marginals ``a`` and ``b`` follows a
    hypergeometric distribution; every ``(x, y)`` cell is summed on its
    own (no grouping by equal counts), each term one ``exp`` of
    log-factorials from an O(N) table.
    """
    n = sum(x_counts)
    log_factorial = [0.0] * (n + 1)
    for value in range(2, n + 1):
        log_factorial[value] = log_factorial[value - 1] + math.log(value)

    def log_choose(total: int, chosen: int) -> float:
        return log_factorial[total] - log_factorial[chosen] - log_factorial[total - chosen]

    expected = 0.0
    for a in x_counts:
        for b in y_counts:
            for k in range(max(1, a + b - n), min(a, b) + 1):
                log_p = log_choose(b, k) + log_choose(n - b, a - k) - log_choose(n, a)
                expected += math.exp(log_p) * k / n * math.log(n * k / (a * b), base)
    return max(expected, 0.0)


def _fraction_of_information(joint_counts) -> float:
    """``FI = I(X; Y) / H(Y)`` of a (possibly fractional) contingency table."""
    y_counts: Counter = Counter()
    for (_, y), count in joint_counts.items():
        y_counts[y] += count
    return mutual_information(joint_counts) / entropy(y_counts.values())


def smoothed_fraction_of_information(joint_counts, alpha: float = SFI_ALPHA) -> float:
    """SFI: FI of the dense ``dom(X) x dom(Y)`` table, ``alpha`` added to every cell."""
    xs = dict.fromkeys(x for x, _ in joint_counts)
    ys = dict.fromkeys(y for _, y in joint_counts)
    return _fraction_of_information(
        {(x, y): joint_counts.get((x, y), 0) + alpha for x in xs for y in ys}
    )


def oracle_scores(
    attributes: Sequence[str], rows: Sequence[Row], lhs: Sequence[str], rhs: Sequence[str]
) -> Dict[str, float]:
    """All fourteen scores of ``lhs -> rhs`` on ``rows``, from the definitions.

    Rows NULL on an FD attribute are dropped first (Section VI-A); an
    empty or satisfying relation scores 1 on every measure, and every
    score is clipped to ``[0, 1]``.
    """
    position = {attribute: i for i, attribute in enumerate(attributes)}
    fd_positions = [position[a] for a in (*lhs, *rhs)]
    rows = [row for row in rows if all(row[i] is not None for i in fd_positions)]
    xs = [tuple(row[position[a]] for a in lhs) for row in rows]
    ys = [tuple(row[position[a]] for a in rhs) for row in rows]
    n = len(rows)
    groups: Dict[Tuple, List[int]] = {}
    for i, x in enumerate(xs):
        groups.setdefault(x, []).append(i)
    if all(len({ys[i] for i in members}) == 1 for members in groups.values()):
        return {name: 1.0 for name in MEASURE_NAMES}

    # Ordered pairs of tuples that agree on X but not on Y (G1), the
    # tuples in at least one such pair (G2), and ordered pairs of tuples
    # that differ anywhere (|R|² - Σ_w R(w)²), counted pair by pair.
    violating_pairs = sum(
        1 for members in groups.values() for i in members for j in members if ys[i] != ys[j]
    )
    violating_tuples = sum(
        1 for members in groups.values() for i in members if any(ys[i] != ys[j] for j in members)
    )
    differing_pairs = sum(1 for s in rows for t in rows if s != t)
    majority = sum(max(Counter(ys[i] for i in members).values()) for members in groups.values())

    joint = Counter(zip(xs, ys))
    x_counts = Counter(xs)
    y_counts = Counter(ys)
    k_x = len(x_counts)
    pdep = sum(
        x_counts[x] / n * sum((joint[(x, y)] / x_counts[x]) ** 2 for y in y_counts)
        for x in x_counts
    )
    pdep_y = sum((count / n) ** 2 for count in y_counts.values())
    expected_pdep = pdep_y + (k_x - 1) / (n - 1) * (1 - pdep_y)  # Theorem 1
    h_y = entropy(y_counts.values())
    h_y_given_x = -sum(
        count / n * math.log2(count / x_counts[x]) for (x, _), count in joint.items()
    )
    fi = mutual_information(joint) / h_y
    expected_fi = (
        expected_mutual_information(list(x_counts.values()), list(y_counts.values())) / h_y
    )

    scores = {
        "rho": k_x / len(joint),
        "g2": 1 - violating_tuples / n,
        "g3": majority / n,
        "g3_prime": (majority - k_x) / (n - k_x),
        "gS1": 1 - h_y_given_x,
        "fi": fi,
        "rfi_plus": fi - expected_fi,
        "rfi_prime_plus": (fi - expected_fi) / (1 - expected_fi),
        "sfi": smoothed_fraction_of_information(joint),
        "g1": 1 - violating_pairs / n**2,
        "g1_prime": 1 - violating_pairs / differing_pairs,
        "pdep": pdep,
        "tau": (pdep - pdep_y) / (1 - pdep_y),
        "mu_plus": (pdep - expected_pdep) / (1 - expected_pdep),
    }
    return {name: min(max(scores[name], 0.0), 1.0) for name in MEASURE_NAMES}


# ----------------------------------------------------------------------
# Seeded generator: declared column shapes and mutation streams
# ----------------------------------------------------------------------
class Column(NamedTuple):
    """A declared column: how values are drawn and how often they are NULL."""

    shape: str
    null_rate: float = 0.0
    domain: int = 1


#: Column shapes the generator declares (each a way real columns look).
SHAPES = ("key", "uniform", "skewed", "null_heavy", "constant", "mixed")


def declare_column(rng: random.Random) -> Column:
    shape = rng.choice(SHAPES)
    if shape == "key":
        return Column("key")
    if shape == "constant":
        return Column("constant", null_rate=rng.choice([0.0, 0.2]))
    if shape == "null_heavy":
        return Column("uniform", null_rate=rng.uniform(0.4, 0.7), domain=rng.randint(2, 6))
    return Column(shape, null_rate=rng.choice([0.0, 0.0, 0.1]), domain=rng.randint(2, 12))


def draw_value(rng: random.Random, column: Column, serial: int) -> object:
    """One cell of ``column``; ``serial`` numbers the rows ever drawn."""
    if rng.random() < column.null_rate:
        return None
    if column.shape == "key":
        return f"k{serial}"
    if column.shape == "constant":
        return "c"
    if column.shape == "skewed":
        # Half-normal index: early values dominate, a long tail follows.
        return min(int(abs(rng.gauss(0.0, column.domain / 4.0))), column.domain - 1)
    value = rng.randrange(column.domain)
    if column.shape == "mixed":
        # Equal values of different types (1 == 1.0) must group together.
        return rng.choice([value, float(value), str(value), (value, "t")])
    return value


class Case(NamedTuple):
    """One fuzz case: a relation, the FDs to score, and a mutation stream."""

    seed: int
    attributes: Tuple[str, ...]
    rows: Tuple[Row, ...]
    fds: Tuple[Tuple[Tuple[str, ...], Tuple[str, ...]], ...]
    #: ``("insert", rows)`` / ``("delete", live positions)`` steps.
    stream: Tuple[Tuple[str, Tuple], ...]
    window: Optional[int]

    def final_rows(self) -> List[Row]:
        """The live rows after the stream, replayed on a plain list."""
        live: List[Row] = []
        for kind, payload in (("insert", self.rows), *self.stream):
            if kind == "insert":
                for row in payload:
                    live.append(row)
                    if self.window is not None and len(live) > self.window:
                        del live[0]
            else:
                doomed = set(payload)
                live = [row for i, row in enumerate(live) if i not in doomed]
        return live


def generate_case(seed: int) -> Case:
    """A seeded case: 2-4 declared columns, up to :data:`MAX_ROWS` rows, a stream."""
    rng = random.Random(seed)
    columns = [declare_column(rng) for _ in range(rng.randint(2, 4))]
    attributes = tuple(f"A{i}" for i in range(len(columns)))
    serial = [0]

    def draw_row() -> Row:
        serial[0] += 1
        return tuple(draw_value(rng, column, serial[0]) for column in columns)

    rows = tuple(draw_row() for _ in range(rng.choice([0, 1, 2, rng.randint(3, MAX_ROWS)])))
    pairs = [(a, b) for a in attributes for b in attributes if a != b]
    fds = [((a,), (b,)) for a, b in rng.sample(pairs, min(3, len(pairs)))]
    if len(attributes) >= 3:
        lhs = tuple(rng.sample(attributes[:-1], 2))
        fds.append((lhs, (attributes[-1],)))

    window = rng.choice([None, None, rng.randint(4, MAX_ROWS // 2)])
    stream = []
    live = len(rows) if window is None else min(len(rows), window)
    for _ in range(rng.randint(0, 6)):
        if live and rng.random() < 0.4:
            positions = tuple(sorted(rng.sample(range(live), rng.randint(1, min(4, live)))))
            stream.append(("delete", positions))
            live -= len(positions)
        else:
            inserted = tuple(draw_row() for _ in range(rng.randint(1, 8)))
            stream.append(("insert", inserted))
            live += len(inserted)
            if window is not None:
                live = min(live, window)
    return Case(seed, attributes, rows, tuple(fds), tuple(stream), window)


# ----------------------------------------------------------------------
# Differential check of every library path against the oracle
# ----------------------------------------------------------------------
def _backends() -> Tuple[str, ...]:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return ("python",)
    return ("python", "numpy")


def _replay(case: Case, failures: List[str]):
    """The case's stream applied to a ``DynamicRelation``; one tracker per FD.

    Every tracker is compared with a recompute on the snapshot after the
    initial rows and after each stream step; a mismatch is appended to
    ``failures`` with the step index.  One more tracker for the first FD
    enrols halfway through the stream, so it starts from the store's
    shared row counts after deletes and window evictions.
    """
    from repro import FdStatistics, FunctionalDependency
    from repro.stream import DynamicRelation

    dynamic = DynamicRelation(case.attributes, case.rows, name="oracle", window=case.window)
    trackers = [dynamic.track(FunctionalDependency(lhs, rhs)) for lhs, rhs in case.fds]
    watched = [("tracker", tracker) for tracker in trackers]

    def check(step: str) -> None:
        snapshot = dynamic.snapshot()
        for label, tracker in watched:
            if tracker.statistics() != FdStatistics.compute(snapshot, tracker.fd):
                failures.append(f"{tracker.fd}: {label} != recompute {step}")

    check("after the initial rows")
    for index, (kind, payload) in enumerate(case.stream):
        if index == len(case.stream) // 2:
            late = dynamic.track(trackers[0].fd)
            watched.append((f"tracker enrolled before step {index}", late))
        if kind == "insert":
            dynamic.append(payload)
        else:
            live = dynamic.live_ids()
            dynamic.delete([live[i] for i in payload])
        check(f"after stream step {index} ({kind})")
    return trackers


def check_case(case: Case) -> List[str]:
    """Every path's disagreement with the oracle or with the other paths.

    An empty list means: on every FD of the case and the reverse of every
    single-attribute one, each path scored all fourteen measures within
    :data:`ATOL` of the oracle, every path's scores were ``==`` to every
    other path's, and every path's statistics were ``==`` to every other
    path's.  One ``AfdSession`` per backend scores all those FDs, so its
    memo of expectation cells is shared as it is in service use.
    """
    from repro import AfdSession, FdStatistics, FunctionalDependency, Relation, all_measures
    from repro.relation import ChunkedRelation
    from repro.relation.chunked import DEFAULT_CHUNK_SIZE

    measures = all_measures()
    rows = case.final_rows()
    relation = Relation(case.attributes, rows, name="oracle")
    failures: List[str] = []
    trackers = dict(zip(case.fds, _replay(case, failures)))
    # Single-attribute FDs are also scored reversed: on the shared sessions
    # below, Y -> X finds every expectation cell of X -> Y in the memo.
    reverses = [(rhs, lhs) for lhs, rhs in case.fds if len(lhs) == len(rhs) == 1]
    sessions = {
        backend: AfdSession(Relation(case.attributes, rows, name="oracle"), backend=backend)
        for backend in _backends()
    }
    for lhs, rhs in dict.fromkeys([*case.fds, *reverses]):
        fd = FunctionalDependency(lhs, rhs)
        expected = oracle_scores(case.attributes, rows, lhs, rhs)
        statistics = {}
        if (lhs, rhs) in trackers:
            statistics["incremental"] = trackers[lhs, rhs].statistics()
        scores = {}
        for backend, session in sessions.items():
            statistics[f"{backend}/relation"] = FdStatistics.compute(relation, fd, backend)
            for chunk_size in (1, 7, DEFAULT_CHUNK_SIZE):
                store = ChunkedRelation.from_relation(relation, chunk_size=chunk_size)
                statistics[f"{backend}/chunked-{chunk_size}"] = FdStatistics.compute(
                    store, fd, backend
                )
            scores[f"{backend}/session"] = session.score(fd).scores
        for path, computed in statistics.items():
            scores[path] = {
                name: measure.score_from_statistics(computed) for name, measure in measures.items()
            }
        reference_path, reference = next(iter(statistics.items()))
        for path, computed in statistics.items():
            if computed != reference:
                failures.append(f"{fd}: statistics of {path} != {reference_path}")
        first_path, first_scores = next(iter(scores.items()))
        for path, path_scores in scores.items():
            if path_scores != first_scores:
                failures.append(f"{fd}: scores of {path} != {first_path}")
            for name in MEASURE_NAMES:
                if abs(path_scores[name] - expected[name]) > ATOL:
                    failures.append(
                        f"{fd}: {path} {name} = {path_scores[name]!r}, "
                        f"oracle {expected[name]!r}"
                    )
    return failures


def describe(case: Case) -> str:
    """The case, printable: seed, schema, final rows and the stream."""
    lines = [
        f"seed {case.seed}: attributes {list(case.attributes)}, window {case.window}",
        f"initial rows ({len(case.rows)}): {list(case.rows)!r}",
        f"stream: {list(case.stream)!r}",
        f"final rows: {case.final_rows()!r}",
    ]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0, help="search budget")
    parser.add_argument("--seed", type=int, default=0, help="first case seed")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds
    seed = args.seed
    checked = 0
    while time.monotonic() < deadline:
        case = generate_case(seed)
        failures = check_case(case)
        if failures:
            print(describe(case))
            print("\n".join(failures))
            return 1
        checked += 1
        seed += 1
    print(f"{checked} cases (seeds {args.seed}..{seed - 1}) agree with the oracle")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    sys.exit(main())
