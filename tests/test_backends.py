"""Kernel parity, the relation's encoding, and the runtime driver.

The central contract under test: the statistics kernels — packed
``int64`` keys with each grouping tallied or sorted by the library's rule
(``numpy``), packed keys with every grouping sorted (``sorted``) and code
tuples (``python``), selected through ``tests/oracle.py::kernel`` —
produce **bit-identical** results — ``==`` ``FdStatistics`` (the same
count histograms and exact integer facts, with the same ``repr``),
identical derived floats, and identical scores for all fourteen
registered measures (``==``, not ``approx``).  The property tests drive
randomised relations through every kernel, each on its own
encoding: with and without NULLs, with skewed domains, mixed value types,
and the degenerate shapes (empty, constant, key LHS, single RHS value).

Tests that need numpy are marked; the remainder (python kernel,
integer-precision caching) also run in the no-numpy CI job.
"""

import random
from array import array
from collections import Counter

import pytest

from oracle import KERNELS, kernel, requires_numpy, without_numpy
from repro.core import all_measures
from repro.core.statistics import FdStatistics
from repro.relation import ChunkedRelation, FunctionalDependency, Relation


# ----------------------------------------------------------------------
# Randomised relation generation (pure ``random``: runs without numpy)
# ----------------------------------------------------------------------
def random_relation(seed: int) -> Relation:
    """A random relation with NULLs, skew, and mixed value types."""
    rng = random.Random(seed)
    num_attributes = rng.randint(2, 5)
    attributes = [f"A{i}" for i in range(num_attributes)]
    num_rows = rng.choice([0, 1, 2, rng.randint(3, 60), rng.randint(60, 180)])
    pools = []
    for _ in attributes:
        cardinality = rng.randint(1, 14)
        pools.append(
            [rng.choice([str(v), v, v * 1.5, (v, "t")]) for v in range(cardinality)]
        )
    null_probability = rng.choice([0.0, 0.0, 0.1, 0.4])
    rows = []
    for _ in range(num_rows):
        row = []
        for pool in pools:
            if rng.random() < null_probability:
                row.append(None)
            else:
                # Half-normal index: earlier pool values are much likelier
                # (the skewed-domain regime of the SKEW benchmark).
                index = min(int(abs(rng.gauss(0.0, len(pool) / 3.0))), len(pool) - 1)
                row.append(pool[index])
        rows.append(tuple(row))
    return Relation(attributes, rows, name=f"random-{seed}")


def random_fd(relation: Relation, seed: int) -> FunctionalDependency:
    rng = random.Random(seed)
    attributes = list(relation.attributes)
    lhs_size = rng.randint(1, min(2, len(attributes) - 1))
    lhs = rng.sample(attributes, lhs_size)
    rhs = rng.choice([a for a in attributes if a not in lhs])
    return FunctionalDependency(lhs, rhs)


DEGENERATE_CASES = [
    Relation(["X", "Y"], [], name="empty"),
    Relation(["X", "Y"], [("a", 1)] * 7, name="constant"),
    Relation(["X", "Y"], [(i, i % 2) for i in range(9)], name="key-lhs"),
    Relation(["X", "Y"], [(i % 3, "only") for i in range(9)], name="single-rhs"),
    Relation(["X", "Y"], [(None, 1), (None, 2), ("a", None), ("a", 1)], name="nulls"),
    Relation(["X", "Y"], [(None, None)] * 4, name="all-null"),
]


def _on_every_kernel(relation: Relation, fd: FunctionalDependency):
    """``fd``'s statistics on each kernel of ``KERNELS``, code tuples first.

    Each kernel reads its own copy of ``relation``, so none reuses the
    full-tuple sum another cached on a shared encoding.
    """
    results = []
    for kernel_name in KERNELS:
        with kernel(kernel_name):
            copy = Relation(relation.attributes, relation.rows(), name=relation.name)
            results.append(FdStatistics.compute(copy, fd))
    return results


def _assert_kernels_agree(statistics) -> None:
    """Every kernel's statistics and scores identical to the first's."""
    reference, *others = statistics
    for other in others:
        _assert_identical_statistics(reference, other)
        for name, measure in all_measures().items():
            expected = measure.score_from_statistics(reference)
            actual = measure.score_from_statistics(other)
            assert expected == actual, (name, expected, actual)


def _assert_identical_statistics(left: FdStatistics, right: FdStatistics) -> None:
    """``==`` and ``repr`` equality, with exact ``int`` facts on both sides."""
    assert left == right
    assert repr(left) == repr(right)
    for statistics in (left, right):
        for fact in ("violating_tuples", "max_subrelation", "tuple_square_sum"):
            assert type(getattr(statistics, fact)) is int, fact
        assert type(statistics.violating_pair_count()) is int
    assert left.sum_squared_y_probabilities() == right.sum_squared_y_probabilities()
    assert left.expected_group_logical_entropy() == right.expected_group_logical_entropy()


@requires_numpy
@pytest.mark.parametrize("seed", range(60))
def test_backend_parity_on_random_relations(seed):
    relation = random_relation(seed)
    fd = random_fd(relation, seed + 10_000)
    _assert_kernels_agree(_on_every_kernel(relation, fd))


@requires_numpy
@pytest.mark.parametrize("case", DEGENERATE_CASES, ids=lambda c: c.name)
def test_backend_parity_on_degenerate_relations(case):
    fd = FunctionalDependency("X", "Y")
    _assert_kernels_agree(_on_every_kernel(case, fd))


@requires_numpy
def test_backend_parity_on_multi_attribute_lhs():
    relation = random_relation(17)
    attributes = list(relation.attributes)
    fd = FunctionalDependency(attributes[:2], attributes[-1])
    _assert_kernels_agree(_on_every_kernel(relation, fd))


# ----------------------------------------------------------------------
# Without numpy
# ----------------------------------------------------------------------
def test_relation_encoded_once_without_numpy(monkeypatch):
    """Without numpy a relation is encoded into chunks once, not per FD."""
    without_numpy(monkeypatch)
    calls = []
    encode = ChunkedRelation.from_relation

    def counting_encode(relation, *args, **kwargs):
        calls.append(relation)
        return encode(relation, *args, **kwargs)

    monkeypatch.setattr(ChunkedRelation, "from_relation", counting_encode)
    relation = random_relation(5)
    for lhs in relation.attributes:
        for rhs in relation.attributes:
            if lhs != rhs:
                FdStatistics.compute(relation, FunctionalDependency(lhs, rhs))
    assert calls == [relation]
    relation.invalidate_caches()
    FdStatistics.compute(relation, FunctionalDependency(*relation.attributes[:2]))
    assert len(calls) == 2


# ----------------------------------------------------------------------
# Σ_w R(w)² against its definition
# ----------------------------------------------------------------------
def _square_sum_cases():
    rng = random.Random(7)
    rows = [
        (rng.choice([None, 1, 2, 3]), rng.randrange(3), rng.choice([None, "p", "q"]))
        for _ in range(120)
    ]
    wide_attributes = [f"a{i}" for i in range(16)]
    wide_rows = [tuple(rng.randrange(30) for _ in wide_attributes) for _ in range(150)]
    covering_rows = [(rng.randrange(9), rng.choice(["u", "v", None])) for _ in range(150)]
    return [
        (
            "nulls-outside",
            Relation(["A", "B", "C"], rows + rows[:40]),
            FunctionalDependency("A", "B"),
        ),
        (
            "duplicates",
            Relation(["A", "B", "C"], [(i % 3, i % 2, i % 5) for i in range(60)] * 3),
            FunctionalDependency("B", "A"),
        ),
        ("covering", Relation(["X", "Y"], covering_rows), FunctionalDependency("Y", "X")),
        (
            "covering-multi-lhs",
            Relation(["A", "B", "C"], [row for row in rows if row[2] is not None]),
            FunctionalDependency(["C", "A"], "B"),
        ),
        (
            "wide-overflow",
            Relation(wide_attributes, wide_rows + wide_rows[:50]),
            FunctionalDependency("a0", "a1"),
        ),
    ]


def _streamed(relation: Relation, fd: FunctionalDependency, seed: int):
    """A seeded insert/delete/window stream over ``relation``'s rows."""
    from repro.stream import DynamicRelation

    rng = random.Random(seed)
    rows = relation.rows()
    dynamic = DynamicRelation(relation.attributes, rows[:20], window=len(rows) // 2)
    tracker = dynamic.track(fd)
    for start in range(20, len(rows), 25):
        dynamic.append(rows[start : start + 25])
        live = dynamic.live_ids()
        dynamic.delete(rng.sample(live, min(6, len(live))))
    return dynamic.snapshot(), tracker.statistics()


def _statistics_from(source: str, relation: Relation, fd: FunctionalDependency):
    """``fd``'s statistics from one source of a copy of ``relation``'s rows.

    Returns the relation the statistics describe (the stream's final
    snapshot for ``"incremental"``, after checking the tracker against a
    recompute) and the statistics.
    """
    relation = Relation(relation.attributes, relation.rows(), name=relation.name)
    if source == "incremental":
        relation, statistics = _streamed(relation, fd, seed=len(relation))
        assert statistics == FdStatistics.compute(relation, fd)
    elif source == "relation":
        statistics = FdStatistics.compute(relation, fd)
    else:
        chunk_size = int(source.split("-")[1])
        store = ChunkedRelation.from_relation(relation, chunk_size=chunk_size)
        statistics = FdStatistics.compute(store, fd)
    return relation, statistics


@pytest.mark.parametrize("source", ["relation", "chunked-1", "chunked-7", "incremental"])
@pytest.mark.parametrize("kernel_name", KERNELS)
@pytest.mark.parametrize("case", _square_sum_cases(), ids=lambda case: case[0])
def test_tuple_square_sum_matches_definition(case, kernel_name, source):
    _, relation, fd = case
    with kernel(kernel_name):
        relation, statistics = _statistics_from(source, relation, fd)
    expected = sum(c * c for c in Counter(relation.drop_nulls(fd.attributes)).values())
    assert statistics.tuple_square_sum == expected
    assert isinstance(statistics.tuple_square_sum, int)


# ----------------------------------------------------------------------
# Σ_w R(w)² once per relation and NULL pattern
# ----------------------------------------------------------------------
def _count_full_tuple_passes(monkeypatch) -> list:
    """Record the ``non_null`` set of every full-tuple counting pass."""
    import repro.core.chunked as core_chunked

    calls = []
    count = core_chunked._distinct_tuple_counts

    def counting(encoding, attributes, non_null=()):
        calls.append(tuple(non_null))
        return count(encoding, attributes, non_null)

    monkeypatch.setattr(core_chunked, "_distinct_tuple_counts", counting)
    return calls


def _square_sum_by_definition(relation: Relation, non_null) -> int:
    return sum(c * c for c in Counter(relation.drop_nulls(non_null)).values())


def _nullable_relation() -> Relation:
    """An R3-shaped relation: five attributes, two of them with NULLs."""
    rng = random.Random(5)
    rows = [
        (
            rng.randrange(5),
            rng.randrange(3),
            None if rng.random() < 0.2 else rng.randrange(4),
            rng.randrange(6),
            None if rng.random() < 0.3 else rng.randrange(2),
        )
        for _ in range(120)
    ]
    return Relation(["A", "B", "C", "D", "E"], rows)


def _score_every_pair(relation: Relation) -> None:
    for lhs in relation.attributes:
        for rhs in relation.attributes:
            if lhs != rhs:
                fd = FunctionalDependency(lhs, rhs)
                statistics = FdStatistics.compute(relation, fd)
                expected = _square_sum_by_definition(relation, fd.attributes)
                assert statistics.tuple_square_sum == expected, str(fd)


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_null_free_relation_counts_full_tuples_once(monkeypatch, kernel_name):
    calls = _count_full_tuple_passes(monkeypatch)
    rng = random.Random(3)
    attributes = [f"A{i}" for i in range(6)]
    rows = [tuple(rng.randrange(4) for _ in attributes) for _ in range(80)]
    relation = Relation(attributes, rows)
    with kernel(kernel_name):
        _score_every_pair(relation)  # 30 FDs
    assert calls == [()]


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_full_tuples_counted_once_per_null_pattern(monkeypatch, kernel_name):
    calls = _count_full_tuple_passes(monkeypatch)
    relation = _nullable_relation()
    with kernel(kernel_name):
        _score_every_pair(relation)
        # X ∪ Y holds neither, one or both of the nullable C and E.
        assert sorted(calls) == [(), ("C",), ("C", "E"), ("E",)]
        _score_every_pair(relation)
    assert len(calls) == 4


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_covering_fds_run_no_full_tuple_pass(monkeypatch, kernel_name):
    # When X ∪ Y is the whole schema the full tuples are the (x, y) pairs,
    # so Σ_w R(w)² comes from the merged joint counts.
    calls = _count_full_tuple_passes(monkeypatch)
    for name, relation, fd in _square_sum_cases():
        if not name.startswith("covering"):
            continue
        expected = _square_sum_by_definition(relation, fd.attributes)
        stores = [ChunkedRelation.from_relation(relation, chunk_size=size) for size in (1, 7)]
        for source in [relation, *stores]:
            with kernel(kernel_name):
                statistics = FdStatistics.compute(source, fd)
            assert statistics.tuple_square_sum == expected, (name, source)
    assert calls == []


@pytest.mark.parametrize("numpy_present", [pytest.param(True, marks=requires_numpy), False])
def test_chunked_tuple_square_sum_merges_before_squaring(monkeypatch, numpy_present):
    # Duplicate full tuples land in different chunks; a sum of per-chunk
    # squares would fall short of Σ_w R(w)² at every chunk size here.
    from itertools import combinations

    from repro.core.chunked import tuple_square_sum

    if not numpy_present:
        without_numpy(monkeypatch)
    relation = _nullable_relation()
    stores = [ChunkedRelation.from_relation(relation, chunk_size=size) for size in (1, 7)]
    for size in range(len(relation.attributes) + 1):
        for non_null in combinations(relation.attributes, size):
            expected = _square_sum_by_definition(relation, non_null)
            assert tuple_square_sum(relation, non_null) == expected, non_null
            for store in stores:
                assert tuple_square_sum(store, non_null) == expected, (store, non_null)


# ----------------------------------------------------------------------
# Group facts against per-group loops
# ----------------------------------------------------------------------
def _group_fact_cases():
    rng = random.Random(11)

    def skewed(cardinality):
        return min(int(abs(rng.gauss(0.0, cardinality / 4.0))), cardinality - 1)

    def nullable(value, probability):
        return None if rng.random() < probability else value

    uniform = [(rng.randrange(12), rng.randrange(4), rng.randrange(7)) for _ in range(160)]
    null_heavy = [
        tuple(nullable(rng.randrange(6), 0.45) for _ in range(3)) for _ in range(160)
    ]
    skew = [(skewed(40), skewed(6), rng.choice(["p", "q", 2.5])) for _ in range(200)]
    all_null = [(rng.randrange(5), None, rng.randrange(3)) for _ in range(60)]
    return [
        ("random", Relation(["A", "B", "C"], uniform), FunctionalDependency("A", "B")),
        ("null-heavy", Relation(["A", "B", "C"], null_heavy), FunctionalDependency("C", "A")),
        ("skewed", Relation(["A", "B", "C"], skew), FunctionalDependency("A", "B")),
        ("all-null", Relation(["A", "B", "C"], all_null), FunctionalDependency("A", "B")),
        (
            "two-attribute-lhs",
            Relation(["A", "B", "C"], uniform + null_heavy),
            FunctionalDependency(["B", "C"], "A"),
        ),
    ]


def _reference_group_facts(relation: Relation, fd: FunctionalDependency) -> dict:
    """The group facts by explicit per-``x`` groups of ``y`` counts of the rows."""
    lhs = [relation.attributes.index(a) for a in fd.lhs]
    rhs = [relation.attributes.index(a) for a in fd.rhs]
    groups = {}
    num_rows = 0
    for row in relation.drop_nulls(fd.attributes):
        num_rows += 1
        x = tuple(row[i] for i in lhs)
        groups.setdefault(x, Counter())[tuple(row[i] for i in rhs)] += 1
    violating_pairs = 0
    for y_counter in groups.values():
        total = 0
        sum_of_squares = 0
        for count in y_counter.values():
            total += count
            sum_of_squares += count * count
        violating_pairs += total * total - sum_of_squares
    expected_entropy = 0.0
    for y_counter in groups.values():
        group_total = sum(y_counter.values())
        p_x = group_total / num_rows
        sum_of_squares = 0.0
        for count in y_counter.values():
            p = count / group_total
            sum_of_squares += p * p
        expected_entropy += p_x * (1.0 - sum_of_squares)
    return {
        "satisfied": all(len(y_counter) <= 1 for y_counter in groups.values()),
        "violating_pair_count": violating_pairs,
        "violating_tuple_count": sum(
            sum(y_counter.values()) for y_counter in groups.values() if len(y_counter) > 1
        ),
        "max_subrelation_size": sum(max(y_counter.values()) for y_counter in groups.values()),
        "expected_group_logical_entropy": expected_entropy,
    }


def _group_facts(statistics: FdStatistics) -> dict:
    return {
        "satisfied": statistics.satisfied,
        "violating_pair_count": statistics.violating_pair_count(),
        "violating_tuple_count": statistics.violating_tuples,
        "max_subrelation_size": statistics.max_subrelation,
        "expected_group_logical_entropy": statistics.expected_group_logical_entropy(),
    }


def _assert_facts_match(statistics: FdStatistics, relation, fd) -> None:
    """Integer facts exactly; E_x[h(Y|x)] (an fsum, the loop sums in
    sequence) within a few ulps."""
    facts = _group_facts(statistics)
    reference = _reference_group_facts(relation, fd)
    assert facts["expected_group_logical_entropy"] == pytest.approx(
        reference.pop("expected_group_logical_entropy"), abs=1e-12
    )
    assert type(facts.pop("expected_group_logical_entropy")) is float
    assert facts == reference
    for name in ("violating_pair_count", "violating_tuple_count", "max_subrelation_size"):
        assert type(facts[name]) is int, name


@pytest.mark.parametrize("source", ["relation", "chunked-1", "chunked-7", "incremental"])
@pytest.mark.parametrize("kernel_name", KERNELS)
@pytest.mark.parametrize("case", _group_fact_cases(), ids=lambda case: case[0])
def test_group_facts_match_per_group_loops(case, kernel_name, source):
    _, relation, fd = case
    with kernel(kernel_name):
        relation, statistics = _statistics_from(source, relation, fd)
    _assert_facts_match(statistics, relation, fd)


# ----------------------------------------------------------------------
# Integer precision (the 2**53 cache fix)
# ----------------------------------------------------------------------
def test_integer_statistics_are_exact_beyond_float_precision():
    """Counts above 2**53 must not round-trip through float."""
    huge = 2**53 + 1
    fd = FunctionalDependency("X", "Y")
    statistics = FdStatistics.from_joint_counts(
        fd,
        num_rows=huge + 2,
        xy_counts={(("a",), ("p",)): huge, (("a",), ("q",)): 2},
        tuple_square_sum=huge * huge + 4,
    )
    assert statistics.tuple_square_sum == huge * huge + 4
    assert statistics.violating_pair_count() == (huge + 2) ** 2 - (huge * huge + 4)
    assert statistics.violating_tuples == huge + 2
    assert statistics.max_subrelation == huge
    assert statistics.x_histogram == {huge + 2: 1}
    assert statistics.xy_histogram == {2: 1, huge: 1}
    assert statistics.group_squares == {(huge * huge + 4, huge + 2): 1}


# ----------------------------------------------------------------------
# The relation's encoding
# ----------------------------------------------------------------------
def encoded_column(encoding, attribute):
    """``(codes, decode table)`` of one attribute across the encoding's chunks."""
    codes = [code for chunk in encoding.iter_chunks() for code in chunk.column_list(attribute)]
    return codes, encoding._column(attribute).values


def test_columnar_encoding_round_trip():
    relation = Relation(
        ["A", "B"],
        [("x", 1), ("y", None), ("x", 1), (None, 2), ("z", 1)],
    )
    encoding = relation.columnar()
    assert isinstance(encoding, ChunkedRelation)
    assert encoding is relation.columnar()  # cached on the relation
    assert encoded_column(encoding, "A") == ([0, 1, 0, -1, 2], ["x", "y", "z"])
    assert encoding.cardinality("A") == 3
    assert encoding.null_count("A") == 1 and encoding.null_count("B") == 1
    assert encoding.to_relation() == relation


def test_columnar_grouped_matches_counter_order():
    """The encoding is a first-occurrence group-by: code order == Counter order."""
    relation = random_relation(23)
    encoding = relation.columnar()
    for attribute in relation.attributes:
        expected = Counter(v for v in relation.column(attribute) if v is not None)
        codes, values = encoded_column(encoding, attribute)
        counts = Counter(code for code in codes if code >= 0)
        assert values == list(expected)
        assert [counts[code] for code in range(len(values))] == list(expected.values())


def test_columnar_view_distinguishes_equal_reprs():
    """Dictionary encoding must key on value equality, not representation."""
    relation = Relation(["A", "B"], [(1, "a"), (True, "a"), ("1", "a"), (1.0, "a")])
    # 1 == True == 1.0 in Python, "1" differs: two distinct codes.
    assert relation.columnar().cardinality("A") == 2
    statistics = FdStatistics.compute(relation, FunctionalDependency("A", "B"))
    assert statistics.distinct_x == 2


def assert_array_encoding(relation):
    """Without numpy the relation's encoding holds ``array("i")`` chunk columns."""
    encoding = relation.columnar()
    assert isinstance(encoding, ChunkedRelation) and encoding is relation.columnar()
    for chunk in encoding.iter_chunks():
        for codes in chunk.columns.values():
            assert isinstance(codes, array) and codes.typecode == "i"


def test_columnar_absent_without_numpy(monkeypatch):
    without_numpy(monkeypatch)
    relation = Relation(["A", "B"], [("x", 1)])
    assert_array_encoding(relation)
    # The statistics pass counts code tuples over it.
    statistics = FdStatistics.compute(relation, FunctionalDependency("A", "B"))
    assert statistics.num_rows == 1


def test_statistics_pass_counts_its_chunks():
    from repro.obs.metrics import get_registry
    from repro.relation.chunked import DEFAULT_CHUNK_SIZE

    registry = get_registry()
    relation = Relation(["A", "B"], [(index % 3, index % 2) for index in range(20)])
    fd = FunctionalDependency("A", "B")
    for source, chunks in (
        (ChunkedRelation.from_relation(relation, chunk_size=7), 3),
        (relation, 1),
    ):
        before = registry.value("chunked_chunks_total")
        FdStatistics.compute(source, fd)
        assert registry.value("chunked_chunks_total") - before == chunks
    assert relation.columnar().chunk_size == DEFAULT_CHUNK_SIZE


# ----------------------------------------------------------------------
# Discovery's key check over code arrays
# ----------------------------------------------------------------------
def is_key_by_definition(relation, attributes):
    """No two rows agree on ``attributes``, NULL counted as a value."""
    positions = [relation.attributes.index(a) for a in attributes]
    return len({tuple(row[i] for i in positions) for row in relation}) == relation.num_rows


def key_relation(seed):
    """Key, near-key, NULL-heavy, duplicate and constant columns."""
    rng = random.Random(seed)
    num_rows = rng.choice([0, 1, 2, rng.randint(3, 12), rng.randint(12, 60)])
    rows = [
        (
            index,
            None if index % 9 == 0 else index,  # a key until a second NULL
            None if rng.random() < 0.6 else rng.randint(0, 3),
            rng.randint(0, num_rows),
            "c",
            rng.choice([index, str(index), float(index)]),
        )
        for index in range(num_rows)
    ]
    attributes = ["key", "near", "nulls", "dup", "const", "mixed"]
    return Relation(attributes, rows, name=f"keys-{seed}")


def attribute_sets(relation, max_size=3):
    from itertools import combinations

    for size in range(1, max_size + 1):
        yield from combinations(relation.attributes, size)


def assert_key_check_matches_definition(relation):
    from repro.core.chunked import is_key

    sources = [relation] + [
        ChunkedRelation.from_relation(relation, chunk_size=size) for size in (1, 7)
    ]
    for attributes in attribute_sets(relation):
        expected = is_key_by_definition(relation, attributes)
        for source in sources:
            assert is_key(source, attributes) == expected, (type(source), attributes)


@pytest.mark.parametrize("seed", range(12))
def test_key_check_matches_definition(seed):
    assert_key_check_matches_definition(key_relation(seed))


def test_key_check_without_numpy(monkeypatch):
    without_numpy(monkeypatch)
    for seed in range(12):
        relation = key_relation(seed)
        assert_array_encoding(relation)
        assert_key_check_matches_definition(relation)


def test_key_check_past_the_packing_limit():
    import math

    from repro.core.chunked import _PACK_LIMIT, is_key

    # Eight columns of 256 distinct values each: the radix product 257**8
    # passes 2**62, so the check counts code tuples instead of packed keys.
    rows = [tuple((index * (2 * shift + 1)) % 256 for shift in range(8)) for index in range(256)]
    relation = Relation([f"A{i}" for i in range(8)], rows)
    assert math.prod(relation.distinct_count(a) + 1 for a in relation.attributes) > _PACK_LIMIT
    assert is_key(relation, relation.attributes)
    doubled = Relation(relation.attributes, rows + rows[:1])
    assert not is_key(doubled, doubled.attributes)


# ----------------------------------------------------------------------
# Harness / discovery on every kernel
# ----------------------------------------------------------------------
@requires_numpy
def test_evaluate_specs_bit_identical_across_backends():
    from repro.evaluation.harness import evaluate_specs
    from repro.evaluation.scoring import MeasureConfig
    from repro.synthetic.benchmarks import benchmark_specs

    specs = benchmark_specs("err", steps=2, tables_per_step=1, max_rows=120)
    config = MeasureConfig()
    results = []
    for kernel_name in KERNELS:
        with kernel(kernel_name):
            results.append(evaluate_specs(specs, config))
    reference, *others = results
    for other in others:
        assert len(reference.rows) == len(other.rows)
        for left, right in zip(reference.rows, other.rows):
            assert left.scores == right.scores


@requires_numpy
def test_discovery_bit_identical_across_backends():
    from repro.discovery import discover_afds

    relation = random_relation(31)
    results = []
    for kernel_name in KERNELS:
        with kernel(kernel_name):
            copy = Relation(relation.attributes, relation.rows(), name=relation.name)
            results.append(discover_afds(copy, threshold=0.0, max_lhs_size=2))
    reference, *others = results
    for other in others:
        assert len(reference.candidates) == len(other.candidates)
        for left, right in zip(reference.candidates, other.candidates):
            assert left.fd == right.fd
            assert left.scores == right.scores


# ----------------------------------------------------------------------
# Runtime driver (Table V)
# ----------------------------------------------------------------------
@requires_numpy
def test_runtime_quartiles_bracket_the_median():
    from statistics import median

    from repro.experiments.runtime import _quartiles

    assert _quartiles([0.5]) == (0.5, 0.5)
    assert _quartiles([float(i) for i in reversed(range(31))]) == (7.0, 23.0)
    for runs in ([0.1, 0.1], [0.1, 0.1, 0.3], [0.2, 0.1, 0.1, 0.1, 0.2]):
        p25, p75 = _quartiles(runs)
        assert p25 <= median(runs) <= p75


@requires_numpy
def test_runtime_driver_smoke(tmp_path):
    from repro.experiments.runtime import RuntimeConfig, run_runtime

    bench_path = tmp_path / "BENCH_runtime.json"
    payload = run_runtime(
        RuntimeConfig(sizes=(120, 300), repeats=2, warmup_runs=1),
        output_dir=str(tmp_path / "results"),
        bench_path=str(bench_path),
    )
    assert payload["experiment"] == "runtime"
    assert [entry["num_rows"] for entry in payload["relations"]] == [120, 300]
    for entry in payload["relations"]:
        assert entry["statistics_seconds_median"] >= 0.0
        assert len(entry["measure_seconds_median"]) == 14
        for timed in ("statistics", "total"):
            runs = entry[f"{timed}_seconds_runs"]
            assert len(runs) == 2
            assert entry[f"{timed}_seconds_p25"] == min(runs)
            assert entry[f"{timed}_seconds_p75"] == max(runs)
            assert min(runs) <= entry[f"{timed}_seconds_median"] <= max(runs)
    assert (tmp_path / "results" / "runtime" / "summary.json").exists()
    assert (tmp_path / "results" / "runtime" / "summary.csv").exists()

    import json

    record = json.loads(bench_path.read_text())
    assert record["relations"][0]["name"] == "runtime[120]"
    # Table V only: no section beside the fixed relations.
    assert sorted(record) == ["config", "experiment", "metadata", "relations"]
