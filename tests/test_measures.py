"""Golden-value tests for all fourteen AFD measures.

Every score on the quickstart relation (zip -> city) is checked against a
value derived *by hand* from the paper's definitions — the arithmetic in
this file deliberately repeats the formulas with plain ``math`` calls
instead of reusing any library code, so a silent regression in the
partition/entropy bookkeeping cannot cancel out.
"""

import math
import random
import tracemalloc
from collections import Counter

import pytest

from repro.core import (
    FdStatistics,
    MeasureClass,
    SfiMeasure,
    all_measures,
    get_measure,
    measure_names,
)
from repro.core.expectations import (
    _MAX_CELLS,
    _hypergeometric_cell,
    expected_mutual_information_exact,
    expected_value_by_enumeration,
)
from repro.core.registry import MEASURE_ORDER, register_measure, unregister_measure
from repro.relation import FunctionalDependency, Relation

from oracle import (
    expected_mutual_information,
    mutual_information,
    smoothed_fraction_of_information,
)

# The quickstart relation: N=4, groups zip=1000 -> {Brussels: 2, Bruxelles: 1},
# zip=3590 -> {Diepenbeek: 1}.
QUICKSTART = Relation(
    ["zip", "city"],
    [
        ("1000", "Brussels"),
        ("1000", "Brussels"),
        ("1000", "Bruxelles"),
        ("3590", "Diepenbeek"),
    ],
)
FD = FunctionalDependency("zip", "city")


def entropy2(counts):
    """Independent Shannon entropy (base 2) used to derive golden values."""
    total = sum(counts)
    return -sum(c / total * math.log2(c / total) for c in counts if c)


# Hand-derived quantities of the quickstart relation.
H_X = entropy2([3, 1])
H_Y = entropy2([2, 1, 1])  # = 1.5
H_XY = entropy2([2, 1, 1])  # joint counts happen to match the Y marginal
H_Y_GIVEN_X = H_XY - H_X
FI = 1.0 - H_Y_GIVEN_X / H_Y
PDEP_Y = (2**2 + 1 + 1) / 16  # 3/8
PDEP_XY = 1.0 - (3 / 4) * (1 - (2 / 3) ** 2 - (1 / 3) ** 2)  # = 2/3
E_PDEP = PDEP_Y + ((2 - 1) / (4 - 1)) * (1 - PDEP_Y)  # Theorem 1, K=2, N=4

GOLDEN = {
    "rho": 2 / 3,  # |dom(X)| / |dom(XY)| = 2/3
    "g2": 1 / 4,  # 3 of 4 tuples are in a violating pair
    "g3": 3 / 4,  # keep {Brussels, Brussels, Diepenbeek}
    "g3_prime": (3 - 2) / (4 - 2),
    "g1": 1 - 4 / 16,  # violating ordered pairs: 3^2 - (2^2 + 1^2) = 4
    "g1_prime": 1 - 4 / (16 - 6),  # sum of squared tuple multiplicities = 6
    "pdep": PDEP_XY,
    "tau": (PDEP_XY - PDEP_Y) / (1 - PDEP_Y),  # = 7/15
    "mu_plus": (PDEP_XY - E_PDEP) / (1 - E_PDEP),  # = 1/5
    "gS1": 1.0 - H_Y_GIVEN_X,
    "fi": FI,
}


@pytest.mark.parametrize("name,expected", sorted(GOLDEN.items()))
def test_golden_value(name, expected):
    assert get_measure(name).score(QUICKSTART, FD) == pytest.approx(expected, abs=1e-12)


def test_tau_and_mu_plus_exact_fractions():
    assert get_measure("tau").score(QUICKSTART, FD) == pytest.approx(7 / 15, abs=1e-12)
    assert get_measure("mu_plus").score(QUICKSTART, FD) == pytest.approx(1 / 5, abs=1e-12)


def test_rfi_measures_against_brute_force_enumeration():
    """The exact hypergeometric E[I] must equal the 4!-permutation average."""
    joint = Counter(((zip_code,), (city,)) for zip_code, city in QUICKSTART)
    brute_force = expected_value_by_enumeration(joint, mutual_information)
    exact = expected_mutual_information_exact(Counter([3, 1]), Counter([2, 1, 1]))
    assert exact == pytest.approx(brute_force, abs=1e-9)

    expected_fi = exact / H_Y
    rfi = get_measure("rfi_plus").score(QUICKSTART, FD)
    rfi_prime = get_measure("rfi_prime_plus").score(QUICKSTART, FD)
    assert rfi == pytest.approx(max(FI - expected_fi, 0.0), abs=1e-9)
    assert rfi_prime == pytest.approx(
        max((FI - expected_fi) / (1 - expected_fi), 0.0), abs=1e-9
    )


def test_sfi_golden_value():
    """SFI(0.5) is FI on the 2x3 smoothed contingency table, derived by hand."""
    smoothed = [2.5, 1.5, 0.5, 0.5, 0.5, 1.5]  # row-major over dom(X) x dom(Y)
    x_marginal = [2.5 + 1.5 + 0.5, 0.5 + 0.5 + 1.5]
    y_marginal = [2.5 + 0.5, 1.5 + 0.5, 0.5 + 1.5]
    h_y_given_x = entropy2(smoothed) - entropy2(x_marginal)
    expected = 1.0 - h_y_given_x / entropy2(y_marginal)
    assert get_measure("sfi").score(QUICKSTART, FD) == pytest.approx(expected, abs=1e-12)


# ----------------------------------------------------------------------
# Expected mutual information against its definition
# ----------------------------------------------------------------------
def random_marginal(rng, total, parts):
    """``parts`` positive counts summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [high - low for low, high in zip([0] + cuts, cuts + [total])]


TINY_MARGINALS = {
    "n=2": ([1, 1], [1, 1]),
    "a+b>n": ([3, 1], [3, 1]),
    "constant-x": ([5], [2, 3]),
    "key-x": ([1] * 6, [3, 2, 1]),
    "n=8": ([2, 2, 4], [5, 3]),
}


@pytest.mark.parametrize("name", sorted(TINY_MARGINALS))
def test_emi_matches_permutation_enumeration(name):
    """E[I] equals the average of I over all N! pairings of the two columns."""
    x_counts, y_counts = TINY_MARGINALS[name]
    x_column = [i for i, count in enumerate(x_counts) for _ in range(count)]
    y_column = [j for j, count in enumerate(y_counts) for _ in range(count)]
    joint = Counter(zip(x_column, y_column))
    brute_force = expected_value_by_enumeration(joint, mutual_information)
    exact = expected_mutual_information_exact(Counter(x_counts), Counter(y_counts))
    assert exact == pytest.approx(brute_force, abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_emi_matches_ungrouped_reference(seed):
    rng = random.Random(seed)
    half = rng.randint(1, 1_500)
    # X repeats every count once, so the grouping has work to do.
    x_counts = random_marginal(rng, half, rng.randint(1, min(half, 30))) * 2
    y_counts = random_marginal(rng, 2 * half, rng.randint(1, min(2 * half, 60)))
    exact = expected_mutual_information_exact(Counter(x_counts), Counter(y_counts))
    assert exact == pytest.approx(
        expected_mutual_information(x_counts, y_counts), rel=1e-11, abs=1e-15
    )


def test_emi_does_not_underflow_at_the_support_ends():
    """For a = b = 1000, n = 2000, P(1) is below the smallest float."""
    exact = expected_mutual_information_exact({1_000: 2}, {1_000: 2})
    assert exact > 0.0
    assert exact == pytest.approx(
        expected_mutual_information([1_000, 1_000], [1_000, 1_000]), rel=1e-11
    )


def test_emi_of_a_key_against_a_balanced_column_is_one_bit():
    """A key X fixes Y under every pairing: E[I] = H(Y) = 1 bit exactly."""
    tracemalloc.start()
    try:
        emi = expected_mutual_information_exact({1: 200_000}, {100_000: 2})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(emi - 1.0) < 1e-12
    assert peak < 1_000_000


# ----------------------------------------------------------------------
# The memo of hypergeometric cells
# ----------------------------------------------------------------------
def test_hypergeometric_cell_is_bit_for_bit_symmetric():
    """The memo key ``(min(a, b), max(a, b), n)`` rests on this."""
    rng = random.Random(18)
    triples = []

    def log_uniform(high):
        return max(1, min(high, int(high ** rng.random())))

    for _ in range(20_000):
        # Log-uniform n up to 200,000, a and b log-uniform up to n: mostly
        # short supports, some long ones.
        n = log_uniform(200_000)
        triples.append((log_uniform(n), log_uniform(n), n))
    for n in (1, 2, 7, 1_000, 200_000):
        triples += [(1, b, n) for b in {1, max(1, n // 2), n}]  # a = 1
        triples += [(n, b, n) for b in {1, max(1, n // 3), n}]  # a = n
    triples += [(a, b, 100) for a in (60, 75, 99) for b in (50, 80, 100)]  # a + b > n
    for a, b, n in triples:
        assert _hypergeometric_cell(a, b, n) == _hypergeometric_cell(b, a, n), (a, b, n)


def random_histograms(rng, n):
    x_counts = random_marginal(rng, n, rng.randint(1, min(n, 25)))
    y_counts = random_marginal(rng, n, rng.randint(1, min(n, 25)))
    return Counter(x_counts), Counter(y_counts)


@pytest.mark.parametrize("seed", range(6))
def test_emi_with_a_shared_memo_equals_a_fresh_one(seed):
    rng = random.Random(seed)
    cells = {}
    n = rng.randint(30, 3_000)
    # Pre-fill the memo from other histogram pairs at this n and at others.
    for total in (n, n, rng.randint(30, 3_000), n + 1):
        expected_mutual_information_exact(*random_histograms(rng, total), cells=cells)
    filled = len(cells)
    for _ in range(4):
        x_histogram, y_histogram = random_histograms(rng, n)
        fresh = expected_mutual_information_exact(x_histogram, y_histogram)
        assert expected_mutual_information_exact(x_histogram, y_histogram, cells=cells) == fresh
        # The mirrored FD reuses every cell of the first direction.
        size = len(cells)
        assert expected_mutual_information_exact(y_histogram, x_histogram, cells=cells) == fresh
        assert len(cells) == size
    assert filled > 0 and all(a <= b for a, b, _ in cells)


@pytest.mark.parametrize("seed", range(6))
def test_emi_is_symmetric(seed):
    x_histogram, y_histogram = random_histograms(random.Random(seed), 1_000 + seed)
    assert expected_mutual_information_exact(
        x_histogram, y_histogram
    ) == expected_mutual_information_exact(y_histogram, x_histogram)


def test_a_full_memo_is_cleared_before_its_next_insert():
    x_histogram, y_histogram = random_histograms(random.Random(3), 500)
    fresh = expected_mutual_information_exact(x_histogram, y_histogram)
    # Stale entries under keys no call will ask for (n = 0).
    cells = {(0, k, 0): -1.0 for k in range(_MAX_CELLS)}
    assert expected_mutual_information_exact(x_histogram, y_histogram, cells=cells) == fresh
    assert 0 < len(cells) <= len(x_histogram) * len(y_histogram)
    assert all(n == 500 for _, _, n in cells)


def test_statistics_equality_and_repr_ignore_the_memo():
    plain = FdStatistics.compute(QUICKSTART, FD)
    shared = FdStatistics.compute(QUICKSTART, FD)
    shared.expectation_cells = {(1, 2, 4): 0.5}
    assert plain.expectation_cells is None
    assert plain == shared and repr(plain) == repr(shared)
    assert "expectation_cells" not in repr(shared)


# ----------------------------------------------------------------------
# Sparse SFI against the dense smoothed table
# ----------------------------------------------------------------------
def sfi_relations():
    rng = random.Random(7)
    yield "random", [(rng.randrange(12), rng.randrange(7)) for _ in range(300)]
    yield "null-heavy", [
        (
            None if rng.random() < 0.4 else rng.randrange(9),
            None if rng.random() < 0.3 else rng.randrange(5),
        )
        for _ in range(300)
    ]
    yield "skewed", [
        (min(int(rng.expovariate(0.3)), 40), min(int(rng.expovariate(1.0)), 15))
        for _ in range(500)
    ]
    yield "key-y", [(rng.randrange(20), row) for row in range(200)]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("case", ["random", "null-heavy", "skewed", "key-y"])
def test_sparse_sfi_matches_dense_smoothing(case, alpha):
    rows = dict(sfi_relations())[case]
    relation = Relation(["zip", "city"], rows)
    statistics = FdStatistics.compute(relation, FD)
    assert not statistics.satisfied
    joint = Counter((x, y) for x, y in rows if x is not None and y is not None)
    score = SfiMeasure(alpha).score_from_statistics(statistics)
    assert score == pytest.approx(smoothed_fraction_of_information(joint, alpha), abs=1e-12)


# ----------------------------------------------------------------------
# Edge cases shared by all fourteen measures
# ----------------------------------------------------------------------
def test_exact_fd_scores_one_for_every_measure():
    relation = Relation(
        ["zip", "city"],
        [("1000", "Brussels"), ("1000", "Brussels"), ("3590", "Diepenbeek")],
    )
    for name, measure in all_measures().items():
        assert measure.score(relation, FD) == 1.0, name


def test_empty_relation_scores_one_for_every_measure():
    relation = Relation(["zip", "city"], [])
    for name, measure in all_measures().items():
        assert measure.score(relation, FD) == 1.0, name


def test_single_rhs_value_is_satisfied():
    relation = Relation(["zip", "city"], [("1", "A"), ("2", "A"), ("1", "A")])
    for name, measure in all_measures().items():
        assert measure.score(relation, FD) == 1.0, name


def test_independence_pushes_corrected_measures_to_zero():
    """On an X-independent Y column the chance-corrected measures vanish."""
    rows = [(i % 10, (i // 10) % 10) for i in range(400)]  # full 10x10 grid, 4x each
    relation = Relation(["zip", "city"], [(str(x), str(y)) for x, y in rows])
    assert get_measure("mu_plus").score(relation, FD) == pytest.approx(0.0, abs=0.05)
    assert get_measure("tau").score(relation, FD) == pytest.approx(0.0, abs=0.05)
    assert get_measure("rfi_plus").score(relation, FD) == pytest.approx(0.0, abs=0.05)


def test_scores_stay_in_unit_interval_on_noisy_relation():
    rows = [(str(i % 7), str((i * 13 + i // 7) % 5)) for i in range(200)]
    relation = Relation(["zip", "city"], rows)
    statistics = FdStatistics.compute(relation, FD)
    for name, measure in all_measures().items():
        score = measure.score_from_statistics(statistics)
        assert 0.0 <= score <= 1.0, name


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------
def test_registry_has_exactly_the_fourteen_paper_measures():
    measures = all_measures()
    assert list(measures) == list(MEASURE_ORDER)
    assert len(measures) == 14


def test_measure_classes_partition_into_the_three_paper_classes():
    by_class = {MeasureClass.VIOLATION: 0, MeasureClass.SHANNON: 0, MeasureClass.LOGICAL: 0}
    for measure in all_measures().values():
        by_class[measure.measure_class] += 1
    assert by_class == {
        MeasureClass.VIOLATION: 4,
        MeasureClass.SHANNON: 5,
        MeasureClass.LOGICAL: 5,
    }


def test_shared_statistics_equal_direct_scoring():
    statistics = FdStatistics.compute(QUICKSTART, FD)
    for name, measure in all_measures().items():
        assert measure.score(QUICKSTART, FD) == measure.score_from_statistics(statistics), name


def test_register_measure_extends_iteration():
    base = get_measure("g3")

    class Doubled:
        name = "g3_copy"
        measure_class = base.measure_class

        def score_from_statistics(self, statistics):
            return base.score_from_statistics(statistics)

        def score(self, relation, fd, statistics=None):
            return base.score(relation, fd, statistics)

    try:
        register_measure("g3_copy", Doubled)
        measures = all_measures()
        assert list(measures)[:14] == list(MEASURE_ORDER)
        assert "g3_copy" in measures
        assert measures["g3_copy"].score(QUICKSTART, FD) == get_measure("g3").score(
            QUICKSTART, FD
        )
        assert measure_names() == list(MEASURE_ORDER)  # canonical list is unchanged
    finally:
        unregister_measure("g3_copy")
    assert "g3_copy" not in all_measures()


def test_canonical_names_cannot_be_overridden():
    with pytest.raises(ValueError):
        register_measure("mu_plus", lambda: None)
