"""Tests of measure-based AFD discovery: the linear search and chunked sources."""

import pytest

from oracle import HAVE_NUMPY, KERNELS, kernel, requires_numpy
from repro.core import FdStatistics, all_measures
from repro.discovery import discover_afds
from repro.relation import FunctionalDependency, Relation

RELATION = Relation(
    ["zip", "city", "country"],
    [
        ("1000", "Brussels", "BE"),
        ("1000", "Brussels", "BE"),
        ("1000", "Bruxelles", "BE"),
        ("3590", "Diepenbeek", "BE"),
        ("75001", "Paris", "FR"),
    ],
    name="demo",
)


def test_candidate_grid_is_exhaustive():
    result = discover_afds(RELATION, threshold=0.0)
    assert len(result) == 6  # 3 attributes -> 3 * 2 ordered pairs
    fds = {str(candidate.fd) for candidate in result.candidates}
    assert "zip -> city" in fds and "city -> zip" in fds


def test_exact_fds_are_pruned_and_score_one():
    result = discover_afds(RELATION, threshold=0.0)
    exact = {str(fd) for fd in result.exact_fds()}
    assert exact == {"zip -> country", "city -> zip", "city -> country"}
    for candidate in result.candidates:
        if candidate.exact:
            assert all(score == 1.0 for score in candidate.scores.values())
    # Level 1 finds them through statistics; their supersets need none.
    deep = discover_afds(RELATION, threshold=0.0, max_lhs_size=2)
    pruned = [c for c in deep.candidates if len(c.fd.lhs) == 2 and c.exact]
    assert {(c.fd.lhs, c.fd.rhs) for c in pruned} == {
        (("city", "zip"), ("country",)),
        (("city", "country"), ("zip",)),
    }
    assert deep.counters["pruned_exact"] == len(pruned) == 2
    for candidate in pruned:
        assert all(score == 1.0 for score in candidate.scores.values())


def test_pruned_scores_match_direct_scoring():
    """Pruned candidates must agree with the full statistics path."""
    measures = all_measures()
    result = discover_afds(RELATION, measures=measures, threshold=0.0)
    for candidate in result.candidates:
        statistics = FdStatistics.compute(RELATION, candidate.fd)
        for name, measure in measures.items():
            assert candidate.scores[name] == measure.score_from_statistics(statistics), (
                str(candidate.fd),
                name,
            )


def test_threshold_filters_and_orders_candidates():
    result = discover_afds(RELATION, threshold=0.9)
    accepted = result.accepted("mu_plus")
    assert [str(candidate.fd) for candidate in accepted] == [
        "zip -> country",
        "city -> zip",
        "city -> country",
    ]
    scores = [candidate.scores["mu_plus"] for candidate in accepted]
    assert scores == sorted(scores, reverse=True)


def test_per_measure_thresholds():
    thresholds = {name: 1.1 for name in all_measures()}
    thresholds["g3"] = 0.7
    result = discover_afds(RELATION, threshold=thresholds)
    assert result.accepted_fds("mu_plus") == []  # nothing reaches 1.1
    assert FunctionalDependency("zip", "city") in result.accepted_fds("g3")


def test_missing_threshold_for_a_measure_raises():
    with pytest.raises(KeyError):
        discover_afds(RELATION, threshold={"g3": 0.5})


def test_lhs_rhs_restriction():
    result = discover_afds(RELATION, threshold=0.0, lhs_attributes=["zip"], rhs_attributes=["city"])
    assert [str(candidate.fd) for candidate in result.candidates] == ["zip -> city"]


def test_nulls_fall_back_to_paper_semantics():
    """Exactness is decided on the rows left after dropping NULLs."""
    relation = Relation(
        ["a", "b"],
        [("1", "x"), ("1", "x"), ("2", None), ("2", None)],
        name="nulls",
    )
    result = discover_afds(relation, threshold=0.0)
    candidate = next(c for c in result.candidates if str(c.fd) == "a -> b")
    # Under Section VI-A semantics the NULL tuples are dropped, so a -> b
    # is satisfied on the remaining rows and every measure scores 1.
    assert candidate.exact
    assert all(score == 1.0 for score in candidate.scores.values())
    assert result.counters["pruned_exact"] == 0  # decided by the statistics pass


def test_key_lhs_is_always_exact():
    relation = Relation(
        ["id", "payload"],
        [("1", "a"), ("2", "b"), ("3", "a")],
    )
    result = discover_afds(relation, threshold=0.5)
    candidate = next(c for c in result.candidates if str(c.fd) == "id -> payload")
    assert candidate.exact and candidate.scores["g3"] == 1.0


# ----------------------------------------------------------------------
# Discovery on chunked sources
# ----------------------------------------------------------------------
def _discovery_fingerprint(result):
    return [(str(c.fd), c.scores, c.exact) for c in result.candidates]


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_chunked_discovery_matches_materialised(kernel_name):
    from repro.discovery import brute_force_afds
    from repro.relation.chunked import ChunkedRelation

    sources = [(RELATION, 2)]
    if HAVE_NUMPY:
        from repro.rwd.datasets import build_dataset

        # The R3 stand-in in four chunks: the key encounter_id is pruned
        # without a statistics pass, and ward and clinic hold NULLs.
        sources.append((build_dataset("R3", num_rows=2_000, seed=0).relation, 512))
    for relation, chunk_size in sources:
        chunked = ChunkedRelation.from_relation(relation, chunk_size=chunk_size)
        with kernel(kernel_name):
            streamed = discover_afds(chunked, threshold=0.0)
            materialised = brute_force_afds(relation, threshold=0.0, max_lhs_size=1)
        assert _discovery_fingerprint(streamed) == _discovery_fingerprint(materialised)
        assert streamed.counters["candidates"] == materialised.counters["candidates"]
    # R3's key LHS: encounter_id -> each of its five other attributes.
    assert streamed.counters["pruned_key"] == (5 if HAVE_NUMPY else 0)


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_chunked_discovery_matches_lattice_with_nulls(kernel_name):
    from repro.relation.chunked import ChunkedRelation

    rows = [
        ("a", 1, None),
        ("a", 1, "x"),
        ("b", None, "y"),
        ("b", 2, "y"),
        (None, 2, "y"),
        ("c", 3, None),
    ]
    relation = Relation(("P", "Q", "R"), rows, name="nullish")
    chunked = ChunkedRelation.from_relation(relation, chunk_size=2)
    for depth in (1, 2, 3):
        with kernel(kernel_name):
            streamed = discover_afds(chunked, threshold=0.0, max_lhs_size=depth)
            materialised = discover_afds(relation, threshold=0.0, max_lhs_size=depth)
        assert _discovery_fingerprint(streamed) == _discovery_fingerprint(materialised)
        assert streamed.counters == materialised.counters


def test_discover_afds_routes_chunked_relations():
    from repro.relation.chunked import ChunkedRelation

    relation = RELATION
    chunked = ChunkedRelation.from_relation(relation, chunk_size=2)
    via_facade = discover_afds(chunked, threshold=0.0)
    direct = discover_afds(relation, threshold=0.0, max_lhs_size=1)
    assert _discovery_fingerprint(via_facade) == _discovery_fingerprint(direct)


@requires_numpy  # the RWD datasets need numpy
def test_discovery_cli_rfi_scores_equal_session_scores(tmp_path):
    """The CLI scores RFI+/RFI'+ exactly like the library: ``==``, not close."""
    import json

    from repro.discovery.__main__ import main
    from repro.rwd.datasets import build_dataset
    from repro.service.session import AfdSession

    path = tmp_path / "accepted.json"
    argv = ["--dataset", "R1", "--rows", "400", "--threshold", "0.0"]
    argv += ["--measures", "rfi_plus,rfi_prime_plus", "--output", str(path)]
    assert main(argv) == 0
    accepted = json.loads(path.read_text())["accepted"]
    session = AfdSession(build_dataset("R1", num_rows=400, seed=0).relation)
    checked = 0
    for measure in ("rfi_plus", "rfi_prime_plus"):
        for record in accepted[measure]:
            fd = FunctionalDependency(record["lhs"], record["rhs"])
            assert record["score"] == session.score(fd).scores[measure], (measure, fd)
            checked += 1
    assert checked > 0
