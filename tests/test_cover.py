"""Minimal-cover reduction of discovered AFD sets."""

from oracle import kernel
from repro.discovery import DiscoveryResult, discover_afds, minimal_cover
from repro.discovery.cover import is_implied, minimal_exact_lhs_sets
from repro.relation import FunctionalDependency, Relation
from repro.service import ScoredFd


def make_result(candidates):
    names = ["g3"]
    return DiscoveryResult(
        relation="t",
        measure_names=names,
        thresholds={"g3": 0.5},
        candidates=candidates,
        counters={"candidates": len(candidates)},
        max_lhs_size=2,
    )


def candidate(lhs, rhs, score=1.0, exact=False):
    fd = FunctionalDependency(lhs, rhs)
    return ScoredFd(fd.lhs, fd.rhs, {"g3": score}, exact=exact)


def test_minimal_cover_drops_superset_of_exact_lhs():
    exact = candidate(["A"], "C", exact=True)
    implied = candidate(["A", "B"], "C", exact=True)
    other = candidate(["B"], "C", score=0.7, exact=False)
    reduced = minimal_cover(make_result([exact, implied, other]))
    assert [c.fd for c in reduced.candidates] == [exact.fd, other.fd]
    assert reduced.counters == {"candidates": 2, "dropped_non_minimal": 1}


def test_minimal_cover_keeps_unrelated_rhs():
    exact = candidate(["A"], "C", exact=True)
    different_rhs = candidate(["A", "B"], "D", exact=True)
    reduced = minimal_cover(make_result([exact, different_rhs]))
    assert len(reduced.candidates) == 2
    assert reduced.counters["dropped_non_minimal"] == 0


def test_minimal_cover_never_drops_approximate_candidates():
    approx = candidate(["A", "B"], "C", score=0.8, exact=False)
    reduced = minimal_cover(make_result([candidate(["D"], "C", exact=True), approx]))
    assert approx in reduced.candidates


def test_minimal_cover_is_idempotent():
    result = make_result(
        [
            candidate(["A"], "C", exact=True),
            candidate(["A", "B"], "C", exact=True),
            candidate(["B", "D"], "C", exact=True),
        ]
    )
    once = minimal_cover(result)
    twice = minimal_cover(once)
    assert [c.fd for c in once.candidates] == [c.fd for c in twice.candidates]
    assert twice.counters == once.counters


def test_minimal_exact_lhs_sets_keeps_only_inclusion_minimal():
    sets = minimal_exact_lhs_sets(
        [
            candidate(["A", "B"], "C", exact=True),
            candidate(["A"], "C", exact=True),  # subsumes {A, B}
            candidate(["D"], "C", exact=True),
        ]
    )
    assert sets[("C",)] == [frozenset({"A"}), frozenset({"D"})]
    assert not is_implied(candidate(["A"], "C", exact=True), sets)
    assert is_implied(candidate(["A", "E"], "C"), sets)


def test_minimal_cover_on_real_lattice_result():
    """End to end: B -> C holds exactly with a non-key B, so every
    B-superset LHS for RHS C is generated, marked exact, and implied."""
    rows = [(i % 6, i % 4, (i % 4) % 2, i % 3) for i in range(12)]
    relation = Relation(["A", "B", "C", "D"], rows)
    with kernel("python"):
        result = discover_afds(relation, threshold=0.0, max_lhs_size=2)
    reduced = minimal_cover(result)
    dropped = reduced.counters["dropped_non_minimal"]
    assert dropped > 0
    assert reduced.counters == dict(
        result.counters, candidates=len(reduced.candidates), dropped_non_minimal=dropped
    )
    assert len(reduced.candidates) + dropped == len(result.candidates)
    implied_fd = FunctionalDependency(["A", "B"], "C")
    assert implied_fd in {c.fd for c in result.candidates}
    assert implied_fd not in {c.fd for c in reduced.candidates}
    # Survivors are pairwise minimal: no exact survivor implies another.
    exact_by_rhs = {}
    for c in reduced.candidates:
        if c.exact:
            exact_by_rhs.setdefault(c.fd.rhs, []).append(frozenset(c.fd.lhs))
    for c in reduced.candidates:
        lhs = frozenset(c.fd.lhs)
        for exact in exact_by_rhs.get(c.fd.rhs, []):
            assert not exact < lhs, c.fd
    # Reduction preserves scores of the survivors verbatim.
    original = {c.fd: c.scores for c in result.candidates}
    for c in reduced.candidates:
        assert c.scores == original[c.fd]


def test_discovery_cli_minimal_cover_flag(tmp_path, capsys):
    from repro.discovery.__main__ import main

    csv_path = tmp_path / "data.csv"
    lines = ["A,B,C,D"] + [f"{i % 6},{i % 4},{(i % 4) % 2},{i % 3}" for i in range(12)]
    csv_path.write_text("\n".join(lines) + "\n")
    base = [str(csv_path), "--max-lhs-size", "2", "--measures", "g3", "--threshold", "0.0"]

    import json

    assert main(base + ["--output", str(tmp_path / "full.json")]) == 0
    assert main(base + ["--minimal-cover", "--output", str(tmp_path / "reduced.json")]) == 0
    full = json.loads((tmp_path / "full.json").read_text())
    reduced = json.loads((tmp_path / "reduced.json").read_text())
    assert reduced["counters"]["dropped_non_minimal"] > 0
    assert (
        len(reduced["accepted"]["g3"])
        == len(full["accepted"]["g3"]) - reduced["counters"]["dropped_non_minimal"]
    )
    assert "minimal cover dropped" in capsys.readouterr().err
