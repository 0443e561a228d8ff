"""Tests of the TANE-style multi-attribute lattice discovery."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from oracle import UNREADABLE_CSVS, requires_numpy
from repro.core import FdStatistics
from repro.core.registry import subset
from repro.discovery import brute_force_afds, discover_afds
from repro.relation import FunctionalDependency, Relation

LATTICE_MEASURES = ("rho", "g2", "g3", "g3_prime", "g1", "g1_prime", "pdep", "tau", "mu_plus")


def lattice_measures():
    return subset(LATTICE_MEASURES)


def random_relation(seed, num_rows=30, attributes=("a", "b", "c", "d"), null_rate=0.0):
    rng = random.Random(seed)
    rows = []
    for _ in range(num_rows):
        row = []
        for position in range(len(attributes)):
            if null_rate and rng.random() < null_rate:
                row.append(None)
            else:
                row.append(rng.randint(0, 2 + position))
        rows.append(tuple(row))
    return Relation(attributes, rows, name=f"random-{seed}")


def wide_relation(num_rows=60, seed=3):
    """A 10-attribute relation with a key, exact chains and noisy columns."""
    rng = random.Random(seed)
    rows = []
    for index in range(num_rows):
        base = rng.randint(0, 9)
        derived = base % 4  # base -> derived holds exactly (non-key LHS)
        noisy = derived if rng.random() < 0.9 else rng.randint(0, 3)
        rows.append(
            (
                index,  # key
                base,
                derived,
                noisy,
                rng.randint(0, 2),
                rng.randint(0, 2),
                rng.randint(0, 4),
                rng.randint(0, 4),
                base % 3,
                rng.randint(0, 1),
            )
        )
    return Relation([f"a{i}" for i in range(10)], rows, name="wide")


# ----------------------------------------------------------------------
# Bit-identical cross-validation against brute force
# ----------------------------------------------------------------------
@pytest.mark.parametrize("null_rate", [0.0, 0.15])
def test_lattice_scores_match_brute_force(null_rate):
    """Property check: every lattice candidate scores bit-identically to a
    direct FdStatistics pass, with and without the NULL fall-through."""
    measures = lattice_measures()
    for seed in range(5):
        relation = random_relation(seed, null_rate=null_rate)
        lattice = discover_afds(relation, measures=measures, threshold=0.0, max_lhs_size=2)
        brute = brute_force_afds(relation, measures=measures, threshold=0.0, max_lhs_size=2)
        brute_by_fd = {candidate.fd: candidate for candidate in brute.candidates}
        assert lattice.candidates, "empty candidate grid"
        for candidate in lattice.candidates:
            reference = brute_by_fd[candidate.fd]
            assert candidate.scores == reference.scores, str(candidate.fd)
            assert candidate.exact == reference.exact, str(candidate.fd)


def test_lattice_candidate_grid_without_keys_is_exhaustive():
    relation = random_relation(1)  # 4 attributes, no keys at 30 rows
    result = discover_afds(relation, measures=lattice_measures(), threshold=0.0, max_lhs_size=2)
    # level 1: 4*3 ordered pairs; level 2: C(4,2)=6 LHS sets x 2 remaining RHS.
    assert result.counters["pruned_key"] == 0
    assert len(result.candidates) == 12 + 12
    lhs_sizes = {len(candidate.fd.lhs) for candidate in result.candidates}
    assert lhs_sizes == {1, 2}


def test_multi_attribute_candidates_flow_through_measures():
    relation = random_relation(2)
    result = discover_afds(relation, measures=lattice_measures(), threshold=0.0, max_lhs_size=3)
    deep = [candidate for candidate in result.candidates if len(candidate.fd.lhs) == 3]
    assert deep
    for candidate in deep:
        statistics = FdStatistics.compute(relation, candidate.fd)
        for name, measure in lattice_measures().items():
            assert candidate.scores[name] == measure.score_from_statistics(statistics)


# ----------------------------------------------------------------------
# Pruning
# ----------------------------------------------------------------------
def test_key_lhs_candidates_score_one_and_are_not_expanded():
    relation = wide_relation()
    result = discover_afds(relation, measures=lattice_measures(), threshold=0.0, max_lhs_size=2)
    assert result.counters["pruned_key"] >= 9  # the key column against every other attribute
    for candidate in result.candidates:
        if "a0" in candidate.fd.lhs:
            # a0 is a key: only level-1 candidates, all exact 1.0 — supersets
            # of a key are redundant and must not be generated.
            assert candidate.fd.lhs == ("a0",)
            assert candidate.exact
            assert all(score == 1.0 for score in candidate.scores.values())


def test_supersets_of_exact_lhs_are_pruned_and_score_one():
    relation = wide_relation()
    # a1 -> a2 holds exactly and a1 is not a key.
    assert relation.satisfies(FunctionalDependency("a1", "a2"))
    result = discover_afds(relation, measures=lattice_measures(), threshold=0.0, max_lhs_size=2)
    supersets = [
        candidate
        for candidate in result.candidates
        if candidate.fd.rhs == ("a2",) and "a1" in candidate.fd.lhs
    ]
    assert len(supersets) > 1  # the exact FD itself plus its augmentations
    for candidate in supersets:
        assert candidate.exact
        assert all(score == 1.0 for score in candidate.scores.values())


def test_statistics_counter_beats_brute_force_on_wide_relation():
    """Acceptance criterion: measurably fewer FdStatistics.compute calls."""
    relation = wide_relation()
    measures = subset(("g3",))
    compute_calls = {"lattice": 0}
    original = FdStatistics.compute.__func__

    def counting(cls, rel, fd):
        compute_calls["lattice"] += 1
        return original(cls, rel, fd)

    FdStatistics.compute = classmethod(counting)
    try:
        lattice = discover_afds(relation, measures=measures, threshold=0.0, max_lhs_size=2)
    finally:
        FdStatistics.compute = classmethod(original)
    brute = brute_force_afds(relation, measures=measures, threshold=0.0, max_lhs_size=2)
    # The counter reflects the real number of statistics passes...
    assert compute_calls["lattice"] == lattice.counters["statistics_computed"]
    # ...which beats one-pass-per-candidate brute force on both pool sizes.
    assert lattice.counters["statistics_computed"] < len(lattice.candidates)
    assert lattice.counters["statistics_computed"] < brute.counters["statistics_computed"]
    assert lattice.counters["pruned_exact"] > 0 and lattice.counters["pruned_key"] > 0
    # Identical scores wherever both enumerate the candidate.
    brute_by_fd = {candidate.fd: candidate for candidate in brute.candidates}
    for candidate in lattice.candidates:
        assert candidate.scores == brute_by_fd[candidate.fd].scores


def test_nulls_fall_through_to_statistics_path():
    relation = Relation(
        ["a", "b", "c"],
        [(1, "x", "u"), (1, "x", "u"), (2, None, "v"), (2, None, "v"), (3, "y", None)],
        name="nulls",
    )
    result = discover_afds(relation, threshold=0.0, max_lhs_size=2)
    # Exactness follows the NULL-restricted rows, whether a candidate was
    # scored from statistics or pruned as a superset of an exact LHS.
    for candidate in result.candidates:
        statistics = FdStatistics.compute(relation, candidate.fd)
        expected_exact = statistics.satisfied or statistics.is_empty
        assert candidate.exact == expected_exact, str(candidate.fd)


# ----------------------------------------------------------------------
# Facade and validation
# ----------------------------------------------------------------------
def test_max_lhs_size_one_reproduces_linear_search():
    relation = random_relation(5)
    linear = discover_afds(relation, measures=lattice_measures(), threshold=0.0)
    assert linear.max_lhs_size == 1
    assert all(len(candidate.fd.lhs) == 1 for candidate in linear.candidates)
    assert len(linear.candidates) == 12


def test_invalid_parameters_raise():
    relation = random_relation(6)
    with pytest.raises(ValueError):
        discover_afds(relation, max_lhs_size=0)
    with pytest.raises(ValueError):
        discover_afds(relation, max_lhs_size=-1)
    # A repeated attribute would enumerate every candidate twice.
    with pytest.raises(ValueError, match="'a'"):
        discover_afds(relation, lhs_attributes=["a", "a"], max_lhs_size=2)
    with pytest.raises(ValueError, match="'c'"):
        discover_afds(relation, rhs_attributes=["b", "c", "c"])
    with pytest.raises(KeyError, match="'z'"):
        discover_afds(relation, lhs_attributes=["a", "z"])


def test_brute_force_rejects_repeated_and_unknown_attributes():
    # The reference enumerates its pools like the engine: each attribute
    # once, every name known.
    relation = random_relation(6)
    with pytest.raises(ValueError, match="'a'"):
        brute_force_afds(relation, lhs_attributes=["a", "a"], max_lhs_size=2)
    with pytest.raises(ValueError, match="'c'"):
        brute_force_afds(relation, rhs_attributes=["b", "c", "c"])
    with pytest.raises(KeyError, match="'z'"):
        brute_force_afds(relation, lhs_attributes=["a", "z"])
    with pytest.raises(KeyError, match="'z'"):
        brute_force_afds(relation, rhs_attributes=["z"])


def test_lhs_restriction_bounds_the_lattice():
    relation = random_relation(7)
    result = discover_afds(
        relation,
        measures=lattice_measures(),
        threshold=0.0,
        max_lhs_size=2,
        lhs_attributes=["a", "b"],
        rhs_attributes=["c"],
    )
    lhs_sets = {candidate.fd.lhs for candidate in result.candidates}
    assert lhs_sets == {("a",), ("b",), ("a", "b")}


def test_counters_mapping_is_consistent():
    relation = wide_relation()
    result = discover_afds(relation, measures=subset(("g3",)), threshold=0.0, max_lhs_size=2)
    counters = result.counters
    assert counters["candidates"] == len(result.candidates)
    assert (
        counters["pruned_exact"] + counters["pruned_key"] + counters["statistics_computed"]
        == counters["candidates"]
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def discovery_main(argv):
    from repro.discovery.__main__ import main

    return main(argv)


def test_cli_json_on_csv_file(tmp_path, capsys):
    csv_path = tmp_path / "demo.csv"
    csv_path.write_text(
        "zip,city,country\n"
        "1000,Brussels,BE\n1000,Brussels,BE\n1000,Bruxelles,BE\n"
        "3590,Diepenbeek,BE\n75001,Paris,FR\n"
    )
    out_path = tmp_path / "result.json"
    exit_code = discovery_main(
        [
            str(csv_path),
            "--max-lhs-size",
            "2",
            "--threshold",
            "0.8",
            "--measures",
            "g3,mu_plus",
            "--output",
            str(out_path),
        ]
    )
    assert exit_code == 0
    payload = json.loads(out_path.read_text())
    assert payload["max_lhs_size"] == 2
    assert set(payload["accepted"]) == {"g3", "mu_plus"}
    accepted_g3 = {(tuple(fd["lhs"]), tuple(fd["rhs"])) for fd in payload["accepted"]["g3"]}
    assert (("zip",), ("country",)) in accepted_g3
    assert payload["counters"]["candidates"] == 9  # 6 linear + 3 level-2


@requires_numpy
def test_cli_csv_on_named_dataset(tmp_path):
    out_path = tmp_path / "accepted.csv"
    exit_code = discovery_main(
        [
            "--dataset",
            "R1",
            "--rows",
            "120",
            "--max-lhs-size",
            "2",
            "--measures",
            "g3",
            "--format",
            "csv",
            "--output",
            str(out_path),
        ]
    )
    assert exit_code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "measure,lhs,rhs,score,exact"
    assert len(lines) > 1


@requires_numpy
@pytest.mark.parametrize(
    "flags",
    [
        ["--rows", "0"],
        ["--rows", "-5"],
        ["--max-lhs-size", "0"],
        ["--sfi-alpha", "0"],
    ],
)
def test_cli_rejects_bad_flag_values_with_a_usage_error(flags, capsys):
    with pytest.raises(SystemExit) as excinfo:
        discovery_main(["--dataset", "R1", *flags])
    assert excinfo.value.code == 2
    assert f"argument {flags[0]}: must be" in capsys.readouterr().err


def test_cli_rejects_unknown_measures(tmp_path, capsys):
    csv_path = tmp_path / "demo.csv"
    csv_path.write_text("a,b\n1,2\n")
    exit_code = discovery_main([str(csv_path), "--measures", "nope"])
    assert exit_code == 2
    assert "unknown measures" in capsys.readouterr().err


def test_cli_skips_blank_lines(tmp_path):
    csv_path = tmp_path / "blank.csv"
    csv_path.write_text("a,b\n1,2\n\n3,4\n\n")
    out_path = tmp_path / "result.json"
    assert discovery_main([str(csv_path), "--output", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["num_rows"] == 2 and payload["counters"]["candidates"] == 2


@pytest.mark.parametrize("kind", UNREADABLE_CSVS)
def test_cli_unreadable_csv_is_a_usage_error(kind, tmp_path, capsys):
    csv_path = tmp_path / "input.csv"
    if UNREADABLE_CSVS[kind] is not None:
        csv_path.write_bytes(UNREADABLE_CSVS[kind])
    assert discovery_main([str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {csv_path}: ") and err.count("\n") == 1


def test_cli_reads_a_csv_without_numpy(tmp_path):
    # numpy blocked for the whole process: only the named RWD datasets need it.
    csv_path = tmp_path / "demo.csv"
    csv_path.write_text("a,b\n1,2\n1,3\n")
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from repro.discovery.__main__ import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    source = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", script, str(csv_path)],
        env=dict(os.environ, PYTHONPATH=source),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout)["counters"]["candidates"] == 2
