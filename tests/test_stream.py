"""The ``repro.stream`` subsystem: incremental maintenance parity.

The contract under test is the streaming analogue of the kernel
bit-identity contract: after *any* interleaving of appends and deletes,
:meth:`IncrementalFdStatistics.statistics` is ``==``-identical — same
count histograms and integer facts, same scores under all fourteen
measures — to a from-scratch ``FdStatistics.compute`` on the snapshot,
on every statistics kernel (``tests/oracle.py::kernel``).

The snapshot is a plain ``Relation``, encoded on its first statistics
pass like any other.  Random workloads include NULLs (the Section VI-A
fall-through), values never seen at construction, deletions of first
occurrences, and window evictions.  Every test also runs in the no-numpy
CI job.
"""

import json
import random
from typing import Optional

import pytest

from oracle import KERNELS, UNREADABLE_CSVS, kernel
from repro.core import all_measures
from repro.core.statistics import FdStatistics
from repro.relation import FunctionalDependency, Relation
from repro.stream import DynamicRelation

MEASURES = all_measures()


# ----------------------------------------------------------------------
# Random workload generation (pure ``random``: runs without numpy)
# ----------------------------------------------------------------------
def random_workload(seed: int, steps: int = 25, num_attributes: Optional[int] = None):
    """A dynamic relation plus a deterministic mutation script.

    Yields the dynamic relation after each mutation step.  Appended rows
    mix NULLs, skewed small domains, and *novel* values never seen at
    construction time (forcing the dynamic dictionary to grow).  The
    schema has 2 or 3 attributes as the seed draws, or
    ``num_attributes``; the draw happens either way, so a seed that
    draws ``num_attributes`` keeps its case.
    """
    rng = random.Random(seed)
    drawn = rng.randint(2, 3)
    attributes = ["A", "B", "C"][: num_attributes or drawn]
    novel = [0]

    def random_row():
        values = []
        for _ in attributes:
            roll = rng.random()
            if roll < 0.15:
                values.append(None)
            elif roll < 0.25:
                novel[0] += 1
                values.append(f"novel-{novel[0]}")
            else:
                values.append(rng.randint(0, 5))
        return tuple(values)

    initial = [random_row() for _ in range(rng.randint(0, 25))]
    window = rng.choice([None, None, rng.randint(5, 40)])
    dynamic = DynamicRelation(attributes, initial, name=f"stream-{seed}", window=window)

    def script():
        for _ in range(steps):
            if rng.random() < 0.6 or not dynamic.num_rows:
                dynamic.append([random_row() for _ in range(rng.randint(1, 5))])
            else:
                live = dynamic.live_ids()
                dynamic.delete(rng.sample(live, rng.randint(1, min(4, len(live)))))
            yield dynamic

    return dynamic, script()


def assert_statistics_identical(left: FdStatistics, right: FdStatistics) -> None:
    """``==`` and ``repr`` equality of the order-free statistics."""
    assert left == right
    assert repr(left) == repr(right)


def assert_tracker_matches_recompute(dynamic, tracker) -> None:
    """The tracker's statistics against ``compute`` on every kernel."""
    snapshot = dynamic.snapshot()
    for kernel_name in KERNELS:
        pristine = Relation(snapshot.attributes, snapshot.rows(), name=dynamic.name)
        with kernel(kernel_name):
            reference = FdStatistics.compute(pristine, tracker.fd)
        assert_statistics_identical(tracker.statistics(), reference)


def mutate_one_by_one(dynamic, tracker, script) -> None:
    """Apply ``script`` one mutation at a time, checking the tracker after each.

    An ``int`` deletes that row id; anything else is a row to append.
    """
    for step in script:
        if isinstance(step, int):
            dynamic.delete([step])
        else:
            dynamic.append([step])
        assert_tracker_matches_recompute(dynamic, tracker)


# ----------------------------------------------------------------------
# Incremental statistics parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(25))
def test_incremental_statistics_parity_under_interleavings(seed):
    dynamic, script = random_workload(seed)
    fd = FunctionalDependency(dynamic.attributes[:1], dynamic.attributes[-1])
    tracker = dynamic.track(fd)
    for step, _ in enumerate(script):
        incremental = tracker.statistics()
        snapshot = dynamic.snapshot()
        for kernel_name in KERNELS:
            # A fresh relation per kernel: each pass builds its own encoding,
            # so no cached full-tuple sum crosses from one kernel to the next.
            pristine = Relation(snapshot.attributes, snapshot.rows(), name=dynamic.name)
            with kernel(kernel_name):
                reference = FdStatistics.compute(pristine, fd)
            assert_statistics_identical(incremental, reference)
            for name, measure in MEASURES.items():
                assert measure.score_from_statistics(
                    incremental
                ) == measure.score_from_statistics(reference), (seed, step, kernel_name, name)


@pytest.mark.parametrize("seed", [3, 11])
def test_incremental_statistics_parity_multi_attribute_lhs(seed):
    dynamic, script = random_workload(seed, num_attributes=3)
    fd = FunctionalDependency(dynamic.attributes[:2], dynamic.attributes[-1])
    tracker = dynamic.track(fd)
    for _ in script:
        assert_tracker_matches_recompute(dynamic, tracker)


def test_null_fall_through_matches_restricted_compute():
    dynamic = DynamicRelation(["X", "Y"], [(None, 1), ("a", None), ("a", 1), ("a", 2)])
    tracker = dynamic.track(FunctionalDependency("X", "Y"))
    assert tracker.num_rows == 2  # NULL rows never enter the restricted counts
    dynamic.delete([0])  # deleting a NULL row must not touch the counts
    assert tracker.num_rows == 2
    reference = FdStatistics.compute(dynamic.snapshot(), FunctionalDependency("X", "Y"))
    assert_statistics_identical(tracker.statistics(), reference)


def test_first_occurrence_deletion_matches_recompute():
    """Deleting a key's first occurrence changes only its count."""
    dynamic = DynamicRelation(["X", "Y"], [("a", 1), ("b", 1), ("a", 2)])
    tracker = dynamic.track(FunctionalDependency("X", "Y"))
    dynamic.delete([0])
    statistics = tracker.statistics()
    assert statistics.xy_histogram == {1: 2}
    reference = FdStatistics.compute(dynamic.snapshot(), FunctionalDependency("X", "Y"))
    assert_statistics_identical(statistics, reference)


def test_vanished_key_reappears_like_recompute():
    dynamic = DynamicRelation(["X", "Y"], [("a", 1), ("a", 2), ("b", 1)])
    tracker = dynamic.track(FunctionalDependency("X", "Y"))
    mutate_one_by_one(dynamic, tracker, [0, 1])  # key a vanishes entirely
    assert tracker.statistics().x_histogram == {1: 1}
    # ... and reappears after b, with one y and then a second one.
    mutate_one_by_one(dynamic, tracker, [("a", 2), ("a", 2), ("a", 1)])
    assert tracker.statistics().group_squares == {(1, 1): 1, (5, 3): 1}


def test_tied_maximum_lowers_only_when_the_last_tie_drops():
    # x = a holds y = 1 and y = 2 twice each: max_y c_xy = 2, tied.
    dynamic = DynamicRelation(["X", "Y"], [("a", 1), ("a", 1), ("a", 2), ("a", 2), ("a", 3)])
    tracker = dynamic.track(FunctionalDependency("X", "Y"))
    assert tracker.statistics().max_subrelation == 2
    mutate_one_by_one(dynamic, tracker, [0])  # y = 2 still holds the maximum
    assert tracker.statistics().max_subrelation == 2
    mutate_one_by_one(dynamic, tracker, [2])  # now every y of a counts 1
    assert tracker.statistics().max_subrelation == 1
    mutate_one_by_one(dynamic, tracker, [("a", 3), ("a", 3), 4, 5, 6, 1, 3])
    assert tracker.num_rows == 0


def test_second_y_makes_x_violating_until_it_leaves():
    dynamic = DynamicRelation(["X", "Y"], [("a", 1), ("a", 1), ("b", 1)])
    tracker = dynamic.track(FunctionalDependency("X", "Y"))
    assert tracker.statistics().violating_tuples == 0
    mutate_one_by_one(dynamic, tracker, [("a", 2)])
    assert tracker.statistics().violating_tuples == 3
    mutate_one_by_one(dynamic, tracker, [("a", 3), 3])  # a third y comes and goes
    assert tracker.statistics().violating_tuples == 3
    mutate_one_by_one(dynamic, tracker, [4])
    assert tracker.statistics().violating_tuples == 0
    # The other way out: a's first y leaves and the second one stays.
    mutate_one_by_one(dynamic, tracker, [("a", 2), 0])
    assert tracker.statistics().violating_tuples == 2
    mutate_one_by_one(dynamic, tracker, [1])
    assert tracker.statistics().violating_tuples == 0


def test_duplicate_full_rows_count_in_tuple_square_sum():
    # Z is outside the FD, so duplicates of (X, Y) differ as full rows.
    rows = [("a", 1, "p"), ("a", 1, "p"), ("a", 1, "q"), ("a", 1, None)]
    dynamic = DynamicRelation(["X", "Y", "Z"], rows)
    tracker = dynamic.track(FunctionalDependency("X", "Y"))
    assert tracker.statistics().tuple_square_sum == 4 + 1 + 1
    mutate_one_by_one(dynamic, tracker, [("a", 1, "p"), ("a", 1, None), 0, 3])
    assert tracker.statistics().tuple_square_sum == 4 + 1 + 1
    mutate_one_by_one(dynamic, tracker, [1, 5])
    assert tracker.statistics().tuple_square_sum == 1 + 1


def test_rows_null_on_one_side_never_enter_the_counts():
    dynamic = DynamicRelation(["X", "W", "Y"], [("a", "w", 1)])
    fd = FunctionalDependency(["X", "W"], "Y")
    tracker = dynamic.track(fd)
    script = [
        (None, "w", 1),  # NULL on one LHS attribute
        ("a", None, 1),  # NULL on the other
        ("a", "w", None),  # NULL only on the RHS
        (None, None, None),
        ("a", "v", 2),  # not NULL anywhere: the one that counts
    ]
    mutate_one_by_one(dynamic, tracker, script)
    assert tracker.num_rows == 2
    mutate_one_by_one(dynamic, tracker, [1, 3, 2, 4])
    assert tracker.num_rows == 2


def test_tracker_enrolled_after_deletes_and_compaction():
    rows = [(i % 3, i % 2) for i in range(12)] + [(0, 0)] * 3
    dynamic = DynamicRelation(["X", "Y"], rows, compact_threshold=None)
    dynamic.delete([0, 1, 5, 12])
    after_deletes = dynamic.track(FunctionalDependency("X", "Y"))
    assert_tracker_matches_recompute(dynamic, after_deletes)
    dynamic.compact()
    after_compaction = dynamic.track(FunctionalDependency("Y", "X"))
    assert_tracker_matches_recompute(dynamic, after_compaction)
    for step in [(0, 0), (2, 1), 0, 3]:
        mutate_one_by_one(dynamic, after_deletes, [step])
        assert_tracker_matches_recompute(dynamic, after_compaction)


def test_code_table_growth_past_initial_dictionary():
    """Values never seen at construction must encode and score correctly."""
    dynamic = DynamicRelation(["X", "Y"], [(i % 4, i % 2) for i in range(20)])
    tracker = dynamic.track(FunctionalDependency("X", "Y"))
    dynamic.append([(f"fresh-{i}", i) for i in range(30)])  # all novel, both sides
    snapshot = dynamic.snapshot()
    reference = FdStatistics.compute(snapshot, FunctionalDependency("X", "Y"))
    assert_statistics_identical(tracker.statistics(), reference)
    assert snapshot.distinct_count("X") == 4 + 30
    assert snapshot.columnar().cardinality("X") == 4 + 30


# ----------------------------------------------------------------------
# Dynamic relation semantics
# ----------------------------------------------------------------------
def test_append_returns_ids_and_validates_arity():
    dynamic = DynamicRelation(["A", "B"])
    assert dynamic.append([(1, 2), (3, 4)]) == [0, 1]
    assert dynamic.append([(5, 6)]) == [2]
    with pytest.raises(ValueError, match="arity"):
        dynamic.append([(1, 2, 3)])


def test_delete_rejects_dead_or_unknown_ids():
    dynamic = DynamicRelation(["A"], [(1,), (2,)])
    dynamic.delete([0])
    with pytest.raises(KeyError):
        dynamic.delete([0])  # already dead
    with pytest.raises(KeyError):
        dynamic.delete([99])  # never assigned


def test_sliding_window_evicts_oldest_live_rows():
    dynamic = DynamicRelation(["A", "B"], [(i, i % 2) for i in range(5)], window=3)
    assert dynamic.snapshot().rows() == [(2, 0), (3, 1), (4, 0)]
    dynamic.append([(9, 1)])
    assert dynamic.snapshot().rows() == [(3, 1), (4, 0), (9, 1)]
    # Eviction goes through the delete path, so trackers observe it.
    fd = FunctionalDependency("A", "B")
    tracker = dynamic.track(fd)
    dynamic.append([(3, 0), (3, 1)])
    assert dynamic.snapshot().rows() == [(9, 1), (3, 0), (3, 1)]
    assert_statistics_identical(
        tracker.statistics(), FdStatistics.compute(dynamic.snapshot(), fd)
    )


def test_window_rejects_nonpositive_sizes():
    with pytest.raises(ValueError, match="window"):
        DynamicRelation(["A"], window=0)


def test_snapshot_is_cached_until_mutation():
    dynamic = DynamicRelation(["A"], [(1,)])
    first = dynamic.snapshot()
    assert dynamic.snapshot() is first
    dynamic.append([(2,)])
    second = dynamic.snapshot()
    assert second is not first
    # The old snapshot is immutable history, not a stale view.
    assert first.rows() == [(1,)]
    assert second.rows() == [(1,), (2,)]


def test_snapshot_encodes_on_its_first_statistics_pass():
    dynamic = DynamicRelation(["A", "B"], [(1, "x"), (2, "x"), (None, "y")])
    snapshot = dynamic.snapshot()
    assert snapshot._encoding is None  # the store keeps no encoding of its own
    FdStatistics.compute(snapshot, FunctionalDependency("A", "B"))
    encoding = snapshot._encoding
    assert encoding is snapshot.columnar() and encoding.null_count("A") == 1
    dynamic.append([(3, "y")])
    assert dynamic.snapshot()._encoding is None
    assert encoding.num_rows == 3  # the old snapshot keeps its own encoding


# ----------------------------------------------------------------------
# Stale-cache guard
# ----------------------------------------------------------------------
def test_relation_invalidate_caches_prevents_stale_reads():
    relation = Relation(["A", "B"], [("x", 1), ("y", 2)])
    assert relation.frequencies("A")[("x",)] == 1
    assert relation.columnar().num_rows == 2
    # In-place mutation of the row store (the documented hazard): the
    # cached frequencies and encoding now answer for the old rows.
    relation._rows.append(("x", 3))
    assert relation.frequencies("A")[("x",)] == 1  # stale read!
    relation.invalidate_caches()
    assert relation.frequencies("A")[("x",)] == 2
    assert relation.distinct_count("B") == 3
    assert relation.columnar().num_rows == 3


def test_dynamic_relation_owns_its_store():
    """Mutating the dynamic view must never reach the source relation."""
    source = Relation(["A", "B"], [("x", 1), ("y", 2)], name="src")
    source.frequencies("A")
    source.columnar()
    dynamic = DynamicRelation.from_relation(source)
    dynamic.append([("z", 3)])
    dynamic.delete([0])
    assert source.rows() == [("x", 1), ("y", 2)]
    assert source.frequencies("A")[("x",)] == 1  # source caches still valid
    assert source.columnar().num_rows == 2
    assert dynamic.snapshot().rows() == [("y", 2), ("z", 3)]


# ----------------------------------------------------------------------
# Tracker registration
# ----------------------------------------------------------------------
def test_tracked_fd_validates_attributes():
    dynamic = DynamicRelation(["A", "B"], [(1, 2)])
    with pytest.raises(KeyError):
        dynamic.track(FunctionalDependency("A", "missing"))


def test_untrack_stops_delta_delivery():
    dynamic = DynamicRelation(["A", "B"], [(1, 2)])
    tracker = dynamic.track(FunctionalDependency("A", "B"))
    dynamic.untrack(tracker)
    dynamic.append([(3, 4)])
    assert tracker.num_rows == 1  # frozen at untrack time


# ----------------------------------------------------------------------
# Monitoring CLI
# ----------------------------------------------------------------------
def test_stream_cli_monitors_csv(tmp_path, capsys):
    from repro.stream.__main__ import main

    csv_path = tmp_path / "stream.csv"
    rows = ["A,B"] + [f"{i % 3},{i % 2}" for i in range(40)]
    csv_path.write_text("\n".join(rows) + "\n")
    exit_code = main(
        [
            str(csv_path),
            "--fd",
            "A -> B",
            "--batch-size",
            "10",
            "--window",
            "25",
            "--measures",
            "g3,mu_plus",
            "--verify",
        ]
    )
    assert exit_code == 0
    out_lines = [
        line for line in capsys.readouterr().out.splitlines() if line.startswith("{")
    ]
    assert len(out_lines) == 4  # seed batch + 3 streamed batches
    for line in out_lines:
        record = json.loads(line)
        assert record["verified"] is True
        assert set(record["scores"]) == {"g3", "mu_plus"}
        assert record["live_rows"] <= 25


def test_stream_cli_verify_checks_fields_no_selected_measure_reads(
    tmp_path, capsys, monkeypatch
):
    """g3 reads only ``num_rows`` and ``max_subrelation``: a wrong
    ``y_histogram`` leaves its score right but must still fail ``--verify``."""
    from repro.stream.__main__ import main
    from repro.stream.statistics import IncrementalFdStatistics

    honest = IncrementalFdStatistics.statistics

    def wrong_y_histogram(self):
        statistics = honest(self)
        statistics.y_histogram = {**statistics.y_histogram, 1000: 1}
        return statistics

    monkeypatch.setattr(IncrementalFdStatistics, "statistics", wrong_y_histogram)
    csv_path = tmp_path / "stream.csv"
    csv_path.write_text("A,B\n" + "".join(f"{i % 3},{i % 2}\n" for i in range(40)))
    exit_code = main(
        [str(csv_path), "--fd", "A -> B", "--batch-size", "10", "--measures", "g3", "--verify"]
    )
    assert exit_code == 1
    assert "fields ['y_histogram']" in capsys.readouterr().err


def test_stream_cli_rejects_unknown_fd_attribute(tmp_path, capsys):
    from repro.stream.__main__ import main

    csv_path = tmp_path / "stream.csv"
    csv_path.write_text("A,B\n1,2\n")
    assert main([str(csv_path), "--fd", "A -> missing"]) == 2
    assert "unknown attribute" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--window", "0"], ["--rows", "0"], ["--sfi-alpha", "0"], ["--initial", "-1"]],
)
def test_stream_cli_rejects_bad_flag_values_with_a_usage_error(flags, tmp_path, capsys):
    from repro.stream.__main__ import main

    csv_path = tmp_path / "stream.csv"
    csv_path.write_text("A,B\n1,2\n")
    with pytest.raises(SystemExit) as excinfo:
        main([str(csv_path), "--fd", "A -> B", *flags])
    assert excinfo.value.code == 2
    assert f"argument {flags[0]}: must be" in capsys.readouterr().err


def test_stream_cli_validates_batch_size_and_measures(tmp_path, capsys):
    from repro.stream.__main__ import main

    csv_path = tmp_path / "stream.csv"
    csv_path.write_text("A,B\n1,2\n")
    with pytest.raises(SystemExit) as excinfo:
        main([str(csv_path), "--fd", "A -> B", "--batch-size", "0"])
    assert excinfo.value.code == 2
    assert "argument --batch-size: must be" in capsys.readouterr().err
    assert main([str(csv_path), "--fd", "A -> B", "--measures", "nope"]) == 2
    assert "unknown measures" in capsys.readouterr().err


@pytest.mark.parametrize("kind", UNREADABLE_CSVS)
def test_stream_cli_unreadable_csv_is_a_usage_error(kind, tmp_path, capsys):
    from repro.stream.__main__ import main

    csv_path = tmp_path / "input.csv"
    if UNREADABLE_CSVS[kind] is not None:
        csv_path.write_bytes(UNREADABLE_CSVS[kind])
    assert main([str(csv_path), "--fd", "a -> b"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {csv_path}: ") and err.count("\n") == 1


# ----------------------------------------------------------------------
# History compaction
# ----------------------------------------------------------------------
def mirrored_mutation_script(seed, compacting, plain, steps=30):
    """Apply an identical mutation script to both stores, yielding per step.

    Deletions are drawn by *position* in the live order (ids diverge once
    the compacting store rebases), so both stores always see the same
    logical mutations.
    """
    rng = random.Random(seed)

    def random_row(attributes):
        return tuple(
            None if rng.random() < 0.15 else rng.choice(["x", "y", "z", "w"])
            for _ in attributes
        )

    for _ in range(steps):
        if rng.random() < 0.7 or not plain.num_rows:
            rows = [random_row(plain.attributes) for _ in range(rng.randint(1, 15))]
            compacting.append(rows)
            plain.append(rows)
        else:
            count = rng.randint(1, min(4, plain.num_rows))
            positions = rng.sample(range(plain.num_rows), count)
            compacting_ids, plain_ids = compacting.live_ids(), plain.live_ids()
            compacting.delete([compacting_ids[p] for p in positions])
            plain.delete([plain_ids[p] for p in positions])
        yield


@pytest.mark.parametrize("seed", range(8))
def test_compaction_parity_with_uncompacted_store(seed):
    attributes = ["A", "B"]
    fd = FunctionalDependency("A", "B")
    compacting = DynamicRelation(
        attributes, window=40, compact_threshold=0.5, compact_min=48
    )
    plain = DynamicRelation(attributes, window=40, compact_threshold=None)
    tracker_c, tracker_p = compacting.track(fd), plain.track(fd)
    for _ in mirrored_mutation_script(seed, compacting, plain):
        assert_statistics_identical(tracker_c.statistics(), tracker_p.statistics())
        assert compacting.snapshot() == plain.snapshot()
        reference = FdStatistics.compute(
            Relation(attributes, compacting.snapshot().rows()), fd
        )
        for name, measure in MEASURES.items():
            assert measure.score_from_statistics(
                tracker_c.statistics()
            ) == measure.score_from_statistics(reference), (seed, name)
    assert compacting.compactions > 0, "workload never triggered a compaction"
    assert plain.compactions == 0
    assert len(compacting._all_rows) < len(plain._all_rows)


def test_windowed_stream_memory_stays_bounded():
    dynamic = DynamicRelation(
        ["A"], window=20, compact_threshold=0.5, compact_min=32
    )
    high_water = 0
    for index in range(500):
        dynamic.append([(index % 7,)])
        high_water = max(high_water, len(dynamic._all_rows))
    # Without compaction the store would hold all 500 appended rows; with
    # threshold 0.5 it can never exceed ~2x the live window (+ batch).
    assert dynamic.num_rows == 20
    assert high_water <= 64
    assert dynamic.compactions > 0
    assert dynamic.tombstone_fraction <= 0.5 + 1e-9


def test_explicit_compact_rebases_ids_and_keeps_trackers_correct():
    fd = FunctionalDependency("A", "B")
    dynamic = DynamicRelation(["A", "B"], [(i, i % 3) for i in range(10)],
                              compact_threshold=None)
    tracker = dynamic.track(fd)
    dynamic.delete([0, 2, 4, 6])
    surviving_rows = [dynamic.row(row_id) for row_id in dynamic.live_ids()]
    mapping = dynamic.compact()
    assert dynamic.compactions == 1
    assert dynamic.live_ids() == list(range(6))
    assert [dynamic.row(row_id) for row_id in dynamic.live_ids()] == surviving_rows
    assert sorted(mapping.values()) == list(range(6))
    assert_statistics_identical(
        tracker.statistics(),
        FdStatistics.compute(Relation(["A", "B"], dynamic.snapshot().rows()), fd),
    )
    # New appends continue with fresh ids above the compacted range.
    (new_id,) = dynamic.append([(99, 99)])
    assert new_id == 6
    assert tracker.statistics().num_rows == 7


def test_compact_of_emptied_store_then_append():
    dynamic = DynamicRelation(["A"], [(1,), (2,)], compact_threshold=None)
    dynamic.delete(dynamic.live_ids())
    assert dynamic.compact() == {}
    assert dynamic.num_rows == 0
    assigned = dynamic.append([(7,), (8,)])
    assert assigned == [0, 1]
    assert dynamic.snapshot().rows() == [(7,), (8,)]


def test_append_remaps_returned_ids_across_compaction():
    dynamic = DynamicRelation(
        ["A"], window=4, compact_threshold=0.5, compact_min=8
    )
    assigned = dynamic.append([(value,) for value in range(12)])
    # The last `window` appended rows survive; their returned ids were
    # re-based through the compaction mapping and still name those rows.
    surviving = assigned[-4:]
    assert surviving == dynamic.live_ids()
    assert [dynamic.row(row_id) for row_id in surviving] == [(8,), (9,), (10,), (11,)]
    assert dynamic.compactions > 0


def test_total_delete_churn_with_compaction_off_keeps_ids_stable():
    """25 batches of 16 appends and 16 deletes on 300 rows, compaction off.

    The dead history passes the default compaction threshold, yet every
    id taken from the append order names the same row until deleted;
    one novel X value per batch grows the code tables, and every tracker
    stays ``==`` a recompute after each batch.
    """
    rng = random.Random(97)
    rows = [(rng.randrange(20), rng.randrange(5)) for _ in range(300)]
    dynamic = DynamicRelation(["X", "Y"], rows, compact_threshold=None)
    trackers = [
        dynamic.track(FunctionalDependency("X", "Y")),
        dynamic.track(FunctionalDependency("Y", "X")),
    ]
    live = list(range(len(rows)))
    for batch in range(25):
        appends = [(f"novel-{batch}", rng.randrange(5))]
        appends += [(rng.randrange(20), rng.randrange(5)) for _ in range(15)]
        next_id = len(rows)
        assert dynamic.append(appends) == list(range(next_id, next_id + 16))
        rows += appends
        live += range(next_id, next_id + 16)
        deletes = [live.pop(rng.randrange(len(live))) for _ in range(16)]
        dynamic.delete(deletes)
        for tracker in trackers:
            assert_tracker_matches_recompute(dynamic, tracker)
        assert dynamic.snapshot().rows() == [rows[row_id] for row_id in sorted(live)]
    assert dynamic.compactions == 0
    assert dynamic.tombstone_fraction > 0.5


def test_compaction_configuration_validation():
    with pytest.raises(ValueError):
        DynamicRelation(["A"], compact_threshold=0.0)
    with pytest.raises(ValueError):
        DynamicRelation(["A"], compact_threshold=1.5)
    disabled = DynamicRelation(["A"], [(1,)] * 10, window=2, compact_threshold=None,
                               compact_min=4)
    assert disabled.compactions == 0
    assert disabled.tombstone_fraction == 0.8


