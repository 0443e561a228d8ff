"""The ``repro.service`` front door: model, session, server, dispatcher.

Contracts under test:

* the typed result model round-trips losslessly through its JSON
  schemas and rejects malformed payloads;
* ``AfdSession.score`` / ``discover`` / ``apply_delta`` are
  ``==``-identical to the legacy direct-call paths
  (``FdStatistics.compute`` + ``score_from_statistics``,
  ``discover_afds``, from-scratch recompute on the snapshot) on both
  statistics kernels (``tests/oracle.py::kernel``);
* the session's artifact caches are shared — across calls, across
  discovery-then-score, and across concurrent threads, with the
  ``repro.obs`` hit/miss counters proving it;
* the HTTP server serves the same numbers over ``urllib`` on the
  versioned ``/v1`` routes (the only routes; ``{name}`` is
  percent-decoded) and fails with the
  ``{"error": {"code", "message", "detail"}}`` envelope
  (400/404/405/409/413) on bad input;
* ``python -m repro`` dispatches to the subsystem CLIs.

Sharded serving (``--workers N``) is covered in ``test_shard.py``.

Tests that need numpy are marked; the remainder also run in the
no-numpy CI job.
"""

import json
import random
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from oracle import KERNELS, kernel, requires_numpy
from repro.core import all_measures
from repro.core.statistics import FdStatistics
from repro.discovery import discover_afds, minimal_cover
from repro.obs.metrics import get_registry
from repro.relation import FunctionalDependency, Relation
from repro.service import (
    ERROR_CODES,
    AfdSession,
    BatchScoreRequest,
    BatchScoreResult,
    DiscoveryResult,
    ProfileRequest,
    ProfileResult,
    ScoredFd,
    ServiceError,
    StreamUpdate,
    record_from_dict,
    stable_view,
)
from repro.service.server import (
    ROUTES,
    ServiceState,
    make_server,
    make_sharded_server,
    match_route,
)
from repro.stream import DynamicRelation

MEASURES = all_measures()


def small_relation(name="demo"):
    return Relation(
        ["zip", "city", "street"],
        [
            ("1000", "Brussels", "a"),
            ("1000", "Brussels", "b"),
            ("1000", "Bruxelles", "a"),
            ("3590", "Diepenbeek", "c"),
            ("3590", "Diepenbeek", "c"),
            (None, "X", "d"),
        ],
        name=name,
    )


def random_relation(seed, rows=60):
    rng = random.Random(seed)
    data = [
        (
            rng.choice(["x", "y", "z", None]),
            rng.choice(["p", "q", "r"]),
            rng.randrange(6),
        )
        for _ in range(rows)
    ]
    return Relation(["A", "B", "C"], data, name=f"rand{seed}")


# ----------------------------------------------------------------------
# Result model: JSON round-trips and validation
# ----------------------------------------------------------------------
def test_profile_request_round_trip():
    request = ProfileRequest(FunctionalDependency(("a", "b"), "c"), measures=("g3",))
    rebuilt = ProfileRequest.from_dict(json.loads(json.dumps(request.to_dict())))
    assert rebuilt == request
    assert record_from_dict(request.to_dict()) == request


def test_profile_request_accepts_text_fd():
    request = ProfileRequest.from_dict({"fd": "a, b -> c"})
    assert request.fd == FunctionalDependency(("a", "b"), "c")
    assert request.measures is None


def test_profile_request_rejects_bad_payloads():
    with pytest.raises(ValueError):
        ProfileRequest.from_dict({})
    with pytest.raises(ValueError):
        ProfileRequest.from_dict({"fd": {"lhs": ["a"]}})
    with pytest.raises(ValueError):
        ProfileRequest.from_dict({"fd": "a -> b", "measures": "g3"})
    with pytest.raises(ValueError):
        ProfileRequest.from_dict({"fd": "a -> b", "kind": "stream_update"})


def test_scored_fd_round_trip():
    scored = ScoredFd(lhs=("a",), rhs=("b",), scores={"g3": 0.5}, exact=False)
    assert ScoredFd.from_dict(json.loads(json.dumps(scored.to_dict()))) == scored
    assert scored.fd == FunctionalDependency("a", "b")


def test_profile_result_round_trip():
    result = ProfileResult(
        relation="t",
        num_rows=10,
        scored=ScoredFd(lhs=("a",), rhs=("b",), scores={"g3": 1.0}, exact=True),
        runtimes={"g3": 0.001},
        statistics_seconds=0.01,
        cache_hit=True,
        epoch=3,
    )
    rebuilt = ProfileResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert rebuilt == result


def test_stream_update_round_trip():
    update = StreamUpdate(
        relation="t",
        epoch=2,
        live_rows=5,
        inserted=3,
        deleted=1,
        scores={"a -> b": {"g3": 0.5}},
        restricted_rows={"a -> b": 4},
        seconds=0.001,
    )
    assert StreamUpdate.from_dict(json.loads(json.dumps(update.to_dict()))) == update


def test_record_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        record_from_dict({"kind": "mystery"})
    with pytest.raises(ValueError):
        record_from_dict(["not", "a", "mapping"])


def test_batch_score_records_round_trip():
    batch = BatchScoreRequest(
        requests=(
            ProfileRequest(FunctionalDependency("a", "b")),
            ProfileRequest(FunctionalDependency("b", "c"), measures=("g3",)),
        )
    )
    rebuilt = BatchScoreRequest.from_dict(json.loads(json.dumps(batch.to_dict())))
    assert rebuilt == batch and len(rebuilt) == 2
    assert record_from_dict(batch.to_dict()) == batch
    with pytest.raises(ValueError):
        BatchScoreRequest(requests=())
    with pytest.raises(ValueError):
        BatchScoreRequest.from_dict({"kind": "batch_score_request", "requests": "nope"})

    result = BatchScoreResult(
        relation="t",
        results=[
            ProfileResult(
                relation="t",
                num_rows=3,
                scored=ScoredFd(lhs=("a",), rhs=("b",), scores={"g3": 1.0}, exact=True),
            )
        ],
        distinct=1,
        epoch=2,
    )
    rebuilt_result = BatchScoreResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert rebuilt_result == result and len(rebuilt_result) == 1
    assert record_from_dict(result.to_dict()) == result


def test_service_error_envelope_contract():
    error = ServiceError("unknown_relation", "no such thing", detail={"relation": "x"})
    assert error.status == 404
    envelope = error.envelope()
    assert envelope == {
        "error": {
            "code": "unknown_relation",
            "message": "no such thing",
            "detail": {"relation": "x"},
        }
    }
    rebuilt = ServiceError.from_envelope(json.loads(json.dumps(envelope)))
    assert (rebuilt.code, rebuilt.message, rebuilt.detail) == (
        error.code, error.message, error.detail,
    )
    with pytest.raises(ValueError):
        ServiceError("no_such_code", "boom")
    # Every documented code maps to a concrete HTTP status.
    assert all(isinstance(ServiceError(code, "x").status, int) for code in ERROR_CODES)


def test_stable_view_strips_volatile_fields():
    payload = {
        "scores": {"g3": 0.5},
        "runtimes": {"g3": 0.001},
        "statistics_seconds": 0.2,
        "cache_hit": True,
        "nested": [{"seconds": 1.0, "epoch": 3}],
    }
    assert stable_view(payload) == {"scores": {"g3": 0.5}, "nested": [{"epoch": 3}]}


def test_discovery_result_round_trip_and_views():
    session = AfdSession(small_relation(), measures=MEASURES)
    result = session.discover(threshold=0.5, max_lhs_size=2)
    rebuilt = DiscoveryResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert rebuilt.candidates == result.candidates
    assert rebuilt.counters == result.counters
    for measure in ("g3", "mu_plus"):
        assert [s.fd for s in rebuilt.accepted(measure)] == [
            s.fd for s in result.accepted(measure)
        ]
    assert rebuilt.exact_fds() == result.exact_fds()
    assert len(rebuilt) == len(result)


# ----------------------------------------------------------------------
# AfdSession: bit-identity with the direct call paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_name", KERNELS)
def test_score_matches_direct_path(kernel_name):
    relation = random_relation(1)
    fd = FunctionalDependency("A", "B")
    session = AfdSession(relation, measures=MEASURES)
    with kernel(kernel_name):
        result = session.score(fd)
        statistics = FdStatistics.compute(random_relation(1), fd)
    direct = {
        name: measure.score_from_statistics(statistics)
        for name, measure in MEASURES.items()
    }
    assert result.scores == direct
    assert result.relation == relation.name
    assert result.num_rows == relation.num_rows
    assert not result.cache_hit
    assert set(result.runtimes) == set(MEASURES)


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_discover_matches_discover_afds(kernel_name):
    relation = random_relation(2)
    session = AfdSession(relation, measures=MEASURES)
    with kernel(kernel_name):
        result = session.discover(threshold=0.7, max_lhs_size=2)
        reference = discover_afds(
            random_relation(2), measures=MEASURES, threshold=0.7, max_lhs_size=2
        )
    assert [(c.fd, c.scores, c.exact) for c in result.candidates] == [
        (c.fd, c.scores, c.exact) for c in reference.candidates
    ]
    assert result.counters == reference.counters()


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_chunked_session_discover_matches_relation_discover(kernel_name):
    from repro.relation.chunked import ChunkedRelation

    store = ChunkedRelation.from_relation(random_relation(5), chunk_size=7)
    session = AfdSession(store, measures=MEASURES)
    # A chunked session has no row list; discovery must not ask for one.
    with pytest.raises(ValueError, match="chunked"):
        session.relation
    with kernel(kernel_name):
        result = session.discover(threshold=0.5)
        reference = discover_afds(store.to_relation(), measures=MEASURES, threshold=0.5)
        assert result == DiscoveryResult.from_discovery(reference)
        # The session kept every statistics pass: a rerun computes none.
        again = session.discover(threshold=0.5)
        assert again.candidates == result.candidates
        assert again.counters["statistics_computed"] == 0
        # Multi-attribute LHSs on a chunked store, counters included.
        deep = AfdSession(store, measures=MEASURES).discover(threshold=0.5, max_lhs_size=2)
        reference = discover_afds(
            store.to_relation(), measures=MEASURES, threshold=0.5, max_lhs_size=2
        )
    assert deep == DiscoveryResult.from_discovery(reference)
    assert any(len(candidate.lhs) == 2 for candidate in deep.candidates)


def test_minimal_cover_matches_cover_reduction():
    relation = small_relation()
    session = AfdSession(relation, measures=MEASURES)
    session.discover(threshold=0.9, max_lhs_size=2)
    reduced = session.minimal_cover()
    reference = minimal_cover(
        discover_afds(small_relation(), measures=MEASURES, threshold=0.9, max_lhs_size=2)
    )
    assert [(c.fd, c.exact) for c in reduced.candidates] == [
        (c.fd, c.exact) for c in reference.candidates
    ]
    assert reduced.counters["dropped_non_minimal"] == reference.dropped_non_minimal


def test_minimal_cover_without_discovery_raises():
    session = AfdSession(small_relation(), measures=MEASURES)
    with pytest.raises(ValueError):
        session.minimal_cover()


def test_score_accepts_text_and_request_forms():
    session = AfdSession(small_relation(), measures=MEASURES)
    by_text = session.score("zip -> city")
    by_fd = session.score(FunctionalDependency("zip", "city"))
    by_request = session.profile(ProfileRequest(FunctionalDependency("zip", "city")))
    assert by_text.scores == by_fd.scores == by_request.scores


def test_score_measure_subset_and_unknown_measure():
    session = AfdSession(small_relation(), measures=MEASURES)
    result = session.score("zip -> city", measures=["g3", "mu_plus"])
    assert list(result.scores) == ["g3", "mu_plus"]
    with pytest.raises(KeyError):
        session.score("zip -> city", measures=["nope"])


def test_session_rejects_non_relations():
    with pytest.raises(TypeError):
        AfdSession([("a", "b")])


# ----------------------------------------------------------------------
# AfdSession: artifact caching
# ----------------------------------------------------------------------
def cache_counters(relation):
    """Hit/miss counts of ``relation``'s session, from the metrics registry.

    The registry is process-wide and cumulative, so tests compare two
    readings with :func:`counters_since`.
    """
    registry = get_registry()
    return {
        "statistics_hits": registry.value(
            "session_statistics_total", relation=relation, result="hit"
        ),
        "statistics_misses": registry.value(
            "session_statistics_total", relation=relation, result="miss"
        ),
    }


def counters_since(start, relation):
    now = cache_counters(relation)
    return {key: now[key] - start[key] for key in now}


def test_repeat_score_hits_cache():
    session = AfdSession(small_relation(), measures=MEASURES)
    start = cache_counters(session.name)
    first = session.score("zip -> city")
    second = session.score("zip -> city")
    assert second.scores == first.scores
    assert second.cache_hit and second.statistics_seconds == 0.0
    info = counters_since(start, session.name)
    assert info["statistics_misses"] == 1
    assert info["statistics_hits"] == 1
    assert session.describe()["cache"]["cached_statistics"] == 1


def test_score_after_discovery_hits_cache():
    session = AfdSession(random_relation(3), measures=MEASURES)
    start = cache_counters(session.name)
    result = session.discover(threshold=0.5, max_lhs_size=2)
    computed = result.counters["statistics_computed"]
    assert counters_since(start, session.name)["statistics_misses"] == computed
    # Any non-pruned candidate was already computed inside discover().
    non_exact = next(c for c in result.candidates if not c.exact)
    profile = session.score(non_exact.fd)
    assert profile.cache_hit
    assert profile.scores == non_exact.scores


def test_repeat_discovery_reuses_partitions():
    # The session's discovery artifacts are its per-FD statistics (the key
    # check reads the source's cached encoding); a rerun reuses all of them.
    session = AfdSession(random_relation(4), measures=MEASURES)
    start = cache_counters(session.name)
    session.discover(threshold=0.5, max_lhs_size=2)
    first = counters_since(start, session.name)
    session.discover(threshold=0.5, max_lhs_size=2)
    second = counters_since(start, session.name)
    # Second traversal probes the same lattice nodes: all hits, no new misses.
    assert first["statistics_misses"] > 0
    assert second["statistics_misses"] == first["statistics_misses"]
    assert second["statistics_hits"] - first["statistics_hits"] == first["statistics_misses"]


# ----------------------------------------------------------------------
# The session's memo of permutation-expectation cells
# ----------------------------------------------------------------------
def expectation_cells(session):
    return session.describe()["cache"]["expectation_cells"]


@requires_numpy
@pytest.mark.parametrize("kernel_name", KERNELS)
def test_shared_expectation_memo_keeps_every_score_identical(kernel_name):
    from repro.rwd.datasets import build_dataset

    for key in ("R1", "R2", "R3", "R4", "R5"):
        relation = build_dataset(key, num_rows=300, seed=7).relation
        shared = AfdSession(relation, measures=MEASURES)
        unshared_cells = 0
        for lhs in relation.attributes:
            for rhs in relation.attributes:
                if lhs == rhs:
                    continue
                fd = FunctionalDependency(lhs, rhs)
                fresh = AfdSession(relation, measures=MEASURES)
                with kernel(kernel_name):
                    assert shared.score(fd).scores == fresh.score(fd).scores, (key, str(fd))
                unshared_cells += expectation_cells(fresh)
        # X -> Y and Y -> X (and candidates with equal marginal counts)
        # evaluate their common cells once.
        assert 0 < expectation_cells(shared) < unshared_cells, key


def test_each_session_owns_its_expectation_memo():
    relation = random_relation(4)
    first = AfdSession(relation, measures=MEASURES)
    second = AfdSession(relation, measures=MEASURES)
    assert expectation_cells(first) == 0
    first.score("A -> B")
    filled = expectation_cells(first)
    assert filled > 0
    assert expectation_cells(second) == 0
    assert second.score("A -> B").scores == first.score("A -> B").scores
    assert expectation_cells(second) == filled == expectation_cells(first)


def test_apply_delta_keeps_the_expectation_memo():
    """A cell's value does not depend on the epoch, so deltas keep the memo."""
    session = AfdSession(DynamicRelation.from_relation(random_relation(6)), measures=MEASURES)
    session.score("A -> B")
    filled = expectation_cells(session)
    update = session.apply_delta(inserts=[("x", "q", 1), ("y", "p", 2)])
    fresh = AfdSession(session.relation, measures=MEASURES)
    assert update.scores["A -> B"] == fresh.score("A -> B").scores
    # Two more restricted rows: no cell key of this epoch matches the last's.
    assert expectation_cells(session) == filled + expectation_cells(fresh) > filled > 0


def test_score_many_matches_sequential_scores():
    session = AfdSession(small_relation(), measures=MEASURES)
    requests = [
        ProfileRequest(FunctionalDependency("zip", "city")),
        ProfileRequest(FunctionalDependency("city", "zip"), measures=("g3",)),
        ProfileRequest(FunctionalDependency("zip", "city")),  # duplicate probe
    ]
    batch = session.score_many(BatchScoreRequest(requests=tuple(requests)))
    assert len(batch) == 3 and batch.relation == session.name
    # One statistics pass per *distinct* probe; duplicates share it.
    assert batch.distinct == 2
    sequential = AfdSession(small_relation(), measures=MEASURES)
    for request, result in zip(requests, batch.results):
        reference = sequential.score(request.fd, measures=request.measures)
        assert result.scores == reference.scores
        assert result.fd == reference.fd
    with pytest.raises(ValueError):
        session.score_many([])


# ----------------------------------------------------------------------
# AfdSession: dynamic sessions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_name", KERNELS)
def test_apply_delta_matches_recompute(kernel_name):
    rng = random.Random(5)
    relation = random_relation(5, rows=40)
    dynamic = DynamicRelation.from_relation(relation)
    session = AfdSession(dynamic, measures=MEASURES)
    fd = FunctionalDependency("A", "B")
    with kernel(kernel_name):
        session.score(fd)
        assert session.tracked_fds() == [fd]
        for step in range(8):
            inserts = [
                (rng.choice(["x", "new", None]), rng.choice(["p", "q"]), rng.randrange(9))
                for _ in range(rng.randrange(0, 5))
            ]
            live = dynamic.live_ids()
            deletes = rng.sample(live, k=min(2, len(live))) if step % 2 else []
            update = session.apply_delta(inserts=inserts, deletes=deletes)
            assert update.epoch == step + 1 == session.epoch
            assert update.live_rows == dynamic.num_rows
            assert update.inserted == len(inserts) and update.deleted == len(deletes)
            recomputed = FdStatistics.compute(dynamic.snapshot(), fd)
            reference = {
                name: measure.score_from_statistics(recomputed)
                for name, measure in MEASURES.items()
            }
            assert update.scores[str(fd)] == reference
            assert update.restricted_rows[str(fd)] == recomputed.num_rows


@pytest.mark.parametrize(
    "delta, error",
    [
        ({"deletes": [0, 99]}, KeyError),
        ({"deletes": [0, 0]}, KeyError),
        ({"deletes": [1], "inserts": [("4", "w"), ("5",)]}, ValueError),
        ({"inserts": [("4", "w")], "measures": ["bogus"]}, KeyError),
        ({"deletes": [1], "inserts": [("4", "w"), ("5", ["w"])]}, ValueError),
    ],
    ids=["unknown-id", "repeated-id", "bad-arity", "unknown-measure", "unhashable-cell"],
)
def test_rejected_delta_changes_nothing(delta, error):
    dynamic = DynamicRelation(["zip", "city"], [("1", "a"), ("1", "b"), ("2", "c"), ("3", "c")])
    session = AfdSession(dynamic, measures=MEASURES)
    tracker = session.track("zip -> city")
    before = (dynamic.live_ids(), dynamic.version, session.epoch, tracker.statistics())
    with pytest.raises(error):
        session.apply_delta(**delta)
    assert (dynamic.live_ids(), dynamic.version, session.epoch, tracker.statistics()) == before


def test_snapshot_scores_without_mutation():
    dynamic = DynamicRelation.from_relation(random_relation(6))
    session = AfdSession(dynamic, measures=MEASURES)
    update = session.snapshot_scores(fds=["A -> B", "B -> C"])
    assert set(update.scores) == {"A -> B", "B -> C"}
    assert update.inserted == 0 and update.deleted == 0 and update.epoch == 0
    # Named FDs enrolled for tracking; the next delta refreshes them all.
    after = session.apply_delta(inserts=[("x", "p", 1)])
    assert set(after.scores) == {"A -> B", "B -> C"}


def test_untrack_stops_refreshing():
    dynamic = DynamicRelation.from_relation(random_relation(7))
    session = AfdSession(dynamic, measures=MEASURES)
    session.score("A -> B")
    session.untrack("A -> B")
    assert session.tracked_fds() == []
    update = session.apply_delta(inserts=[("x", "p", 1)])
    assert update.scores == {}
    # Untracked scoring still works (recompute path) and stays correct.
    rescored = session.score("A -> B")
    recomputed = FdStatistics.compute(dynamic.snapshot(), FunctionalDependency("A", "B"))
    assert rescored.scores == {
        name: measure.score_from_statistics(recomputed)
        for name, measure in MEASURES.items()
    }


def test_apply_delta_requires_dynamic_session():
    session = AfdSession(small_relation(), measures=MEASURES)
    with pytest.raises(ValueError):
        session.apply_delta(inserts=[("1", "2", "3")])
    with pytest.raises(ValueError):
        session.track("zip -> city")


def test_dynamic_discover_matches_static_discovery():
    relation = random_relation(8)
    dynamic = DynamicRelation.from_relation(relation)
    session = AfdSession(dynamic, measures=MEASURES)
    session.apply_delta(inserts=[("x", "p", 1), ("y", "q", 2), ("w", "p", 99)])
    # Deleting the only row holding C = 99 leaves that value in the dynamic
    # encoding but not in the snapshot the key check reads.
    session.apply_delta(deletes=[dynamic.live_ids()[-1]])
    assert 99 not in dynamic.snapshot().column("C")
    result = session.discover(threshold=0.5, max_lhs_size=2)
    reference = discover_afds(
        Relation(relation.attributes, dynamic.snapshot().rows(), name=relation.name),
        measures=MEASURES,
        threshold=0.5,
        max_lhs_size=2,
    )
    assert [(c.fd, c.scores, c.exact) for c in result.candidates] == [
        (c.fd, c.scores, c.exact) for c in reference.candidates
    ]
    assert result.counters == reference.counters()
    # Discovery did not enrol trackers for the whole candidate grid.
    assert session.tracked_fds() == []


def test_dynamic_discover_key_check_forgets_deleted_values():
    # K is a key only if the deleted "c" still counted as a distinct value.
    dynamic = DynamicRelation(["K", "V"], [("a", 1), ("b", 1), ("a", 2), ("c", 3)])
    session = AfdSession(dynamic, measures=MEASURES)
    session.apply_delta(inserts=[("d", 4)], deletes=[3])
    result = session.discover(threshold=0.0)
    candidate = next(c for c in result.candidates if str(c.fd) == "K -> V")
    assert not candidate.exact
    assert result.counters["pruned_key"] == 0


# ----------------------------------------------------------------------
# AfdSession: concurrency
# ----------------------------------------------------------------------
def test_concurrent_access_is_bit_identical_to_serial():
    relation = random_relation(9, rows=80)
    fds = [
        FunctionalDependency(lhs, rhs)
        for lhs in relation.attributes
        for rhs in relation.attributes
        if lhs != rhs
    ]
    start = cache_counters(relation.name)
    serial_session = AfdSession(relation, measures=MEASURES)
    serial_scores = {fd: serial_session.score(fd).scores for fd in fds}
    serial_discovery = serial_session.discover(threshold=0.6, max_lhs_size=2)
    serial_info = counters_since(start, relation.name)

    shared = AfdSession(
        Relation(relation.attributes, relation.rows(), name=relation.name),
        measures=all_measures(),
    )
    results = {}
    discoveries = {}
    errors = []
    num_threads = 8

    def worker(thread_index):
        try:
            rng = random.Random(thread_index)
            order = list(fds)
            rng.shuffle(order)
            mine = {}
            for fd in order:
                mine[fd] = shared.score(fd).scores
            discoveries[thread_index] = shared.discover(threshold=0.6, max_lhs_size=2)
            results[thread_index] = mine
        except BaseException as error:  # pragma: no cover - failure reporting
            errors.append(error)

    start = cache_counters(relation.name)
    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for index in range(num_threads):
        assert results[index] == serial_scores
        assert [(c.fd, c.scores) for c in discoveries[index].candidates] == [
            (c.fd, c.scores) for c in serial_discovery.candidates
        ]
    info = counters_since(start, relation.name)
    # Artifact sharing: every FD's statistics were computed exactly once
    # across all eight threads; everything else was a cache hit.
    total_statistics = info["statistics_misses"]
    assert total_statistics == serial_info["statistics_misses"]
    assert info["statistics_hits"] >= num_threads * len(fds) - total_statistics


# ----------------------------------------------------------------------
# HTTP server
# ----------------------------------------------------------------------
@pytest.fixture()
def service():
    state = ServiceState()
    server, _ = make_server(state=state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", state
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read()), dict(response.headers)


def _request(url, payload, method="POST"):
    request = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method=method,
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read()), dict(response.headers)


def _post(url, payload):
    return _request(url, payload)


def _error_envelope(excinfo):
    """Assert the failure body follows the envelope contract; return it."""
    body = json.load(excinfo.value)
    assert set(body) == {"error"}
    assert set(body["error"]) == {"code", "message", "detail"}
    assert body["error"]["code"] in ERROR_CODES
    return body["error"]


def _register(base, name="demo", **extra):
    relation = small_relation(name)
    payload = {
        "name": name,
        "attributes": list(relation.attributes),
        "rows": [list(row) for row in relation.rows()],
    }
    payload.update(extra)
    return _post(f"{base}/v1/relations", payload)


def test_server_healthz_and_relations(service):
    base, _ = service
    status, health, _ = _get(f"{base}/v1/healthz")
    assert status == 200 and health["status"] == "ok"
    assert health["sessions"] == []
    status, body, _ = _register(base)
    assert status == 201 and body["num_rows"] == 6
    status, listing, _ = _get(f"{base}/v1/relations")
    assert [entry["name"] for entry in listing["relations"]] == ["demo"]
    assert _get(f"{base}/v1/healthz")[1]["sessions"] == ["demo"]


def test_server_score_matches_library(service):
    base, state = service
    _register(base)
    status, body, _ = _post(f"{base}/v1/relations/demo/score", {"fd": "zip -> city"})
    assert status == 200 and body["kind"] == "profile_result"
    reference = state.session("demo").score("zip -> city")
    assert body["scores"] == reference.scores
    # A second identical request is served from the session cache.
    status, again, _ = _post(f"{base}/v1/relations/demo/score", {"fd": "zip -> city"})
    assert again["cache_hit"] is True and again["scores"] == body["scores"]


def test_registration_cannot_start_processes(service):
    """A payload's ``jobs`` key is ignored: serving stays in-process."""
    import multiprocessing

    base, _ = service
    status, _, _ = _register(base, jobs=4)
    assert status == 201
    status, body, _ = _post(f"{base}/v1/relations/demo/score", {"fd": "zip -> city"})
    assert status == 200 and body["kind"] == "profile_result"
    assert multiprocessing.active_children() == []
    assert "pool" not in _get(f"{base}/v1/stats")[1]


def test_server_batch_score_matches_sequential(service):
    base, state = service
    _register(base)
    probes = ["zip -> city", "city -> zip", "zip -> city"]
    status, body, _ = _post(
        f"{base}/v1/relations/demo/score",
        {"requests": [{"fd": fd} for fd in probes]},
    )
    assert status == 200 and body["kind"] == "batch_score_result"
    assert len(body["results"]) == 3 and body["distinct"] == 2
    for fd, result in zip(probes, body["results"]):
        reference = _post(f"{base}/v1/relations/demo/score", {"fd": fd})[1]
        assert stable_view(result) == stable_view(reference)


def test_server_discover_and_stream_delta(service):
    base, _ = service
    _register(base, dynamic=True)
    status, found, _ = _post(
        f"{base}/v1/relations/demo/discover",
        {"threshold": 0.5, "max_lhs_size": 2},
    )
    assert status == 200 and found["kind"] == "discovery_result"
    assert found["counters"]["candidates"] > 0
    _post(f"{base}/v1/relations/demo/score", {"fd": "zip -> city"})
    status, update, _ = _post(
        f"{base}/v1/relations/demo/delta",
        {"inserts": [["9999", "Gent", "q"]], "deletes": [0]},
    )
    assert status == 200 and update["kind"] == "stream_update"
    assert update["epoch"] == 1 and update["live_rows"] == 6
    assert "zip -> city" in update["scores"]


def test_routing_table_dispatch():
    # Every ROUTES row resolves to its operation, with URL parameters
    # captured; wrong verbs 405 with the allowed set, unknown paths 404.
    cases = {
        ("GET", "/v1/healthz"): "healthz",
        ("GET", "/v1/metrics"): "metrics",
        ("GET", "/v1/stats"): "stats",
        ("GET", "/v1/relations"): "relations",
        ("POST", "/v1/relations"): "register",
        ("POST", "/v1/relations/demo/score"): "score",
        ("POST", "/v1/relations/demo/discover"): "discover",
        ("POST", "/v1/relations/demo/delta"): "delta",
    }
    assert len(cases) == len(ROUTES)
    for (method, path), op in cases.items():
        route, params = match_route(method, path)
        assert route.op == op
        if "{name}" in route.pattern:
            assert params == {"name": "demo"}
    # The former unversioned aliases are gone, not redirected.
    for method, path in (
        ("GET", "/healthz"),
        ("GET", "/relations"),
        ("POST", "/relations"),
        ("POST", "/score"),
        ("POST", "/discover"),
        ("POST", "/stream/demo/delta"),
    ):
        with pytest.raises(ServiceError) as excinfo:
            match_route(method, path)
        assert excinfo.value.code == "unknown_route"
    with pytest.raises(ServiceError) as excinfo:
        match_route("POST", "/v1/healthz")
    assert excinfo.value.code == "method_not_allowed"
    assert excinfo.value.detail == {"allowed": ["GET"]}
    with pytest.raises(ServiceError) as excinfo:
        match_route("GET", "/v1/relations/demo/score")
    assert excinfo.value.code == "method_not_allowed"
    with pytest.raises(ServiceError) as excinfo:
        match_route("GET", "/nope")
    assert excinfo.value.code == "unknown_route"


@pytest.mark.parametrize("mode", ["inline", "sharded"])
@pytest.mark.parametrize("name", ["a b", "a/b", "é"])
def test_percent_encoded_relation_names_are_addressable(mode, name):
    """``/v1/relations/<quote(name)>/...`` reaches the relation ``name``."""
    if mode == "inline":
        server, _ = make_server()
    else:
        server, _ = make_sharded_server(workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = "http://{0}:{1}".format(*server.server_address)
    try:
        status, body, _ = _register(base, name=name)
        assert status == 201 and body["name"] == name
        quoted = urllib.parse.quote(name, safe="")
        status, scored, _ = _post(
            f"{base}/v1/relations/{quoted}/score", {"fd": "zip -> city"}
        )
        assert status == 200 and scored["relation"] == name
        reference = AfdSession(small_relation(name), measures=MEASURES).score("zip -> city")
        assert scored["scores"] == reference.scores
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()


def test_server_error_paths(service):
    base, _ = service
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(f"{base}/bogus")
    assert excinfo.value.code == 404
    assert _error_envelope(excinfo)["code"] == "unknown_route"
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{base}/v1/relations/ghost/score", {"fd": "a -> b"})
    assert excinfo.value.code == 404
    envelope = _error_envelope(excinfo)
    assert envelope["code"] == "unknown_relation"
    assert envelope["detail"]["relation"] == "ghost"
    _register(base)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _register(base)  # duplicate name without replace
    assert excinfo.value.code == 409
    assert _error_envelope(excinfo)["code"] == "relation_exists"
    assert _register(base, replace=True)[0] == 201
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{base}/v1/relations/demo/score", {})  # missing fd
    assert excinfo.value.code == 400
    assert _error_envelope(excinfo)["code"] == "malformed_record"
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{base}/v1/relations/demo/delta", {"inserts": [["x"]]})  # static
    assert excinfo.value.code == 400
    assert _error_envelope(excinfo)["code"] == "not_dynamic"
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _request(f"{base}/v1/relations/demo/score", {}, method="PUT")
    assert excinfo.value.code == 405
    envelope = _error_envelope(excinfo)
    assert envelope["code"] == "method_not_allowed"
    assert envelope["detail"] == {"allowed": ["POST"]}
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _request(f"{base}/v1/relations/demo/score", None)  # no body
    assert excinfo.value.code == 400
    assert _error_envelope(excinfo)["code"] == "malformed_record"
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(
            f"{base}/v1/relations/demo/discover",
            {"lhs_attributes": ["zip", "zip"], "max_lhs_size": 2},
        )
    assert excinfo.value.code == 400
    envelope = _error_envelope(excinfo)
    assert envelope["code"] == "malformed_record"
    assert "'zip'" in envelope["message"]


def test_server_concurrent_clients_share_one_session(service):
    base, state = service
    _register(base)
    start = cache_counters("demo")
    reference = state.session("demo").score("zip -> city").scores
    payloads = []
    errors = []

    def client():
        try:
            for _ in range(5):
                payloads.append(
                    _post(f"{base}/v1/relations/demo/score", {"fd": "zip -> city"})[1]
                )
        except BaseException as error:  # pragma: no cover - failure reporting
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(payloads) == 20
    assert all(body["scores"] == reference for body in payloads)
    info = counters_since(start, "demo")
    assert info["statistics_misses"] == 1
    assert info["statistics_hits"] >= 20


# ----------------------------------------------------------------------
# python -m repro dispatcher
# ----------------------------------------------------------------------
def test_dispatcher_version_and_usage(capsys):
    from repro import __version__
    from repro.__main__ import main

    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out
    assert main(["--help"]) == 0
    assert main(["bogus"]) == 2
    assert "unknown command" in capsys.readouterr().err


@requires_numpy  # the discovery CLI imports the numpy-backed RWD datasets
def test_dispatcher_routes_to_discovery(tmp_path, capsys):
    from repro.__main__ import main

    csv_path = tmp_path / "demo.csv"
    csv_path.write_text("zip,city\n1000,Brussels\n1000,Brussels\n3590,Diepenbeek\n")
    output = tmp_path / "out.json"
    code = main(
        ["discovery", str(csv_path), "--measures", "g3", "--output", str(output)]
    )
    assert code == 0
    payload = json.loads(output.read_text())
    assert payload["counters"]["candidates"] == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# Review regressions
# ----------------------------------------------------------------------
def test_apply_delta_deletes_resolve_before_insert_compaction():
    # A delete id passed alongside a compaction-triggering insert batch
    # must name the pre-call row, never a freshly re-based one.
    dynamic = DynamicRelation(
        ["A"],
        [(f"seed-{i}",) for i in range(20)],
        window=20,
        compact_threshold=0.5,
        compact_min=8,
    )
    session = AfdSession(dynamic, measures=MEASURES)
    doomed = dynamic.live_ids()[5]
    doomed_row = dynamic.row(doomed)
    update = session.apply_delta(
        inserts=[(f"new-{i}",) for i in range(30)], deletes=[doomed]
    )
    assert update.deleted == 1 and update.inserted == 30
    rows = dynamic.snapshot().rows()
    assert doomed_row not in rows
    # The window keeps the 20 newest inserts; none was silently deleted.
    assert rows == [(f"new-{i}",) for i in range(10, 30)]
    assert dynamic.compactions > 0


def test_out_of_band_mutation_invalidates_statistics_cache():
    dynamic = DynamicRelation(["A", "B"], [(1, 2), (1, 2)])
    session = AfdSession(dynamic, measures=MEASURES)
    fd = FunctionalDependency("A", "B")
    assert session.score(fd).scores["g3"] == 1.0
    # Mutating through the exposed handle bypasses apply_delta entirely.
    session.dynamic.append([(1, 3), (2, 4), (2, 4)])
    rescored = session.score(fd)
    assert not rescored.cache_hit
    recomputed = FdStatistics.compute(dynamic.snapshot(), fd)
    assert rescored.scores == {
        name: measure.score_from_statistics(recomputed)
        for name, measure in MEASURES.items()
    }


def test_repeat_discovery_reports_zero_statistics_passes():
    session = AfdSession(random_relation(10), measures=MEASURES)
    first = session.discover(threshold=0.5, max_lhs_size=2)
    assert first.counters["statistics_computed"] > 0
    second = session.discover(threshold=0.5, max_lhs_size=2)
    # Scores identical, but the counter reports the passes actually run.
    assert [c.scores for c in second.candidates] == [c.scores for c in first.candidates]
    assert second.counters["statistics_computed"] == 0


def test_server_unknown_measure_is_400_not_404(service):
    base, _ = service
    _register(base)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(
            f"{base}/v1/relations/demo/score",
            {"fd": "zip -> city", "measures": ["nope"]},
        )
    assert excinfo.value.code == 400
    envelope = _error_envelope(excinfo)
    assert envelope["code"] == "unknown_measure"
    assert "unknown measures" in envelope["message"]
