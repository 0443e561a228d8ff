"""Sharded serving: the ring, the worker protocol, and e2e bit-identity.

Contracts under test:

* :class:`HashRing` is deterministic across instances (ownership is a
  pure function of the relation name), spreads names over workers, and
  keeps most assignments stable when the pool grows;
* the worker pipe protocol serves the same ``(status, body)`` pairs as
  the in-process executor, and answers ``wrong_shard`` (421) when a
  relation-scoped message reaches a non-owner;
* the dispatcher coalesces queued same-relation scores into one
  ``score_batch`` round trip and splits the reply per client;
* a worker that dies fails its in-flight and queued requests with a
  500, its pipe leaves the event loop, and later requests fail fast;
* an 8-worker sharded server is bit-identical (volatile timing fields
  aside — :func:`stable_view`) to single-process serial serving over
  plain ``urllib``, including under concurrent clients, and deltas
  route to (only) the owning shard.
"""

import json
import os
import signal
import threading
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.service.model import stable_view
from repro.service.server import make_server, make_sharded_server
from repro.service.shard import DEFAULT_REPLICAS, HashRing, ShardDispatcher, ShardPool


def relation_payload(name="t", rows=60, dynamic=False):
    data = [[str(i % 7), str((i * i) % 5)] for i in range(rows)]
    payload = {"name": name, "attributes": ["X", "Y"], "rows": data}
    if dynamic:
        payload["dynamic"] = True
    return payload


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


# ----------------------------------------------------------------------
# HashRing
# ----------------------------------------------------------------------
def test_ring_is_deterministic_across_instances():
    names = [f"rel-{i}" for i in range(200)]
    first = HashRing(4)
    second = HashRing(4)
    assert [first.owner(name) for name in names] == [second.owner(name) for name in names]


def test_ring_spreads_names_over_all_workers():
    ring = HashRing(4)
    counts = Counter(ring.owner(f"rel-{i}") for i in range(400))
    assert set(counts) == {0, 1, 2, 3}
    # No worker owns more than half the keys (virtual nodes spread load).
    assert max(counts.values()) < 200


def test_ring_growth_moves_few_keys():
    names = [f"rel-{i}" for i in range(500)]
    small, large = HashRing(4), HashRing(5)
    moved = sum(small.owner(name) != large.owner(name) for name in names)
    # Consistent hashing moves ~1/5 of the keys to the new worker; a
    # modulo scheme would move ~4/5.  Allow generous slack.
    assert moved < 250


def test_ring_rejects_bad_parameters():
    with pytest.raises(ValueError):
        HashRing(0)
    with pytest.raises(ValueError):
        HashRing(2, replicas=0)
    assert HashRing(1).owner("anything") == 0
    assert DEFAULT_REPLICAS > 0


# ----------------------------------------------------------------------
# Worker pipe protocol
# ----------------------------------------------------------------------
def test_worker_protocol_register_score_and_wrong_shard():
    pool = ShardPool(2)
    try:
        payload = relation_payload("t")
        owner = pool.owner("t")
        other = 1 - owner
        status, body = pool.request(owner, "register", payload)
        assert status == 201 and body["name"] == "t"
        status, scored = pool.request(
            owner, "score", {"relation": "t", "fd": "X -> Y"}
        )
        assert status == 200 and scored["kind"] == "profile_result"
        # The same message on the non-owner is refused, not served.
        status, refused = pool.request(
            other, "score", {"relation": "t", "fd": "X -> Y"}
        )
        assert status == 421
        assert refused["error"]["code"] == "wrong_shard"
        assert refused["error"]["detail"]["owner"] == owner
        status, refused = pool.request(other, "register", payload)
        assert status == 421 and refused["error"]["code"] == "wrong_shard"
        # Errors cross the pipe as envelopes too.
        status, missing = pool.request(owner, "score", {"relation": "t"})
        assert status == 400 and missing["error"]["code"] == "malformed_record"
    finally:
        pool.stop()
    assert pool.alive() == [False, False]


def test_dispatcher_coalesces_queued_scores_into_one_batch():
    pool = ShardPool(1)
    try:
        readers = {}
        dispatcher = ShardDispatcher(
            pool, lambda conn, cb: readers.update(cb=cb), lambda conn: None
        )
        connection = pool.connections[0]

        registered = []
        dispatcher.submit(
            0, "register", relation_payload("t"),
            lambda status, body: registered.append(status),
        )
        assert connection.poll(10)
        readers["cb"]()
        assert registered == [201]

        answers = []
        for _ in range(3):
            dispatcher.submit(
                0, "score", {"relation": "t", "fd": "X -> Y"},
                lambda status, body: answers.append((status, body)),
            )
        # The first score went out alone; the two queued behind it must
        # coalesce into a single split score_batch round trip.
        assert connection.poll(10)
        readers["cb"]()  # reply to the single score; pumps the batch
        assert len(answers) == 1
        assert connection.poll(10)
        readers["cb"]()  # reply to the batch, split back per client
        assert len(answers) == 3
        bodies = [json.loads(body) for _, body in answers]
        assert all(status == 200 for status, _ in answers)
        assert all(body["kind"] == "profile_result" for body in bodies)
        assert stable_view(bodies[0]) == stable_view(bodies[1]) == stable_view(bodies[2])
    finally:
        pool.stop()


def test_dispatcher_fails_inflight_and_queued_work_when_worker_dies():
    pool = ShardPool(1)
    try:
        readers = {}
        removed = []
        dispatcher = ShardDispatcher(
            pool, lambda conn, cb: readers.update(cb=cb), removed.append
        )
        connection = pool.connections[0]
        registered = []
        dispatcher.submit(
            0, "register", relation_payload("t"),
            lambda status, body: registered.append(status),
        )
        assert connection.poll(10)
        readers["cb"]()
        assert registered == [201]

        # A stopped worker cannot answer: the first score stays in
        # flight and the second waits in the queue behind it.
        pid = pool.pids()[0]
        os.kill(pid, signal.SIGSTOP)
        answers = []
        for _ in range(2):
            dispatcher.submit(
                0, "score", {"relation": "t", "fd": "X -> Y"},
                lambda status, body: answers.append((status, body)),
            )
        assert answers == []
        os.kill(pid, signal.SIGKILL)
        assert connection.poll(10)  # EOF makes the pipe readable
        readers["cb"]()
        assert [status for status, _ in answers] == [500, 500]
        assert all(body["error"]["code"] == "internal_error" for _, body in answers)
        assert removed == [connection]

        # Later submissions fail at once through the closed pipe.
        later = []
        dispatcher.submit(
            0, "score", {"relation": "t", "fd": "X -> Y"},
            lambda status, body: later.append(status),
        )
        assert later == [500]
        assert dispatcher.stats()["busy"] == [False]
        assert dispatcher.stats()["queue_depth"] == [0]
    finally:
        pool.stop()


# ----------------------------------------------------------------------
# End to end: sharded == serial
# ----------------------------------------------------------------------
@pytest.fixture()
def serial_and_sharded():
    serial_server, _ = make_server()
    sharded_server, pool = make_sharded_server(workers=8)
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in (serial_server, sharded_server)
    ]
    for thread in threads:
        thread.start()
    bases = tuple(
        "http://{0}:{1}".format(*server.server_address)
        for server in (serial_server, sharded_server)
    )
    yield bases, pool, sharded_server
    for server, thread in zip((serial_server, sharded_server), threads):
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()


def test_sharded_is_bit_identical_to_serial(serial_and_sharded):
    (serial, sharded), _, _ = serial_and_sharded
    for base in (serial, sharded):
        assert _post(f"{base}/v1/relations", relation_payload("alpha"))[0] == 201
        assert _post(
            f"{base}/v1/relations", relation_payload("beta", rows=40)
        )[0] == 201
    probes = ["X -> Y", "Y -> X", "X -> Y"]
    for name in ("alpha", "beta"):
        for fd in probes:
            ser = _post(f"{serial}/v1/relations/{name}/score", {"fd": fd})
            sha = _post(f"{sharded}/v1/relations/{name}/score", {"fd": fd})
            assert ser[0] == sha[0] == 200
            assert stable_view(ser[1]) == stable_view(sha[1])
        batch = {"requests": [{"fd": fd} for fd in probes]}
        ser = _post(f"{serial}/v1/relations/{name}/score", batch)
        sha = _post(f"{sharded}/v1/relations/{name}/score", batch)
        assert stable_view(ser[1]) == stable_view(sha[1])
        ser = _post(
            f"{serial}/v1/relations/{name}/discover", {"threshold": 0.5}
        )
        sha = _post(
            f"{sharded}/v1/relations/{name}/discover", {"threshold": 0.5}
        )
        assert stable_view(ser[1]) == stable_view(sha[1])
    ser = _get(f"{serial}/v1/relations")
    sha = _get(f"{sharded}/v1/relations")
    assert stable_view(ser[1]) == stable_view(sha[1])
    assert _get(f"{sharded}/v1/healthz")[1]["sessions"] == ["alpha", "beta"]


def test_sharded_concurrent_clients_match_serial(serial_and_sharded):
    (serial, sharded), _, _ = serial_and_sharded
    for base in (serial, sharded):
        assert _post(f"{base}/v1/relations", relation_payload("t"))[0] == 201
    reference = _post(f"{serial}/v1/relations/t/score", {"fd": "X -> Y"})[1]
    answers = []
    errors = []

    def client():
        try:
            for _ in range(5):
                answers.append(
                    _post(f"{sharded}/v1/relations/t/score", {"fd": "X -> Y"})[1]
                )
        except BaseException as error:  # pragma: no cover - failure reporting
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors and len(answers) == 40
    expected = stable_view(reference)
    assert all(stable_view(body) == expected for body in answers)


def test_sharded_deltas_route_to_owning_worker(serial_and_sharded):
    (serial, sharded), pool, sharded_server = serial_and_sharded
    for base in (serial, sharded):
        assert _post(
            f"{base}/v1/relations", relation_payload("stream", dynamic=True)
        )[0] == 201
        _post(f"{base}/v1/relations/stream/score", {"fd": "X -> Y"})
    delta = {"inserts": [["7", "7"], ["8", "8"]], "deletes": [0]}
    ser = _post(f"{serial}/v1/relations/stream/delta", delta)
    sha = _post(f"{sharded}/v1/relations/stream/delta", delta)
    assert ser[0] == sha[0] == 200
    assert sha[1]["epoch"] == 1
    assert stable_view(ser[1]) == stable_view(sha[1])
    # Post-delta scores reflect the mutation identically.
    ser = _post(f"{serial}/v1/relations/stream/score", {"fd": "X -> Y"})
    sha = _post(f"{sharded}/v1/relations/stream/score", {"fd": "X -> Y"})
    assert stable_view(ser[1]) == stable_view(sha[1])
    # Unknown relations fail fast at the front door with the envelope.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(f"{sharded}/v1/relations/ghost/delta", delta)
    assert excinfo.value.code == 404
    assert json.load(excinfo.value)["error"]["code"] == "unknown_relation"
    # The session lives on exactly the ring-owner worker.  Quiesce the
    # event loop first: the blocking pool helpers share its pipes.
    sharded_server.shutdown()
    import time

    deadline = time.time() + 10
    while sharded_server._serving.is_set() and time.time() < deadline:
        time.sleep(0.01)
    owner = pool.owner("stream")
    for worker_id in range(pool.num_workers):
        status, body = pool.request(worker_id, "relations")
        names = [entry["name"] for entry in body["relations"]]
        assert ("stream" in names) == (worker_id == owner)
        if worker_id == owner:
            entry = next(e for e in body["relations"] if e["name"] == "stream")
            assert entry["epoch"] == 1
