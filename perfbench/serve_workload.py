"""``serve``: the sharded HTTP service under a closed loop of mixed traffic.

Set-up starts ``serve_process.py`` (``make_sharded_server`` with ``nproc``
workers and default measure options) and registers R1, R2, R4 and R5 as
static relations and R3 as a dynamic relation with a sliding window.

The client holds ``nproc`` persistent connections, each sending its next
request when the previous answer arrives.  Traffic comes in rounds of one
fixed request mix, in an order the seed shuffles.  A round opens with a
data refresh: R1, R2, R4 and R5 are registered again (``replace``), so
their caches start cold.  About 90% of the round's other requests are
``POST /v1/relations/<name>/score`` of one FD, with counts Zipf-shaped
over every single-attribute candidate of R1-R5 (fixed popularity ranks),
which mixes cold statistics passes with cache hits.  The rest are
``POST /v1/relations/R3/delta`` insert batches; window eviction supplies
the deletes.  The window ends at a round boundary, so every run measures
the same mix.

Static scores are checked against the reference implementation.  R3
scores and delta answers are checked against an in-process
``AfdSession`` replay of the deltas in the order the server applied them
(the ``epoch`` of each answer), outside the timed window.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from common import ROOT, HostSpeed, median, nproc, percentile
from reference import RelationColumns, mismatches

#: Rows of every registered relation (and of R3's window).
ROWS = 500

#: Spare R3 rows the delta batches insert, cyclically.
INSERT_POOL = 20_000

#: Rows inserted by one delta batch.
DELTA_ROWS = 10

#: Score and delta requests per round (after the round's data refresh).
ROUND_REQUESTS = 400

#: Requests between two host-speed samples (the connections drain first).
SEGMENT_REQUESTS = 50

#: Share of requests that are delta batches.
DELTA_SHARE = 0.1

#: Zipf exponent of FD popularity.
ZIPF_EXPONENT = 1.0

#: Measures re-scored on every tracked FD by each delta.
DELTA_MEASURES = ("g3", "mu_plus")

#: Server starts per run (``setup_s`` is their median).
SERVE_SETUP_REPEATS = 3

STATIC = ("R1", "R2", "R4", "R5")
DYNAMIC = "R3"

Candidate = Tuple[str, str, str]


def build_inputs(seed: int, rows: int):
    """Static relations, R3's initial rows + insert pool, and all candidates."""
    from repro.rwd.datasets import build_dataset

    relations = {}
    for key in STATIC:
        relation = build_dataset(key, rows, seed=seed).relation
        relations[key] = (tuple(relation.attributes), list(relation))
    r3 = build_dataset(DYNAMIC, rows + max(DELTA_ROWS, int(INSERT_POOL * rows / ROWS)), seed=seed)
    r3_rows = list(r3.relation)
    relations[DYNAMIC] = (tuple(r3.relation.attributes), r3_rows[:rows])
    candidates = [
        (key, x, y)
        for key in sorted(relations)
        for x in relations[key][0]
        for y in relations[key][0]
        if x != y
    ]
    return relations, r3_rows[rows:], candidates


class Server:
    """The server subprocess; :meth:`stop` always reaps it."""

    def __init__(self, workers: int):
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "serve_process.py"), str(workers)],
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("the server process did not report its port")
        self.port = int(line)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def call(connection, method: str, path: str, payload=None) -> Tuple[int, bytes]:
    """One request; ``payload`` is a JSON value or already-encoded bytes."""
    body = payload if payload is None or isinstance(payload, bytes) else json.dumps(
        payload
    ).encode("utf-8")
    headers = {} if body is None else {"Content-Type": "application/json"}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


def registration_bodies(relations) -> Dict[str, bytes]:
    """``POST /v1/relations`` bodies; R3 is dynamic with a window of its size."""
    bodies = {}
    for key, (attributes, rows) in relations.items():
        payload = {"name": key, "attributes": list(attributes), "rows": rows, "replace": True}
        if key == DYNAMIC:
            payload["window"] = len(rows)
        bodies[key] = json.dumps(payload).encode("utf-8")
    return bodies


def start_and_register(bodies: Dict[str, bytes], workers: int) -> Server:
    server = Server(workers)
    try:
        connection = server.connect()
        for key, body in bodies.items():
            status, answer = call(connection, "POST", "/v1/relations", body)
            if status != 201:
                raise RuntimeError(f"registering {key} failed: {status} {answer[:200]!r}")
        connection.close()
    except BaseException:
        server.stop()
        raise
    return server


class Traffic:
    """The seeded request sequence, shared by the client connections.

    A round is the data refresh followed by :data:`ROUND_REQUESTS` score
    and delta requests whose counts are fixed (largest-remainder Zipf
    shares); only their order and the inserted rows depend on the seed.
    """

    def __init__(self, seed: int, candidates: List[Candidate], insert_pool: List[tuple]):
        ranked = list(candidates)
        random.Random(0).shuffle(ranked)
        deltas = round(ROUND_REQUESTS * DELTA_SHARE)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))]
        quotas = [(ROUND_REQUESTS - deltas) * w / sum(weights) for w in weights]
        counts = [int(quota) for quota in quotas]
        by_remainder = sorted(range(len(ranked)), key=lambda i: counts[i] - quotas[i])
        for index in by_remainder[: ROUND_REQUESTS - deltas - sum(counts)]:
            counts[index] += 1
        self._mix = [("delta", None)] * deltas + [
            ("score", candidate) for candidate, count in zip(ranked, counts) for _ in range(count)
        ]
        self._rng = random.Random(seed)
        self._pool = insert_pool
        self._cursor = 0

    def next_round(self) -> List[tuple]:
        """The next round's requests, in sending order."""
        order = list(self._mix)
        self._rng.shuffle(order)
        requests = [("register", key) for key in STATIC]
        for kind, item in order:
            if kind == "delta":
                item = [
                    self._pool[(self._cursor + offset) % len(self._pool)]
                    for offset in range(DELTA_ROWS)
                ]
                self._cursor += DELTA_ROWS
            requests.append((kind, item))
        return requests


class Client:
    """``nproc`` persistent connections sending rounds in a closed loop."""

    def __init__(self, server: Server, connections: int, bodies: Dict[str, bytes]):
        self.server = server
        self.bodies = bodies
        self.connections = [server.connect() for _ in range(connections)]
        #: ``(kind, item, status, seconds, body, segment)`` per request
        self.log: List[tuple] = []

    def send(self, requests: List[tuple], segment: int) -> None:
        """Send ``requests`` over every connection; returns when all answered."""
        pending = list(reversed(requests))
        lock = threading.Lock()
        threads = [
            threading.Thread(target=self._loop, args=(slot, pending, lock, segment))
            for slot in range(len(self.connections))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _loop(self, slot: int, pending: List[tuple], lock: threading.Lock, segment: int):
        while True:
            with lock:
                if not pending:
                    return
                kind, item = pending.pop()
            if kind == "register":
                path, payload = "/v1/relations", self.bodies[item]
            elif kind == "score":
                path = f"/v1/relations/{item[0]}/score"
                payload = {"fd": {"lhs": [item[1]], "rhs": [item[2]]}}
            else:
                path = f"/v1/relations/{DYNAMIC}/delta"
                payload = {"inserts": item, "measures": list(DELTA_MEASURES)}
            started = time.perf_counter()
            try:
                status, body = call(self.connections[slot], "POST", path, payload)
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
                self.connections[slot].close()
                self.connections[slot] = self.server.connect()
            seconds = time.perf_counter() - started
            self.log.append((kind, item, status, seconds, body, segment))

    def close(self) -> None:
        for connection in self.connections:
            connection.close()


def metrics_text(server: Server) -> str:
    connection = server.connect()
    try:
        status, body = call(connection, "GET", "/v1/metrics")
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"GET /v1/metrics answered {status}")
    return body.decode("utf-8")


def peak_rss_mb(server: Server) -> float:
    """Summed peak RSS (VmHWM) of the server front end and its shard workers."""
    connection = server.connect()
    try:
        status, body = call(connection, "GET", "/v1/healthz")
    finally:
        connection.close()
    pids = [server.process.pid]
    if status == 200:
        pids += [entry["pid"] for entry in json.loads(body).get("worker_detail", [])]
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as status_file:
            for line in status_file:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


class Verifier:
    """Checks every answer; returns the number of failed operations."""

    def __init__(self, relations):
        self.relations = relations
        self.columns = {
            key: RelationColumns(attributes, rows)
            for key, (attributes, rows) in relations.items()
            if key != DYNAMIC
        }
        self.expected: Dict[Candidate, Dict[str, float]] = {}
        self.apply_delta_s = 0.0

    def static(self, candidate: Candidate) -> Dict[str, float]:
        if candidate not in self.expected:
            key, lhs, rhs = candidate
            self.expected[candidate] = self.columns[key].scores(lhs, rhs)
        return self.expected[candidate]

    def failed(self, log) -> int:
        failed = 0
        r3_scores = defaultdict(list)  # epoch -> [(lhs, rhs, scores)]
        deltas: Dict[int, Tuple[list, dict]] = {}
        for kind, item, status, _, body, _ in log:
            if not 200 <= status < 300:
                failed += 1
                continue
            if kind == "register":
                continue
            answer = json.loads(body)
            epoch = answer.get("epoch")
            if not isinstance(epoch, int) or (kind == "delta" and epoch in deltas):
                failed += 1
            elif kind == "delta":
                deltas[epoch] = (item, answer.get("scores", {}))
            elif item[0] == DYNAMIC:
                r3_scores[epoch].append((item[1], item[2], answer.get("scores", {})))
            elif mismatches(answer.get("scores", {}), self.static(item)):
                failed += 1
        return failed + self.replay(r3_scores, deltas)

    def replay(self, r3_scores, deltas) -> int:
        """Re-run the deltas in epoch order in process; compare R3 answers."""
        from repro import AfdSession, FunctionalDependency
        from repro.service.model import fd_from_value
        from repro.stream.dynamic import DynamicRelation

        attributes, rows = self.relations[DYNAMIC]
        session = AfdSession(DynamicRelation(attributes, rows, name=DYNAMIC, window=len(rows)))
        last = max([0, *deltas, *r3_scores])
        failed = 0
        for epoch in range(last + 1):
            if epoch and epoch not in deltas:
                # A gap in the server's epochs: nothing from here on can be checked.
                return failed + sum(
                    len(answers) for e, answers in r3_scores.items() if e >= epoch
                ) + sum(1 for e in deltas if e > epoch)
            if epoch:
                inserts, delta_scores = deltas[epoch]
                started = time.perf_counter()
                session.apply_delta(inserts=inserts, measures=list(DELTA_MEASURES))
                self.apply_delta_s += time.perf_counter() - started
                if any(
                    mismatches(scores, session.score(fd_from_value(fd), DELTA_MEASURES).scores)
                    for fd, scores in delta_scores.items()
                ):
                    failed += 1
            for lhs, rhs, scores in r3_scores.get(epoch, ()):
                if mismatches(scores, session.score(FunctionalDependency(lhs, rhs)).scores):
                    failed += 1
        return failed


def run(seed: int, seconds: float, trace: bool, scale: float = 1.0):
    rows = max(50, int(ROWS * scale))
    workers = nproc()
    speed = HostSpeed()
    server: Optional[Server] = None
    setup_times: List[float] = []
    try:
        for _ in range(SERVE_SETUP_REPEATS):
            if server is not None:
                server.stop()
                server = None
            speed.sample()
            started = time.perf_counter()
            relations, insert_pool, candidates = build_inputs(seed, rows)
            bodies = registration_bodies(relations)
            server = start_and_register(bodies, workers)
            ended = time.perf_counter()
            speed.sample()
            setup_times.append(speed.scaled(started, ended))
        traffic = Traffic(seed, candidates, insert_pool)
        before = metrics_text(server) if trace else ""
        client = Client(server, workers, bodies)
        # Whole rounds until the window is over.  The connections drain
        # every SEGMENT_REQUESTS requests, and the host speed is sampled
        # then, while the server is idle; each segment is scaled by it.
        segments: List[Tuple[float, float, float]] = []
        round_seconds: List[float] = []
        deadline = time.perf_counter() + seconds
        try:
            while not round_seconds or time.perf_counter() < deadline:
                requests = traffic.next_round()
                scaled = 0.0
                for first in range(0, len(requests), SEGMENT_REQUESTS):
                    started = time.perf_counter()
                    client.send(requests[first : first + SEGMENT_REQUESTS], len(segments))
                    ended = time.perf_counter()
                    speed.sample()
                    factor = speed.over(started, ended)
                    segments.append((started, ended, factor))
                    scaled += (ended - started) * factor
                round_seconds.append(scaled)
        finally:
            client.close()
        after = metrics_text(server) if trace else ""
        rss = peak_rss_mb(server)
    finally:
        if server is not None:
            server.stop()

    log = client.log
    per_round = len(log) // len(round_seconds)
    read_ms = [t * segments[i][2] * 1e3 for kind, _, _, t, _, i in log if kind == "score"]
    write_ms = [t * segments[i][2] * 1e3 for kind, _, _, t, _, i in log if kind == "delta"]
    deltas_done = sum(1 for entry in log if entry[0] == "delta" and entry[2] == 200)
    counts = {
        "workers": workers,
        "connections": workers,
        "rows_per_relation": rows,
        "candidates": len(candidates),
        "rounds": len(round_seconds),
        "operations": len(log),
        "score_requests": len(read_ms),
        "delta_requests": len(write_ms),
        "rows_inserted": deltas_done * DELTA_ROWS,
        "host_speed": speed.summary(),
    }
    verifier = Verifier(relations)
    if not trace:
        failed = verifier.failed(log)
        metrics = {
            "setup_s": median(setup_times),
            # The median round: one burst of host slowness moves one round only.
            "ops_per_s": median([per_round / seconds_ for seconds_ in round_seconds]),
            "latency_p50_ms": percentile(read_ms, 50),
            "latency_p90_ms": percentile(read_ms, 90),
            "write_latency_p50_ms": percentile(write_ms, 50),
            "write_latency_p90_ms": percentile(write_ms, 90),
            "ingest_rows_per_s": DELTA_ROWS / (median(write_ms) / 1e3),
            "peak_rss_mb": rss,
        }
        return counts, failed == 0, len(log), failed, metrics

    from layers import LayerTracer, metric_total, parse_prometheus, session_metrics
    from reference import MEASURES

    before_samples, after_samples = parse_prometheus(before), parse_prometheus(after)

    def grew(name: str, **labels: str) -> float:
        return metric_total(after_samples, name, **labels) - metric_total(
            before_samples, name, **labels
        )

    with LayerTracer() as tracer:
        failed = verifier.failed(log)
    layers = tracer.layer_metrics(MEASURES)
    layers.update(session_metrics(before_samples, after_samples))
    layers.update(
        {
            "service.parse_s": (grew("stage_seconds_sum", stage="parse"), "s"),
            "service.pipe_s": (grew("stage_seconds_sum", stage="pipe"), "s"),
            "service.statistics_s": (grew("stage_seconds_sum", stage="statistics"), "s"),
            "service.scoring_s": (grew("stage_seconds_sum", stage="scoring"), "s"),
            "service.coalesced_requests": (grew("dispatcher_coalesced_requests_total"), "count"),
            "service.coalesced_batches": (grew("dispatcher_coalesced_batches_total"), "count"),
            "stream.apply_delta_s": (verifier.apply_delta_s, "s"),
            "trace.ops": (len(log), "count"),
            # The metric scrapes run outside the timed window: no overhead.
            "trace.overhead_pct": (0.0, "%"),
        }
    )
    return counts, failed == 0, len(log), failed, layers
