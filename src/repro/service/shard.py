"""Sharded multi-process serving: consistent hashing, workers, dispatch.

A thread-per-request server serialises CPU-bound statistics passes on
the GIL, so ``/score`` throughput collapses as client concurrency grows.
This module moves every session out of the front-end process instead.
No committed record yet shows that the pool pays: perfbench's ``serve``
workload runs it (one worker per core) with no in-process baseline
beside it.  The parts:

* :class:`HashRing` — deterministic consistent hashing of relation
  names onto worker ids (virtual nodes, SHA-1; identical on every
  process, so ownership is a pure function of the name);
* :func:`worker_main` — the worker-process loop: one
  :class:`~repro.service.ops.ServiceState` per worker owning the
  sessions of exactly the relations that hash to it, executing
  operations via the same :func:`repro.service.ops.execute` the
  in-process server uses (which is what keeps sharded responses
  bit-identical to single-process serial serving);
* :class:`ShardPool` — spawns the workers and owns the
  ``multiprocessing`` pipes; messages are plain dicts carrying the
  versioned ``to_dict()`` records of :mod:`repro.service.model`,
  replies carry pre-encoded JSON bytes so the front end writes them
  verbatim;
* :class:`ShardDispatcher` — the event-loop-side router: a per-worker
  FIFO with **at most one in-flight message per worker**.  While a
  worker is busy, queued same-relation ``score`` requests coalesce into
  one ``score_batch`` message — a single pipe round trip and one
  ``score_many`` under one session lock acquisition, with one statistics
  pass per distinct FD not already cached and identical probes scored
  once — and the reply is split back to the waiting clients.  Mutating
  operations are never reordered: only the *consecutive* run of
  same-relation scores at the queue head coalesces, so a ``delta``
  queued between two scores keeps its position and streaming sessions
  stay correct.

Ownership is enforced twice: the dispatcher routes by the ring, and the
worker re-checks every relation-scoped message, answering the
``wrong_shard`` error envelope if a message ever reaches the wrong
process.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import multiprocessing
import signal
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import get_registry
from repro.obs.trace import Trace, use_trace
from repro.service.model import ServiceError
from repro.service.ops import RELATION_OPS, ServiceState, execute

#: Virtual nodes per worker on the ring.  Enough for a near-uniform
#: spread of relation names at any worker count we run.
DEFAULT_REPLICAS = 64


class HashRing:
    """Consistent hashing of relation names onto ``num_workers`` ids.

    Uses SHA-1 (stable across processes and Python versions — the
    builtin ``hash`` is salted per process and therefore useless here)
    with ``replicas`` virtual nodes per worker.  Growing the pool moves
    only the keys landing on the new worker's arcs; everything else
    keeps its owner — the property that makes rebalancing cheap.
    """

    def __init__(self, num_workers: int, replicas: int = DEFAULT_REPLICAS):
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.num_workers = num_workers
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for worker in range(num_workers):
            for replica in range(replicas):
                points.append((self._hash(f"worker-{worker}:{replica}"), worker))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")

    def owner(self, name: str) -> int:
        """The worker id owning ``name`` (deterministic)."""
        point = self._hash(f"relation:{name}")
        index = bisect.bisect_right(self._hashes, point)
        if index == len(self._hashes):
            index = 0
        return self._owners[index]


def _encode(body: object) -> bytes:
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _wrong_shard(worker_id: int, owner: int, name: object) -> ServiceError:
    return ServiceError(
        "wrong_shard",
        f"relation {name!r} is owned by worker {owner}, not worker {worker_id}",
        detail={"relation": name, "owner": owner, "worker": worker_id},
    )


def handle_message(
    state: ServiceState, ring: HashRing, worker_id: int, message: Dict[str, object]
) -> Dict[str, object]:
    """Serve one pipe message; always returns a reply dict.

    Reply shapes: ``{"id", "status", "json": bytes}`` for a plain
    operation, or ``{"id", "parts": [[status, bytes], ...]}`` for a
    dispatcher-coalesced batch (``"split": true``), one part per
    original request in order.
    """
    message_id = message.get("id")
    op = str(message.get("op"))
    payload = message.get("payload") or {}
    if not isinstance(payload, dict):
        error = ServiceError("malformed_record", "message payload must be a mapping")
        return {"id": message_id, "status": error.status, "json": _encode(error.envelope())}
    # Ownership re-check: the dispatcher should never misroute, but the
    # contract is enforced where the session lives.
    owned_name = payload.get("name") if op == "register" else payload.get("relation")
    if (op in RELATION_OPS or op == "register") and isinstance(owned_name, str) and owned_name:
        owner = ring.owner(owned_name)
        if owner != worker_id:
            error = _wrong_shard(worker_id, owner, owned_name)
            if message.get("split"):
                part = [error.status, _encode(error.envelope())]
                requests = payload.get("requests") or [None]
                return {"id": message_id, "parts": [part] * len(requests)}
            return {
                "id": message_id,
                "status": error.status,
                "json": _encode(error.envelope()),
            }
    status, body = execute(state, op, payload)
    if message.get("split"):
        # A coalesced single-score batch: split the BatchScoreResult
        # into one ProfileResult part per originating request.
        requests = payload.get("requests") or []
        if status != 200:
            part = [status, _encode(body)]
            return {"id": message_id, "parts": [part] * max(1, len(requests))}
        parts = [[200, _encode(result)] for result in body["results"]]
        return {"id": message_id, "parts": parts}
    return {"id": message_id, "status": status, "json": _encode(body)}


def worker_main(
    conn,
    worker_id: int,
    num_workers: int,
    replicas: int,
    measure_options: Dict[str, object],
) -> None:
    """The shard worker process: recv → execute → send, until stopped."""
    try:
        # The parent orchestrates shutdown (stop message / pipe EOF); a
        # terminal ^C must not kill workers before sessions finish.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    ring = HashRing(num_workers, replicas)
    state = ServiceState(measure_options=measure_options)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if not isinstance(message, dict) or message.get("op") == "stop":
            break
        try:
            trace_id = message.get("trace")
            if trace_id:
                # Re-open the front end's trace in this process: spans
                # recorded here (statistics, scoring, discovery) observe
                # into the *worker's* registry and ship back in the
                # reply for the front end to fold into the request log.
                trace = Trace(str(trace_id))
                with use_trace(trace):
                    reply = handle_message(state, ring, worker_id, message)
                reply["spans"] = trace.span_dicts()
            else:
                reply = handle_message(state, ring, worker_id, message)
        except Exception as error:  # pragma: no cover - defensive
            fallback = ServiceError("internal_error", f"{type(error).__name__}: {error}")
            reply = {
                "id": message.get("id"),
                "status": fallback.status,
                "json": _encode(fallback.envelope()),
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            break
    conn.close()


class ShardPool:
    """The worker processes plus their pipes (one duplex pipe each).

    ``start_method=None`` prefers ``fork`` (cheap, and the parent
    creates the pool before any serving thread runs) and falls back to
    the platform default.  The blocking :meth:`request` /
    :meth:`broadcast` helpers drive the pipes directly — use them only
    while no :class:`ShardDispatcher` event loop owns the pipes (setup,
    tests, CLIs).
    """

    def __init__(
        self,
        num_workers: int,
        measure_options: Optional[Dict[str, object]] = None,
        replicas: int = DEFAULT_REPLICAS,
        start_method: Optional[str] = None,
    ):
        self.ring = HashRing(num_workers, replicas)
        if start_method is None and "fork" in multiprocessing.get_all_start_methods():
            start_method = "fork"
        context = multiprocessing.get_context(start_method)
        self._connections = []
        self._processes = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        for worker_id in range(num_workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=worker_main,
                args=(
                    child_conn,
                    worker_id,
                    num_workers,
                    replicas,
                    dict(measure_options or {}),
                ),
                name=f"repro-shard-{worker_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)
        self._stopped = False

    @property
    def num_workers(self) -> int:
        return len(self._processes)

    @property
    def connections(self):
        return list(self._connections)

    def owner(self, name: str) -> int:
        return self.ring.owner(name)

    def next_id(self) -> int:
        return next(self._ids)

    def alive(self) -> List[bool]:
        return [process.is_alive() for process in self._processes]

    def pids(self) -> List[Optional[int]]:
        return [process.pid for process in self._processes]

    def request(
        self, worker_id: int, op: str, payload: Optional[Dict[str, object]] = None
    ) -> Tuple[int, Dict[str, object]]:
        """Blocking round trip to one worker → ``(status, body)``."""
        with self._lock:
            connection = self._connections[worker_id]
            connection.send({"id": self.next_id(), "op": op, "payload": payload or {}})
            reply = connection.recv()
        return reply["status"], json.loads(reply["json"])

    def broadcast(
        self, op: str, payload: Optional[Dict[str, object]] = None
    ) -> List[Tuple[int, Dict[str, object]]]:
        """Blocking :meth:`request` against every worker, in worker order."""
        return [
            self.request(worker_id, op, payload)
            for worker_id in range(self.num_workers)
        ]

    def stop(self, timeout: float = 5.0) -> None:
        """Stop every worker (idempotent): stop message, join, terminate."""
        with self._lock:
            # Check-and-set under the lock: two concurrent stop() calls
            # (signal handler + atexit is the real-world pair) must not
            # both pass the guard and double-send/double-join.
            if self._stopped:
                return
            self._stopped = True
        for connection in self._connections:
            try:
                connection.send({"op": "stop"})
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=timeout)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - unresponsive worker
                process.terminate()
                process.join(timeout=1.0)
        for connection in self._connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover - defensive
                pass


class _Queued:
    """One not-yet-dispatched operation waiting for its worker."""

    __slots__ = ("op", "payload", "callback", "trace")

    def __init__(
        self,
        op: str,
        payload: Dict[str, object],
        callback: Callable,
        trace: Optional[Trace] = None,
    ):
        self.op = op
        self.payload = payload
        self.callback = callback
        self.trace = trace


class ShardDispatcher:
    """Event-loop-side request router over a :class:`ShardPool`.

    Single-threaded by construction: every method runs on the server's
    event loop (submissions from the HTTP handler, replies from the
    worker-pipe readers registered via ``add_reader``), so no locking is
    needed.  Callbacks receive ``(status, body)`` where ``body`` is
    pre-encoded JSON bytes (or a dict for locally-generated errors).

    A worker pipe at EOF (the worker died) is handed back to
    ``remove_reader`` so the event loop stops polling it; its in-flight
    and queued callbacks fail with ``worker_unavailable`` (503), and
    later submissions fail the same way as soon as the send hits the
    closed pipe.
    """

    def __init__(
        self,
        pool: ShardPool,
        add_reader: Callable[[object, Callable], None],
        remove_reader: Callable[[object], None],
    ):
        self._pool = pool
        self._remove_reader = remove_reader
        workers = pool.num_workers
        self._queues: List[Deque[_Queued]] = [deque() for _ in range(workers)]
        self._busy = [False] * workers
        #: In-flight bookkeeping per worker:
        #: ``("single", callback, traces, send_time)`` or
        #: ``("split", [callbacks], traces, send_time)``.
        self._inflight: List[Optional[Tuple[str, object, List[Trace], float]]] = (
            [None] * workers
        )
        #: Coalescing tallies (also exported as metrics; kept as plain
        #: ints so ``stats()`` reads without touching the registry).
        self.coalesced_batches = 0
        self.coalesced_requests = 0
        for worker_id, connection in enumerate(pool.connections):
            add_reader(
                connection,
                lambda worker_id=worker_id: self._on_reply(worker_id),
            )

    @property
    def pool(self) -> ShardPool:
        return self._pool

    def submit(
        self,
        worker_id: int,
        op: str,
        payload: Dict[str, object],
        callback: Callable,
        trace: Optional[Trace] = None,
    ) -> None:
        """Queue one operation for ``worker_id`` and pump its pipe."""
        self._queues[worker_id].append(_Queued(op, payload, callback, trace))
        self._pump(worker_id)

    def stats(self) -> Dict[str, object]:
        """Live dispatcher state for ``GET /v1/stats``."""
        self.refresh_gauges()
        return {
            "queue_depth": [len(queue) for queue in self._queues],
            "busy": list(self._busy),
            "coalesced_batches": self.coalesced_batches,
            "coalesced_requests": self.coalesced_requests,
        }

    def refresh_gauges(self) -> None:
        """Mirror queue depths into the registry (at scrape time).

        A gauge is a level, not an event stream: writing it on every
        queue transition would cost two registry writes per request on
        the event-loop thread for a value only ever read when ``/v1/stats``
        or ``/v1/metrics`` is scraped.
        """
        registry = get_registry()
        for worker_id, queue in enumerate(self._queues):
            registry.set_gauge(
                "dispatcher_queue_depth", len(queue), worker=str(worker_id)
            )

    def submit_broadcast(
        self,
        op: str,
        payload: Dict[str, object],
        callback: Callable,
        merge: Callable[[List[Tuple[int, Dict[str, object]]]], Tuple[int, object]],
    ) -> None:
        """Run ``op`` on every worker; ``merge`` folds the decoded replies."""
        workers = self._pool.num_workers
        replies: Dict[int, Tuple[int, Dict[str, object]]] = {}

        def part(worker_id: int) -> Callable:
            def on_reply(status: int, body: object) -> None:
                if isinstance(body, (bytes, bytearray)):
                    body = json.loads(bytes(body))
                replies[worker_id] = (status, body)
                if len(replies) == workers:
                    status_, merged = merge(
                        [replies[w] for w in range(workers)]
                    )
                    callback(status_, merged)

            return on_reply

        for worker_id in range(workers):
            self.submit(worker_id, op, dict(payload), part(worker_id))

    # ------------------------------------------------------------------
    # Pipe pumping
    # ------------------------------------------------------------------
    def _send(
        self,
        worker_id: int,
        message: Dict[str, object],
        callbacks: List[Callable],
    ) -> bool:
        """Send one message; on a dead pipe fail ``callbacks`` and re-pump."""
        try:
            self._pool.connections[worker_id].send(message)
            return True
        except (BrokenPipeError, OSError):
            error = ServiceError(
                "worker_unavailable", f"shard worker {worker_id} is unreachable"
            )
            for callback in callbacks:
                callback(error.status, error.envelope())
            # Drain whatever else is queued for the dead worker (depth is
            # bounded by the handful of concurrently waiting clients).
            self._pump(worker_id)
            return False

    def _pump(self, worker_id: int) -> None:
        if self._busy[worker_id]:
            return
        queue = self._queues[worker_id]
        if not queue:
            return
        first = queue.popleft()
        if first.op == "score":
            # Coalesce the *consecutive* run of same-relation single
            # scores at the queue head into one score_batch message: one
            # lock acquisition worker-side, one statistics pass per
            # distinct uncached FD, identical probes scored once.
            # Stopping at the first non-score (or other-relation) item
            # preserves operation order, so deltas interleave exactly as
            # queued.
            relation = first.payload.get("relation")
            group = [first]
            while (
                queue
                and queue[0].op == "score"
                and queue[0].payload.get("relation") == relation
            ):
                group.append(queue.popleft())
            if len(group) > 1:
                payload = {
                    "relation": relation,
                    "requests": [
                        {"fd": item.payload.get("fd"), "measures": item.payload.get("measures")}
                        for item in group
                    ],
                }
                traces = [item.trace for item in group if item.trace is not None]
                message: Dict[str, object] = {
                    "id": self._pool.next_id(),
                    "op": "score_batch",
                    "payload": payload,
                    "split": True,
                }
                if traces:
                    message["trace"] = traces[0].trace_id
                self.coalesced_batches += 1
                self.coalesced_requests += len(group)
                registry = get_registry()
                registry.inc("dispatcher_coalesced_batches_total")
                registry.inc("dispatcher_coalesced_requests_total", len(group))
                callbacks = [item.callback for item in group]
                if not self._send(worker_id, message, callbacks):
                    return
                self._busy[worker_id] = True
                self._inflight[worker_id] = (
                    "split", callbacks, traces, time.perf_counter()
                )
                return
        message = {"id": self._pool.next_id(), "op": first.op, "payload": first.payload}
        traces = [first.trace] if first.trace is not None else []
        if traces:
            message["trace"] = traces[0].trace_id
        if not self._send(worker_id, message, [first.callback]):
            return
        self._busy[worker_id] = True
        self._inflight[worker_id] = ("single", first.callback, traces, time.perf_counter())

    def _on_reply(self, worker_id: int) -> None:
        connection = self._pool.connections[worker_id]
        try:
            reply = connection.recv()
        except (EOFError, OSError):
            self._on_worker_died(worker_id, connection)
            return
        kind_target = self._inflight[worker_id]
        self._inflight[worker_id] = None
        self._busy[worker_id] = False
        if kind_target is not None:
            kind, target, traces, sent_at = kind_target
            elapsed = time.perf_counter() - sent_at
            # The pipe round trip is a front-end stage: observe it here
            # and fold the worker-side spans shipped in the reply into
            # each waiting request's trace.
            get_registry().observe("stage_seconds", elapsed, stage="pipe")
            spans = reply.get("spans") if isinstance(reply, dict) else None
            for trace in traces:
                trace.record("pipe", elapsed, worker=worker_id)
                trace.extend(spans)
            if kind == "split":
                parts = reply.get("parts") or []
                for callback, part in zip(target, parts):
                    callback(part[0], part[1])
            else:
                target(reply.get("status", 500), reply.get("json"))
        self._pump(worker_id)

    def _on_worker_died(self, worker_id: int, connection) -> None:
        """Stop polling a dead worker's pipe and fail everything it owed."""
        self._remove_reader(connection)
        inflight = self._inflight[worker_id]
        self._inflight[worker_id] = None
        self._busy[worker_id] = False
        callbacks: List[Callable] = []
        if inflight is not None:
            kind, target = inflight[0], inflight[1]
            callbacks.extend(target if kind == "split" else [target])
        queue = self._queues[worker_id]
        callbacks.extend(item.callback for item in queue)
        queue.clear()
        error = ServiceError("worker_unavailable", f"shard worker {worker_id} died")
        for callback in callbacks:
            callback(error.status, error.envelope())
