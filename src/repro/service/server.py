"""The AFD profiling service: versioned JSON-over-HTTP API, stdlib only.

``python -m repro.serve`` starts the selector-based
:class:`~repro.service.http.AsyncHttpServer` front end over the
operation executor of :mod:`repro.service.ops` — either **in-process**
(``--workers 0``, every session lives in the serving process) or
**sharded** (``--workers N``, every relation owned by exactly one
worker process of :mod:`repro.service.shard`, chosen by consistent
hashing, so statistics passes run outside the front end's GIL).

The wire API is versioned under ``/v1/``:

==========================================  ======  ====================
``/v1/healthz``                             GET     liveness + sessions
``/v1/relations``                           GET     per-session summary
``/v1/relations``                           POST    register a relation
``/v1/relations/<name>/score``              POST    profile FD(s); a
                                                    ``requests`` list
                                                    scores a batch
``/v1/relations/<name>/discover``           POST    lattice discovery
``/v1/relations/<name>/delta``              POST    apply a mutation
==========================================  ======  ====================

``{name}`` is percent-decoded, so any registered name is addressable.
There are no unversioned routes: any other path answers
``unknown_route``.  Failures use the envelope contract of
:mod:`repro.service.model`: ``{"error": {"code", "message", "detail"}}``
with the stable codes in ``ERROR_CODES``.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.obs.logging import RequestLogger
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    get_registry,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.trace import Trace, span, use_trace
from repro.service.http import MAX_BODY_BYTES, AsyncHttpServer
from repro.service.model import ServiceError
from repro.service.ops import ServiceState, execute
from repro.service.shard import ShardDispatcher, ShardPool

__all__ = [
    "MAX_BODY_BYTES",
    "ROUTES",
    "ServiceApp",
    "ServiceState",
    "build_parser",
    "main",
    "make_server",
    "make_sharded_server",
]


# ----------------------------------------------------------------------
# Routing table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Route:
    """One row of the routing table: ``method`` + ``pattern`` → ``op``.

    ``pattern`` uses ``{name}`` placeholders captured into the payload
    (the URL wins over any body field of the same meaning).
    """

    method: str
    pattern: str
    op: str
    regex: "re.Pattern" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        escaped = re.escape(self.pattern).replace(r"\{name\}", r"(?P<name>[^/]+)")
        object.__setattr__(self, "regex", re.compile(f"^{escaped}$"))


#: The complete wire API.  Order matters only for documentation; every
#: pattern is anchored and unambiguous.
ROUTES: Tuple[Route, ...] = (
    Route("GET", "/v1/healthz", "healthz"),
    Route("GET", "/v1/metrics", "metrics"),
    Route("GET", "/v1/stats", "stats"),
    Route("GET", "/v1/relations", "relations"),
    Route("POST", "/v1/relations", "register"),
    Route("POST", "/v1/relations/{name}/score", "score"),
    Route("POST", "/v1/relations/{name}/discover", "discover"),
    Route("POST", "/v1/relations/{name}/delta", "delta"),
)


def match_route(method: str, path: str) -> Tuple[Route, Dict[str, str]]:
    """Resolve ``method path`` against :data:`ROUTES`.

    The captured ``{name}`` is percent-decoded (a client addresses the
    relation ``"a b"`` as ``a%20b``).  Raises :class:`ServiceError`
    ``unknown_route`` (404) for an unknown path and
    ``method_not_allowed`` (405, with the allowed verbs in the detail)
    for a known path addressed with the wrong verb.
    """
    allowed: List[str] = []
    for route in ROUTES:
        match = route.regex.match(path)
        if match is None:
            continue
        if route.method == method:
            return route, {
                key: urllib.parse.unquote(value)
                for key, value in match.groupdict().items()
            }
        allowed.append(route.method)
    if allowed:
        raise ServiceError(
            "method_not_allowed",
            f"{method} is not allowed on {path}",
            detail={"allowed": sorted(set(allowed))},
        )
    raise ServiceError("unknown_route", f"unknown route {method} {path}")


# ----------------------------------------------------------------------
# The application (handler for AsyncHttpServer)
# ----------------------------------------------------------------------
class ServiceApp:
    """Routes HTTP requests onto the executor or the shard dispatcher.

    Inline mode (``dispatcher is None``): every operation runs through
    :func:`repro.service.ops.execute` against ``state`` on the event
    loop.  Sharded mode: relation-scoped operations are submitted to the
    owning worker through the :class:`~repro.service.shard.ShardDispatcher`
    (the front door keeps only the relation → worker routing table and
    answers ``healthz`` itself).
    """

    def __init__(
        self,
        state: Optional[ServiceState] = None,
        dispatcher: Optional[ShardDispatcher] = None,
        logger: Optional[RequestLogger] = None,
        healthz_timeout: float = 0.5,
        schedule: Optional[Callable[[float, Callable[[], None]], None]] = None,
    ):
        if (state is None) == (dispatcher is None):
            raise ValueError("pass exactly one of state= (inline) or dispatcher= (sharded)")
        self.state = state
        self.dispatcher = dispatcher
        #: Structured request log (one JSON line per request); None = off.
        self.logger = logger
        #: Budget for the sharded-healthz worker ping before answering
        #: with ``responsive: false`` for the stragglers.
        self.healthz_timeout = healthz_timeout
        #: ``schedule(delay, callback)`` — the server's ``call_later``
        #: (wired by :func:`make_sharded_server`); None degrades the
        #: healthz ping deadline to best-effort (reply-driven only).
        self.schedule = schedule
        #: Sharded mode: relation name -> owning worker id (filled on
        #: successful registration; single-threaded on the event loop).
        self._routing: Dict[str, int] = {}
        self._started = time.time()

    # -- plumbing -------------------------------------------------------
    @staticmethod
    def _parse_body(method: str, body: Optional[bytes]) -> Dict[str, object]:
        if body is None or not body:
            if method == "POST":
                raise ServiceError(
                    "malformed_record",
                    "request body required (Content-Length missing or 0)",
                )
            return {}
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise ServiceError(
                "malformed_record", f"request body is not valid JSON: {error}"
            ) from None
        if not isinstance(payload, dict):
            raise ServiceError("malformed_record", "request body must be a JSON object")
        return payload

    # -- the Handler ----------------------------------------------------
    def __call__(self, method: str, path: str, body: Optional[bytes], respond) -> None:
        # Every request gets a trace: a caller-supplied X-Trace-Id is
        # honoured (correlation across services), else a fresh id.
        request_headers = getattr(respond, "request_headers", None) or {}
        trace = Trace(str(request_headers.get("x-trace-id") or "") or None)
        start = time.perf_counter()
        # Metric label: the route *pattern*, never the raw path — raw
        # paths are unbounded label cardinality.
        route_label = ["unmatched"]

        def answer(status: int, out: object, headers: Tuple = ()) -> None:
            duration = time.perf_counter() - start
            registry = get_registry()
            registry.inc("requests_total", route=route_label[0], code=str(status))
            registry.observe("request_seconds", duration, route=route_label[0])
            respond(status, out, list(headers) + [("X-Trace-Id", trace.trace_id)])
            if self.logger is not None:
                self.logger.log(
                    {
                        "ts": round(time.time(), 6),
                        "trace_id": trace.trace_id,
                        "method": method,
                        "path": path,
                        "route": route_label[0],
                        "status": status,
                        "duration_ms": round(duration * 1000, 3),
                        "spans": trace.span_dicts(),
                    }
                )

        try:
            route, params = match_route(method, path)
            route_label[0] = route.pattern
            with use_trace(trace):
                with span("parse"):
                    payload = self._parse_body(method, body)
        except ServiceError as error:
            answer(error.status, error.envelope())
            return
        if "name" in params:
            # The URL names the relation authoritatively.
            payload["relation"] = params["name"]
        op = route.op
        if op == "score" and "requests" in payload:
            op = "score_batch"
        if op == "metrics":
            self._serve_metrics(answer)
            return
        if op == "stats":
            self._serve_stats(answer)
            return
        if self.dispatcher is None:
            with use_trace(trace):
                status, out = execute(self.state, op, payload)
            answer(status, out)
        else:
            self._dispatch_sharded(op, payload, answer, trace)

    # -- observability routes -------------------------------------------
    def _serve_metrics(self, answer) -> None:
        """``GET /v1/metrics``: Prometheus text, fleet-aggregated."""
        prometheus = [("Content-Type", PROMETHEUS_CONTENT_TYPE)]
        if self.dispatcher is None:
            text = render_prometheus(get_registry().to_dict())
            answer(200, text.encode("utf-8"), prometheus)
            return
        self.dispatcher.refresh_gauges()

        def merge(replies):
            snapshots = [
                body
                for status, body in replies
                if status == 200 and isinstance(body, dict) and "metrics" in body
            ]
            return 200, merge_snapshots(get_registry().to_dict(), *snapshots)

        def on_merged(status: int, merged: object) -> None:
            if status != 200 or not isinstance(merged, dict):
                answer(status, merged)
                return
            answer(200, render_prometheus(merged).encode("utf-8"), prometheus)

        self.dispatcher.submit_broadcast("metrics", {}, on_merged, merge)

    def _serve_stats(self, answer) -> None:
        """``GET /v1/stats``: operational JSON (caches, pools, dispatcher)."""
        if self.dispatcher is None:
            status, out = execute(self.state, "stats", {})
            if status != 200:
                answer(status, out)
                return
            answer(
                200,
                {"mode": "inline", "workers": [out], "frontend": get_registry().totals()},
            )
            return

        def merge(replies):
            workers = [
                decoded if status == 200 else {"error": decoded}
                for status, decoded in replies
            ]
            return 200, {
                "mode": "sharded",
                "workers": workers,
                "dispatcher": self.dispatcher.stats(),
                "frontend": get_registry().totals(),
            }

        self.dispatcher.submit_broadcast("stats", {}, answer, merge)

    # -- sharded dispatch ----------------------------------------------
    def _sharded_healthz(self, respond) -> None:
        """Per-worker liveness detail: pid, pipe ping, owned relations.

        A dead worker *process* turns the status ``degraded``.  A live
        worker that misses the ping deadline (mid-statistics-pass on a
        big relation) stays ``responsive: false`` without degrading —
        busy is not dead.
        """
        pool = self.dispatcher.pool
        alive = pool.alive()
        pids = pool.pids()
        detail: List[Dict[str, object]] = [
            {
                "worker": worker_id,
                "pid": pids[worker_id],
                "alive": alive[worker_id],
                "responsive": False,
                "sessions": None,
                "relations": None,
            }
            for worker_id in range(pool.num_workers)
        ]
        done = [False]
        pending = [worker_id for worker_id in range(pool.num_workers) if alive[worker_id]]
        remaining = [len(pending)]

        def finish() -> None:
            if done[0]:
                return
            done[0] = True
            respond(
                200,
                {
                    "status": "ok" if all(alive) else "degraded",
                    "version": __version__,
                    "sessions": sorted(self._routing),
                    "uptime_seconds": time.time() - self._started,
                    "workers": pool.num_workers,
                    "worker_detail": detail,
                },
            )

        def on_info(worker_id: int):
            def callback(status: int, out: object) -> None:
                if isinstance(out, (bytes, bytearray)):
                    out = json.loads(bytes(out))
                if status == 200 and isinstance(out, dict):
                    entry = detail[worker_id]
                    entry["responsive"] = True
                    entry["sessions"] = out.get("sessions")
                    entry["relations"] = out.get("relations")
                if done[0]:
                    return
                remaining[0] -= 1
                if remaining[0] == 0:
                    finish()

            return callback

        if not pending:
            finish()
            return
        for worker_id in pending:
            self.dispatcher.submit(worker_id, "worker_info", {}, on_info(worker_id))
        if self.schedule is not None:
            self.schedule(self.healthz_timeout, finish)

    def _dispatch_sharded(self, op, payload, respond, trace=None) -> None:
        pool = self.dispatcher.pool
        if op == "healthz":
            self._sharded_healthz(respond)
            return
        if op == "relations":
            def merge(replies):
                merged: List[Dict[str, object]] = []
                for status, decoded in replies:
                    if status != 200:
                        return status, decoded
                    merged.extend(decoded.get("relations", []))
                merged.sort(key=lambda entry: str(entry.get("name")))
                return 200, {"relations": merged}

            self.dispatcher.submit_broadcast(op, payload, respond, merge)
            return
        if op == "register":
            name = payload.get("name")
            if not isinstance(name, str) or not name:
                error = ServiceError("malformed_record", "relation name must be non-empty")
                respond(error.status, error.envelope())
                return
            worker_id = pool.owner(name)

            def on_registered(status: int, out: object) -> None:
                if status == 201:
                    self._routing[name] = worker_id
                respond(status, out)

            self.dispatcher.submit(worker_id, op, payload, on_registered, trace=trace)
            return
        # Relation-scoped operations route by the front-door table so an
        # unknown name fails fast without a pipe round trip.
        name = payload.get("relation")
        if not isinstance(name, str) or not name:
            error = ServiceError(
                "malformed_record", "the request must name the target relation"
            )
            respond(error.status, error.envelope())
            return
        worker_id = self._routing.get(name)
        if worker_id is None:
            error = ServiceError(
                "unknown_relation",
                f"unknown relation {name!r}",
                detail={"relation": name, "registered": sorted(self._routing)},
            )
            respond(error.status, error.envelope())
            return
        self.dispatcher.submit(worker_id, op, payload, respond, trace=trace)


# ----------------------------------------------------------------------
# Server builders
# ----------------------------------------------------------------------
def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    state: Optional[ServiceState] = None,
    logger: Optional[RequestLogger] = None,
) -> Tuple[AsyncHttpServer, ServiceState]:
    """Build a ready-to-serve in-process server + state pair.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``) — the in-process testing and benchmarking
    entry point.
    """
    state = state if state is not None else ServiceState()
    server = AsyncHttpServer(host, port, handler=ServiceApp(state=state, logger=logger))
    return server, state


def make_sharded_server(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    measure_options: Optional[Dict[str, object]] = None,
    logger: Optional[RequestLogger] = None,
) -> Tuple[AsyncHttpServer, ShardPool]:
    """Build a sharded server: ``workers`` processes behind one front end.

    The pool forks **before** any serving thread starts (call this from
    the thread that will own the server, then hand ``serve_forever`` to
    a thread).  ``server_close()`` stops the pool.
    """
    pool = ShardPool(workers, measure_options=measure_options)
    server = AsyncHttpServer(host, port)
    dispatcher = ShardDispatcher(pool, server.add_reader, server.remove_reader)
    server.handler = ServiceApp(
        dispatcher=dispatcher, logger=logger, schedule=server.call_later
    )
    server.on_close.append(pool.stop)
    return server, pool


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve AFD profiling sessions over HTTP (JSON /v1 API).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8765, help="port (default: 8765; 0 = ephemeral)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "shard worker processes (default: 0 = in-process serving; "
            "N > 0 distributes relations over N session-owning processes)"
        ),
    )
    parser.add_argument(
        "--sfi-alpha", type=float, default=0.5, help="SFI smoothing parameter (default: 0.5)"
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help=(
            "flag requests at or above this duration as slow in the JSON "
            "request log (and log only those, unless --verbose)"
        ),
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every request as a JSON line"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 0:
        print("--workers must be >= 0", file=sys.stderr)
        return 2
    measure_options = {"sfi_alpha": args.sfi_alpha}
    # Request log policy: --verbose logs every request; --slow-ms alone
    # logs only the slow ones; neither = no request log.
    logger = None
    if args.verbose or args.slow_ms is not None:
        logger = RequestLogger(slow_ms=args.slow_ms, log_all=args.verbose)
    if args.workers > 0:
        server, _pool = make_sharded_server(
            args.host,
            args.port,
            workers=args.workers,
            measure_options=measure_options,
            logger=logger,
        )
        mode = f"sharded across {args.workers} workers"
    else:
        state = ServiceState(measure_options=measure_options)
        server, _ = make_server(args.host, args.port, state=state, logger=logger)
        mode = "in-process"
    host, port = server.server_address[:2]

    def _shutdown(signum, frame):  # pragma: no cover - signal path
        server.shutdown()

    signal.signal(signal.SIGINT, _shutdown)
    signal.signal(signal.SIGTERM, _shutdown)
    print(
        f"repro service listening on http://{host}:{port} ({mode})",
        file=sys.stderr,
        flush=True,
    )
    server.serve_forever()
    server.server_close()
    print("repro service shut down cleanly", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
