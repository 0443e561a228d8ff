"""A selector-based asynchronous HTTP/1.1 front end (stdlib only).

One thread, one :mod:`selectors` event loop, non-blocking sockets: the
front end parses requests, hands them to an application callback, and
writes responses — without a thread (or a GIL convoy) per connection.
The callback may answer immediately (in-process serving) or hold the
``respond`` handle and fire it later from the event loop (the shard
dispatcher's path, driven by worker-pipe readability registered through
:meth:`AsyncHttpServer.add_reader`).

The server intentionally mirrors the ``ThreadingHTTPServer`` surface the
rest of the repo already drives — ``serve_forever()`` /
``shutdown()`` / ``server_close()`` / ``server_address`` — so tests and
benchmarks run it identically: start ``serve_forever`` in a thread, call
``shutdown()`` from anywhere.

Protocol support is deliberately minimal but correct for the service
API: ``GET``/``POST`` with JSON bodies, ``Content-Length`` framing,
HTTP/1.1 keep-alive (``Connection: close`` honoured), bounded request
bodies.  Anything fancier (chunked uploads, TLS, HTTP/2) is out of
scope for a loopback profiling service.
"""

from __future__ import annotations

import heapq
import itertools
import json
import selectors
import socket
import threading
import time
from http.client import responses as _REASONS
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import get_registry
from repro.service.model import ServiceError

#: Default request-body cap (16 MiB) — plenty for benchmark-scale
#: relation uploads, small enough to bound a hostile payload.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Cap on buffered request headers before the blank line.
MAX_HEADER_BYTES = 64 * 1024

Headers = Sequence[Tuple[str, str]]
#: ``respond(status, body, extra_headers)`` — ``body`` is a JSON-ready
#: object, or pre-encoded JSON ``bytes`` (written verbatim).
Respond = Callable[..., None]
#: ``handler(method, path, body_bytes, respond)``.
Handler = Callable[[str, str, Optional[bytes], Respond], None]


class _Connection:
    """Per-client parser + buffer state."""

    __slots__ = (
        "sock",
        "inbuf",
        "outbuf",
        "method",
        "path",
        "headers",
        "content_length",
        "header_end",
        "keep_alive",
        "in_flight",
        "close_after_write",
        "closed",
    )

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.method: Optional[str] = None
        self.path: Optional[str] = None
        self.headers: Dict[str, str] = {}
        self.content_length = 0
        self.header_end = -1
        self.keep_alive = True
        #: A request has been dispatched and not yet answered; parsing
        #: pauses until the response is queued (no pipelined execution).
        self.in_flight = False
        self.close_after_write = False
        self.closed = False

    def reset_request(self) -> None:
        self.method = None
        self.path = None
        self.headers = {}
        self.content_length = 0
        self.header_end = -1
        self.in_flight = False


class AsyncHttpServer:
    """The event-loop server.  ``handler`` serves every parsed request.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`server_address`) — the in-process testing and benchmarking
    entry point.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        handler: Optional[Handler] = None,
        max_body_bytes: int = MAX_BODY_BYTES,
    ):
        self.handler: Handler = handler if handler is not None else _default_handler
        self.max_body_bytes = max_body_bytes
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._listener.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ, ("accept", None))
        # Self-pipe: shutdown() can wake the loop from any thread.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, ("wake", None))
        self._connections: Dict[int, _Connection] = {}
        self._shutdown_requested = threading.Event()
        self._serving = threading.Event()
        self._closed = False
        #: Callbacks to run after loop exit (e.g. stopping a shard pool).
        self.on_close: List[Callable[[], None]] = []
        # Deadline-ordered timers for call_later (healthz ping timeouts).
        self._timers: List[Tuple[float, int, Callable[[], None]]] = []
        self._timer_lock = threading.Lock()
        self._timer_seq = itertools.count()

    # ------------------------------------------------------------------
    # Public surface (ThreadingHTTPServer-compatible)
    # ------------------------------------------------------------------
    @property
    def server_address(self) -> Tuple[str, int]:
        return self._listener.getsockname()[:2]

    def add_reader(self, fileobj, callback: Callable[[], None]) -> None:
        """Watch an extra readable fd (worker pipe) from the event loop."""
        self._selector.register(fileobj, selectors.EVENT_READ, ("reader", callback))

    def remove_reader(self, fileobj) -> None:
        """Stop watching ``fileobj`` (idempotent; a worker pipe at EOF)."""
        try:
            self._selector.unregister(fileobj)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` on the event loop after ``delay`` seconds.

        Thread-safe; used for deferred-response deadlines (the sharded
        healthz ping timeout).  Callbacks run at-most-once, best-effort
        after the deadline — not a general-purpose scheduler.
        """
        with self._timer_lock:
            heapq.heappush(
                self._timers, (time.monotonic() + delay, next(self._timer_seq), callback)
            )
        try:
            self._wake_send.send(b"t")
        except OSError:  # pragma: no cover - already closed
            pass

    def _run_due_timers(self) -> float:
        """Fire expired timers; return the select timeout until the next."""
        due: List[Callable[[], None]] = []
        with self._timer_lock:
            now = time.monotonic()
            while self._timers and self._timers[0][0] <= now:
                due.append(heapq.heappop(self._timers)[2])
            timeout = 1.0
            if self._timers:
                timeout = min(timeout, max(0.0, self._timers[0][0] - now))
        for callback in due:
            callback()
        return timeout

    def serve_forever(self, poll_interval: Optional[float] = None) -> None:
        """Run the event loop until :meth:`shutdown` is called."""
        del poll_interval  # signature compatibility; the self-pipe wakes us
        self._serving.set()
        try:
            while not self._shutdown_requested.is_set():
                timeout = self._run_due_timers()
                events = self._selector.select(timeout=timeout)
                for key, mask in events:
                    kind, payload = key.data
                    if kind == "accept":
                        self._accept()
                    elif kind == "wake":
                        self._drain_wake()
                    elif kind == "reader":
                        payload()
                    elif kind == "client":
                        self._service_client(payload, mask)
        finally:
            self._serving.clear()

    def shutdown(self) -> None:
        """Stop ``serve_forever`` (thread-safe, idempotent)."""
        self._shutdown_requested.set()
        try:
            self._wake_send.send(b"x")
        except OSError:  # pragma: no cover - already closed
            pass

    def server_close(self) -> None:
        """Release every socket (call after ``serve_forever`` returns)."""
        if self._closed:
            return
        self._closed = True
        for connection in list(self._connections.values()):
            self._close_connection(connection)
        for sock in (self._listener, self._wake_recv, self._wake_send):
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._selector.close()
        for callback in self.on_close:
            callback()

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform-dependent
                pass
            connection = _Connection(sock)
            self._connections[sock.fileno()] = connection
            self._selector.register(sock, selectors.EVENT_READ, ("client", connection))
            registry = get_registry()
            registry.inc("http_connections_total")
            registry.set_gauge("http_connections_open", len(self._connections))

    def _drain_wake(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _service_client(self, connection: _Connection, mask: int) -> None:
        if connection.closed:
            return
        if mask & selectors.EVENT_WRITE:
            self._flush(connection)
        if connection.closed or not (mask & selectors.EVENT_READ):
            return
        try:
            chunk = connection.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_connection(connection)
            return
        if not chunk:
            self._close_connection(connection)
            return
        connection.inbuf += chunk
        self._advance(connection)

    def _advance(self, connection: _Connection) -> None:
        """Parse and dispatch as many buffered requests as possible."""
        while not connection.closed and not connection.in_flight:
            if connection.header_end < 0:
                end = connection.inbuf.find(b"\r\n\r\n")
                if end < 0:
                    if len(connection.inbuf) > MAX_HEADER_BYTES:
                        self._refuse(connection, ServiceError(
                            "malformed_record", "request headers too large"
                        ))
                    return
                if not self._parse_head(connection, end):
                    return
            total = connection.header_end + 4 + connection.content_length
            if len(connection.inbuf) < total:
                return
            body = bytes(
                connection.inbuf[connection.header_end + 4 : total]
            ) if connection.content_length else None
            del connection.inbuf[:total]
            method, path = connection.method, connection.path
            connection.in_flight = True
            respond = self._make_respond(connection)
            # Expose the request headers to the application (trace ids).
            respond.request_headers = dict(connection.headers)  # type: ignore[attr-defined]
            try:
                self.handler(method, path, body, respond)  # type: ignore[arg-type]
            except ServiceError as error:
                respond(error.status, error.envelope())
            except Exception as error:  # pragma: no cover - defensive
                fallback = ServiceError(
                    "internal_error", f"{type(error).__name__}: {error}"
                )
                respond(fallback.status, fallback.envelope())

    def _parse_head(self, connection: _Connection, end: int) -> bool:
        """Parse the request line + headers ending at ``end``; False on error."""
        head = bytes(connection.inbuf[:end])
        connection.header_end = end
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, path, version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            self._refuse(
                connection, ServiceError("malformed_record", "malformed HTTP request line")
            )
            return False
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        connection.method = method.upper()
        connection.path = path
        connection.headers = headers
        wants_close = headers.get("connection", "").lower() == "close"
        connection.keep_alive = version.endswith("1.1") and not wants_close
        try:
            connection.content_length = int(headers.get("content-length", 0))
        except ValueError:
            self._refuse(
                connection, ServiceError("malformed_record", "bad Content-Length header")
            )
            return False
        if connection.content_length > self.max_body_bytes:
            self._refuse(
                connection,
                ServiceError(
                    "body_too_large",
                    f"request body exceeds {self.max_body_bytes} bytes",
                ),
            )
            return False
        return True

    def _refuse(self, connection: _Connection, error: ServiceError) -> None:
        """Answer an unparseable/oversized request and close afterwards."""
        connection.in_flight = True
        connection.keep_alive = False
        self._make_respond(connection)(error.status, error.envelope())

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def _make_respond(self, connection: _Connection) -> Respond:
        answered = [False]

        def respond(status: int, body: object, headers: Headers = ()) -> None:
            if answered[0] or connection.closed:
                return
            answered[0] = True
            if isinstance(body, (bytes, bytearray)):
                data = bytes(body)
            else:
                data = json.dumps(body, sort_keys=True).encode("utf-8")
            reason = _REASONS.get(status, "Unknown")
            keep = connection.keep_alive
            # An explicit Content-Type in the extra headers overrides the
            # JSON default (the Prometheus text exposition needs this).
            extra = [(n, v) for n, v in headers if n.lower() != "content-type"]
            content_type = next(
                (v for n, v in headers if n.lower() == "content-type"),
                "application/json",
            )
            head = [
                f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(data)}",
                f"Connection: {'keep-alive' if keep else 'close'}",
            ]
            head.extend(f"{name}: {value}" for name, value in extra)
            connection.outbuf += "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + data
            connection.close_after_write = not keep
            connection.reset_request()
            self._flush(connection)
            if not connection.closed:
                if connection.outbuf:
                    self._set_events(
                        connection, selectors.EVENT_READ | selectors.EVENT_WRITE
                    )
                else:
                    # Fully flushed: more pipelined input may be buffered.
                    self._advance(connection)

        return respond

    def _flush(self, connection: _Connection) -> None:
        while connection.outbuf:
            try:
                sent = connection.sock.send(connection.outbuf)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._close_connection(connection)
                return
            if sent <= 0:  # pragma: no cover - send never returns 0 here
                return
            del connection.outbuf[:sent]
        if connection.close_after_write:
            self._close_connection(connection)
        else:
            self._set_events(connection, selectors.EVENT_READ)

    def _set_events(self, connection: _Connection, events: int) -> None:
        try:
            self._selector.modify(connection.sock, events, ("client", connection))
        except (KeyError, ValueError):  # pragma: no cover - already closed
            pass

    def _close_connection(self, connection: _Connection) -> None:
        if connection.closed:
            return
        connection.closed = True
        self._connections.pop(connection.sock.fileno(), -1)
        get_registry().set_gauge("http_connections_open", len(self._connections))
        try:
            self._selector.unregister(connection.sock)
        except (KeyError, ValueError):
            pass
        try:
            connection.sock.close()
        except OSError:  # pragma: no cover - defensive
            pass


def _default_handler(method, path, body, respond) -> None:
    """Placeholder handler: every route 404s (server built without app)."""
    error = ServiceError("unknown_route", f"no handler installed for {method} {path}")
    respond(error.status, error.envelope())
