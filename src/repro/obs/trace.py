"""Request tracing: contextvars-propagated trace ids + per-stage spans.

A :class:`Trace` is one request's identity (``trace_id``) plus the
ordered list of stage spans recorded while it was current.  The front
end opens a trace per HTTP request (honouring an ``X-Trace-Id`` request
header so callers can correlate), installs it with :func:`use_trace`,
and every layer below — dispatcher, shard worker, session, discovery —
records into whatever trace is current via :func:`add_span` without
threading a handle through the call stack.

Crossing the shard pipes: the dispatcher stamps each pipe message with
the trace id; the worker opens its *own* ``Trace(trace_id)`` around
:func:`repro.service.ops.execute`, ships the collected spans back in
the reply, and the front end folds them into the request's trace with
:meth:`Trace.extend`.  Worker-side spans are therefore observed into
the worker's histogram registry (where the stage actually ran), not
double-counted at the front end.

Stage vocabulary (the ``stage_seconds{stage=...}`` histogram): ``parse``
(request body decode), ``pipe`` (dispatch + pipe round-trip), ``execute``
(worker/inline operation), ``statistics`` (one FD statistics pass),
``scoring`` (measure evaluation), ``expectation`` (the RFI+/RFI'+
permutation expectation of one statistics object; its time is also part
of ``scoring``), ``delta`` (one accepted ``apply_delta`` batch's row
mutation plus its incremental-tracker maintenance; the re-scores that
follow record their own ``statistics`` spans), ``discovery`` (lattice /
chunked screen).

Like all of ``repro.obs``, tracing is read-only with respect to
results: with no current trace (or a disabled registry) every call here
is a cheap no-op and outputs are bit-identical.
"""

from __future__ import annotations

import contextlib
import time
import uuid
from contextvars import ContextVar
from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import get_registry

__all__ = [
    "Trace",
    "add_span",
    "current_trace",
    "new_trace_id",
    "span",
    "use_trace",
]


def new_trace_id() -> str:
    """A fresh 16-hex-char request id (collision-safe at service scale)."""
    return uuid.uuid4().hex[:16]


class Trace:
    """One request's trace: an id plus the spans recorded under it."""

    __slots__ = ("trace_id", "spans")

    def __init__(self, trace_id: Optional[str] = None):
        self.trace_id = trace_id or new_trace_id()
        self.spans: List[Dict[str, object]] = []

    def record(self, name: str, seconds: float, **extra) -> None:
        """Append one span (also observed into ``stage_seconds``)."""
        span_ = {"name": name, "seconds": seconds}
        span_.update(extra)
        self.spans.append(span_)

    def extend(self, spans: Optional[Iterable[Dict[str, object]]]) -> None:
        """Fold spans shipped back from a worker (already observed there)."""
        if spans:
            self.spans.extend(dict(span_) for span_ in spans)

    def span_dicts(self) -> List[Dict[str, object]]:
        return [dict(span_) for span_ in self.spans]


_CURRENT: ContextVar[Optional[Trace]] = ContextVar("repro_obs_trace", default=None)


def current_trace() -> Optional[Trace]:
    """The trace installed by the innermost :func:`use_trace`, if any."""
    return _CURRENT.get()


@contextlib.contextmanager
def use_trace(trace: Trace):
    """Install ``trace`` as the current trace for the enclosed block."""
    token = _CURRENT.set(trace)
    try:
        yield trace
    finally:
        _CURRENT.reset(token)


def add_span(name: str, seconds: float, **extra) -> None:
    """Record a completed stage: histogram observation + current-trace span.

    The ``stage_seconds{stage=name}`` observation happens in *this*
    process's registry whether or not a trace is current, so stage
    timings aggregate fleet-wide even for untraced work (CLI runs,
    benchmark loops).  The span itself attaches only when a request
    trace is active.
    """
    get_registry().observe("stage_seconds", seconds, stage=name)
    trace = _CURRENT.get()
    if trace is not None:
        trace.record(name, seconds, **extra)


@contextlib.contextmanager
def span(name: str, **extra):
    """Time the enclosed block as one stage (see :func:`add_span`)."""
    start = time.perf_counter()
    try:
        yield
    finally:
        add_span(name, time.perf_counter() - start, **extra)
