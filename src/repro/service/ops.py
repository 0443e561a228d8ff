"""The service application core: named sessions + one operation executor.

This module is the HTTP- and transport-agnostic half of the server:

* :class:`ServiceState` — the thread-safe registry of named
  :class:`~repro.service.session.AfdSession`\\ s (one per relation);
* :func:`execute` — the single entry point that runs one named
  operation (``healthz``, ``relations``, ``register``, ``score``,
  ``score_batch``, ``discover``, ``delta``) against a state and returns
  ``(http_status, json_body)``, converting every failure into the
  :class:`~repro.service.model.ServiceError` envelope contract.

Both serving modes share it verbatim: the in-process (``--workers 0``)
front end calls :func:`execute` directly, and every shard worker of
:mod:`repro.service.shard` calls it inside its own process — which is
what makes sharded responses bit-identical to single-process serving.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.obs.metrics import get_registry
from repro.relation.relation import Relation
from repro.service.model import (
    BatchScoreRequest,
    ProfileRequest,
    ServiceError,
)
from repro.service.session import AfdSession


class ServiceState:
    """The server's session registry (thread-safe)."""

    def __init__(self, measure_options: Optional[Dict[str, object]] = None):
        self._measure_options = dict(measure_options or {})
        self._sessions: Dict[str, AfdSession] = {}
        self._lock = threading.Lock()
        self.started = time.time()

    def register_session(self, name: str, session: AfdSession, replace: bool = False) -> None:
        with self._lock:
            if name in self._sessions and not replace:
                raise FileExistsError(
                    f"relation {name!r} is already registered (pass 'replace': true)"
                )
            self._sessions[name] = session

    def register_relation(self, payload: Dict[str, object]) -> AfdSession:
        """Build and register a session from a ``POST /v1/relations`` body."""
        for key in ("name", "attributes", "rows"):
            if key not in payload:
                raise ValueError(f"relation payload is missing {key!r}")
        name = str(payload["name"])
        if not name:
            raise ValueError("relation name must be non-empty")
        attributes = payload["attributes"]
        rows = [tuple(row) for row in payload["rows"]]  # type: ignore[union-attr]
        window = payload.get("window")
        dynamic = bool(payload.get("dynamic", False)) or window is not None
        chunk_size = payload.get("chunk_size")
        chunked = bool(payload.get("chunked", False)) or chunk_size is not None
        if dynamic and chunked:
            raise ValueError(
                "a relation cannot be both dynamic and chunked; dynamic "
                "sessions scale through incremental trackers"
            )
        if dynamic:
            from repro.stream.dynamic import DynamicRelation

            relation = DynamicRelation(
                attributes,  # type: ignore[arg-type]
                rows,
                name=name,
                window=None if window is None else int(window),  # type: ignore[arg-type]
            )
        elif chunked:
            from repro.relation.chunked import ChunkedRelation

            chunk_options = (
                {} if chunk_size is None else {"chunk_size": int(chunk_size)}  # type: ignore[arg-type]
            )
            relation = ChunkedRelation(attributes, rows, name=name, **chunk_options)  # type: ignore[arg-type]
        else:
            relation = Relation(attributes, rows, name=name)  # type: ignore[arg-type]
        session = AfdSession(relation, name=name, **self._measure_options)
        self.register_session(name, session, replace=bool(payload.get("replace", False)))
        return session

    def session(self, name: str) -> AfdSession:
        with self._lock:
            session = self._sessions.get(name)
        if session is None:
            raise KeyError(f"unknown relation {name!r}; registered: {self.session_names()}")
        return session

    def session_names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def describe(self) -> List[Dict[str, object]]:
        with self._lock:
            sessions = list(self._sessions.values())
        return sorted(
            (session.describe() for session in sessions),
            key=lambda entry: str(entry["name"]),
        )


# ----------------------------------------------------------------------
# Operation executor
# ----------------------------------------------------------------------
def _resolve_session(state: ServiceState, payload: Dict[str, object]) -> AfdSession:
    name = payload.get("relation")
    if not isinstance(name, str) or not name:
        raise ServiceError(
            "malformed_record", "the request must name the target relation"
        )
    try:
        return state.session(name)
    except KeyError:
        raise ServiceError(
            "unknown_relation",
            f"unknown relation {name!r}",
            detail={"relation": name, "registered": state.session_names()},
        ) from None


def _op_healthz(state: ServiceState, payload: Dict[str, object]) -> Tuple[int, Dict]:
    return 200, {
        "status": "ok",
        "version": __version__,
        "sessions": state.session_names(),
        "uptime_seconds": time.time() - state.started,
    }


def _op_relations(state: ServiceState, payload: Dict[str, object]) -> Tuple[int, Dict]:
    return 200, {"relations": state.describe()}


def _op_metrics(state: ServiceState, payload: Dict[str, object]) -> Tuple[int, Dict]:
    """This process's metrics snapshot (mergeable; see ``repro.obs.metrics``)."""
    return 200, get_registry().to_dict()


def _op_stats(state: ServiceState, payload: Dict[str, object]) -> Tuple[int, Dict]:
    """Operational JSON snapshot: cache levels and metric totals."""
    sessions = []
    for name in state.session_names():
        row = state.session(name).describe()
        sessions.append({"name": name, "num_rows": row["num_rows"], "cache": row["cache"]})
    return 200, {
        "pid": os.getpid(),
        "sessions": sessions,
        "metrics_totals": get_registry().totals(),
    }


def _op_worker_info(state: ServiceState, payload: Dict[str, object]) -> Tuple[int, Dict]:
    """Cheap liveness probe payload for the sharded healthz detail."""
    names = state.session_names()
    return 200, {"pid": os.getpid(), "relations": names, "sessions": len(names)}


def _op_register(state: ServiceState, payload: Dict[str, object]) -> Tuple[int, Dict]:
    try:
        session = state.register_relation(payload)
    except FileExistsError as error:
        raise ServiceError(
            "relation_exists", str(error), detail={"relation": payload.get("name")}
        ) from None
    except (TypeError, ValueError) as error:
        raise ServiceError("malformed_record", str(error)) from None
    return 201, session.describe()


def _op_score(state: ServiceState, payload: Dict[str, object]) -> Tuple[int, Dict]:
    session = _resolve_session(state, payload)
    request = ProfileRequest.from_dict(
        {"fd": payload.get("fd"), "measures": payload.get("measures")}
    )
    return 200, session.profile(request).to_dict()


def _op_score_batch(state: ServiceState, payload: Dict[str, object]) -> Tuple[int, Dict]:
    session = _resolve_session(state, payload)
    batch = BatchScoreRequest.from_dict(
        {"kind": "batch_score_request", "requests": payload.get("requests")}
    )
    return 200, session.score_many(batch).to_dict()


def _op_discover(state: ServiceState, payload: Dict[str, object]) -> Tuple[int, Dict]:
    session = _resolve_session(state, payload)
    result = session.discover(
        threshold=payload.get("threshold", 0.9),
        max_lhs_size=int(payload.get("max_lhs_size", 1)),  # type: ignore[arg-type]
        lhs_attributes=payload.get("lhs_attributes"),  # type: ignore[arg-type]
        rhs_attributes=payload.get("rhs_attributes"),  # type: ignore[arg-type]
        minimal_cover=bool(payload.get("minimal_cover", False)),
        measures=payload.get("measures"),  # type: ignore[arg-type]
    )
    return 200, result.to_dict()


def _op_delta(state: ServiceState, payload: Dict[str, object]) -> Tuple[int, Dict]:
    session = _resolve_session(state, payload)
    try:
        update = session.apply_delta(
            inserts=[tuple(row) for row in payload.get("inserts", ())],  # type: ignore[union-attr]
            deletes=[int(row_id) for row_id in payload.get("deletes", ())],  # type: ignore[union-attr]
            measures=payload.get("measures"),  # type: ignore[arg-type]
        )
    except ValueError as error:
        if "dynamic session" in str(error):
            raise ServiceError(
                "not_dynamic",
                f"relation {payload.get('relation')!r} is static; "
                f"register it with 'dynamic': true to stream deltas",
            ) from None
        raise
    return 200, update.to_dict()


#: Operation name -> handler.  This is the complete service vocabulary;
#: the HTTP routing table and the shard-worker pipe protocol both
#: address operations by these names.
OPERATIONS: Dict[str, Callable[[ServiceState, Dict[str, object]], Tuple[int, Dict]]] = {
    "healthz": _op_healthz,
    "relations": _op_relations,
    "register": _op_register,
    "score": _op_score,
    "score_batch": _op_score_batch,
    "discover": _op_discover,
    "delta": _op_delta,
    "metrics": _op_metrics,
    "stats": _op_stats,
    "worker_info": _op_worker_info,
}

#: Operations that address one relation (and therefore route to the
#: shard owning it); the remainder are global and answered by
#: broadcast/front-door state.
RELATION_OPS = frozenset({"score", "score_batch", "discover", "delta"})


def execute(
    state: ServiceState, op: str, payload: Optional[Dict[str, object]] = None
) -> Tuple[int, Dict[str, object]]:
    """Run one operation; always returns ``(http_status, json_body)``.

    Failures never escape as exceptions: they come back as the error
    envelope with its mapped status, so transports (HTTP front end,
    shard pipes) forward the pair verbatim.
    """
    payload = payload if payload is not None else {}
    handler = OPERATIONS.get(op)
    if handler is None:
        error = ServiceError("unknown_route", f"unknown operation {op!r}")
        return error.status, error.envelope()
    try:
        return handler(state, payload)
    except ServiceError as error:
        return error.status, error.envelope()
    except KeyError as error:
        # Payload-level lookup failures surface as KeyError from the
        # session (unknown measure names being the canonical case).
        message = error.args[0] if error.args else str(error)
        code = "unknown_measure" if "measure" in str(message) else "malformed_record"
        error_ = ServiceError(code, str(message))
        return error_.status, error_.envelope()
    except (TypeError, ValueError) as error:
        error_ = ServiceError("malformed_record", str(error))
        return error_.status, error_.envelope()
    except Exception as error:  # pragma: no cover - defensive catch-all
        error_ = ServiceError("internal_error", f"{type(error).__name__}: {error}")
        return error_.status, error_.envelope()
