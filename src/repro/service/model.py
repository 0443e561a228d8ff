"""The typed request/result object model of the service layer.

Every caller-facing surface of the library — the :class:`AfdSession`
facade, the HTTP server, the CLIs — exchanges the dataclasses defined
here instead of the ad-hoc tuples and dicts that previously grew one
per subsystem:

* :class:`ProfileRequest` — "score this FD with these measures";
* :class:`BatchScoreRequest` — many :class:`ProfileRequest`\\ s against
  one relation, answered under one lock acquisition: one statistics
  pass per distinct FD not already cached, identical probes scored once;
* :class:`ScoredFd` — one FD with its per-measure scores and
  exactness flag;
* :class:`ProfileResult` — the scores, per-measure runtimes and cache
  provenance of one profiled FD;
* :class:`BatchScoreResult` — the per-request results of one batch;
* :class:`DiscoveryResult` — the full scored candidate set of one
  discovery run plus its pruning counters and acceptance view, as
  :func:`repro.discovery.discover_afds` builds it;
* :class:`StreamUpdate` — the state of a dynamic session after a
  mutation batch (epoch, live rows, per-FD scores).

Each class has a stable ``to_dict()`` / ``from_dict()`` pair defining
its JSON schema (``schema`` stamps the version, ``kind`` the record
type), so HTTP payloads, CLI artifacts, persisted results and the
shard-worker pipe protocol all round-trip losslessly through ``json``.
``from_dict`` validates its input and raises :class:`ValueError` on
malformed payloads — the server's ``malformed_record`` path.

This module also defines the service's **error contract**
(:data:`ERROR_CODES`, :class:`ServiceError`): every failing endpoint
answers one JSON envelope ``{"error": {"code", "message", "detail"}}``
with a stable machine-readable code, never a bare string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.relation.fd import FunctionalDependency

#: Version stamped into every ``to_dict()`` payload.  Bump on any
#: backwards-incompatible schema change.
SCHEMA_VERSION = 4


# ----------------------------------------------------------------------
# Error contract
# ----------------------------------------------------------------------
#: The stable machine-readable error codes of the ``/v1`` API, mapped to
#: their meaning.  Clients dispatch on ``error.code``; ``error.message``
#: is human-readable and may change wording between releases,
#: ``error.detail`` carries optional structured context.
ERROR_CODES: Dict[str, str] = {
    "unknown_route": "no route matches the request path",
    "method_not_allowed": "the route exists, but not for this HTTP method",
    "unknown_relation": "the addressed relation is not registered",
    "relation_exists": "a relation with this name is already registered",
    "malformed_record": "the request body failed schema validation",
    "unknown_measure": "a requested measure name is not registered",
    "not_dynamic": "a stream operation addressed a static session",
    "body_too_large": "the request body exceeds the configured size cap",
    "wrong_shard": "the request reached a worker that does not own the relation",
    "worker_unavailable": "the shard worker that owns the relation is dead or unreachable",
    "internal_error": "unexpected server-side failure",
}

#: Default HTTP status per error code.
ERROR_STATUS: Dict[str, int] = {
    "unknown_route": 404,
    "method_not_allowed": 405,
    "unknown_relation": 404,
    "relation_exists": 409,
    "malformed_record": 400,
    "unknown_measure": 400,
    "not_dynamic": 400,
    "body_too_large": 413,
    "wrong_shard": 421,
    "worker_unavailable": 503,
    "internal_error": 500,
}


class ServiceError(Exception):
    """A coded service failure, serialisable as the one error envelope.

    Every endpoint answers failures as ``{"error": {"code", "message",
    "detail"}}`` where ``code`` is drawn from :data:`ERROR_CODES`; the
    HTTP status follows :data:`ERROR_STATUS` unless overridden.
    """

    def __init__(
        self,
        code: str,
        message: str,
        detail: Optional[object] = None,
        status: Optional[int] = None,
    ):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}; known: {sorted(ERROR_CODES)}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.detail = detail
        self.status = status if status is not None else ERROR_STATUS[code]

    def envelope(self) -> Dict[str, object]:
        """The JSON error body: ``{"error": {"code", "message", "detail"}}``."""
        return {
            "error": {"code": self.code, "message": self.message, "detail": self.detail}
        }

    @classmethod
    def from_envelope(
        cls, payload: Mapping, status: Optional[int] = None
    ) -> "ServiceError":
        """Rebuild the error from its envelope (the client/pipe side)."""
        error = payload.get("error") if isinstance(payload, Mapping) else None
        if not isinstance(error, Mapping) or "code" not in error:
            raise ValueError(f"not an error envelope: {payload!r}")
        code = error["code"] if error["code"] in ERROR_CODES else "internal_error"
        return cls(
            code,
            str(error.get("message", ERROR_CODES[code])),
            detail=error.get("detail"),
            status=status,
        )


#: Response fields that legitimately differ between two serving runs of
#: the same request sequence: wall-clock timings and cache provenance.
#: :func:`stable_view` strips exactly these, so "bit-identical serving"
#: can be asserted as equality of the stripped payloads.
VOLATILE_FIELDS = frozenset(
    {"runtimes", "statistics_seconds", "cache_hit", "seconds", "uptime_seconds", "cache"}
)


def stable_view(payload: object) -> object:
    """``payload`` with every volatile (timing/provenance) field removed.

    Recurses through nested mappings and sequences; use it to compare
    responses across serving configurations (serial vs sharded, batch vs
    sequential) where the *numbers* must be bit-identical but wall-clock
    fields cannot be.
    """
    if isinstance(payload, Mapping):
        return {
            key: stable_view(value)
            for key, value in payload.items()
            if key not in VOLATILE_FIELDS
        }
    if isinstance(payload, (list, tuple)):
        return [stable_view(item) for item in payload]
    return payload


def fd_to_dict(fd: FunctionalDependency) -> Dict[str, List[str]]:
    """The JSON form of an FD: ``{"lhs": [...], "rhs": [...]}``."""
    return {"lhs": list(fd.lhs), "rhs": list(fd.rhs)}


def fd_from_value(value: object) -> FunctionalDependency:
    """Parse an FD from its JSON form or from ``"A, B -> C"`` text."""
    if isinstance(value, FunctionalDependency):
        return value
    if isinstance(value, str):
        return FunctionalDependency.parse(value)
    if isinstance(value, Mapping):
        try:
            return FunctionalDependency(value["lhs"], value["rhs"])
        except KeyError as error:
            raise ValueError(
                f"FD payload must have 'lhs' and 'rhs' keys, got {sorted(value)}"
            ) from error
    raise ValueError(f"cannot parse a functional dependency from {value!r}")


def _require(payload: Mapping, keys: Sequence[str], kind: str) -> None:
    if not isinstance(payload, Mapping):
        raise ValueError(f"{kind} payload must be a mapping, got {type(payload).__name__}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{kind} payload is missing keys {missing}")


def _check_kind(payload: Mapping, kind: str) -> None:
    found = payload.get("kind", kind)
    if found != kind:
        raise ValueError(f"expected a {kind!r} payload, got kind {found!r}")


@dataclass(frozen=True)
class ProfileRequest:
    """One scoring request: an FD plus an optional measure subset.

    ``measures=None`` means "every measure the session holds" — the
    session, not the request, owns the measure parameterisation (SFI
    smoothing), so requests stay small and cacheable.
    """

    fd: FunctionalDependency
    measures: Optional[Tuple[str, ...]] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "profile_request",
            "fd": fd_to_dict(self.fd),
            "measures": None if self.measures is None else list(self.measures),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ProfileRequest":
        _require(payload, ("fd",), "ProfileRequest")
        _check_kind(payload, "profile_request")
        measures = payload.get("measures")
        if measures is not None and (
            isinstance(measures, str)
            or not all(isinstance(name, str) for name in measures)
        ):
            raise ValueError(f"'measures' must be a list of names, got {measures!r}")
        return cls(
            fd=fd_from_value(payload["fd"]),
            measures=None if measures is None else tuple(measures),
        )


@dataclass(frozen=True)
class ScoredFd:
    """One FD with its per-measure scores and exactness flag."""

    lhs: Tuple[str, ...]
    rhs: Tuple[str, ...]
    scores: Dict[str, float]
    exact: bool = False

    @property
    def fd(self) -> FunctionalDependency:
        return FunctionalDependency(self.lhs, self.rhs)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "scored_fd",
            "lhs": list(self.lhs),
            "rhs": list(self.rhs),
            "scores": dict(self.scores),
            "exact": self.exact,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ScoredFd":
        _require(payload, ("lhs", "rhs", "scores"), "ScoredFd")
        _check_kind(payload, "scored_fd")
        return cls(
            lhs=tuple(payload["lhs"]),
            rhs=tuple(payload["rhs"]),
            scores={name: float(value) for name, value in payload["scores"].items()},
            exact=bool(payload.get("exact", False)),
        )


@dataclass
class ProfileResult:
    """The outcome of profiling one FD on a session.

    ``cache_hit`` records whether the sufficient statistics came out of
    the session cache (in which case ``statistics_seconds`` is 0.0);
    ``epoch`` is the session mutation epoch the scores are valid for
    (always 0 for static sessions).
    """

    relation: str
    num_rows: int
    scored: ScoredFd
    runtimes: Dict[str, float] = field(default_factory=dict)
    statistics_seconds: float = 0.0
    cache_hit: bool = False
    epoch: int = 0

    @property
    def fd(self) -> FunctionalDependency:
        return self.scored.fd

    @property
    def scores(self) -> Dict[str, float]:
        return self.scored.scores

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "profile_result",
            "relation": self.relation,
            "num_rows": self.num_rows,
            "fd": {"lhs": list(self.scored.lhs), "rhs": list(self.scored.rhs)},
            "scores": dict(self.scored.scores),
            "exact": self.scored.exact,
            "runtimes": dict(self.runtimes),
            "statistics_seconds": self.statistics_seconds,
            "cache_hit": self.cache_hit,
            "epoch": self.epoch,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ProfileResult":
        _require(payload, ("relation", "num_rows", "fd", "scores"), "ProfileResult")
        _check_kind(payload, "profile_result")
        fd = fd_from_value(payload["fd"])
        return cls(
            relation=str(payload["relation"]),
            num_rows=int(payload["num_rows"]),
            scored=ScoredFd(
                lhs=tuple(fd.lhs),
                rhs=tuple(fd.rhs),
                scores={name: float(v) for name, v in payload["scores"].items()},
                exact=bool(payload.get("exact", False)),
            ),
            runtimes={name: float(v) for name, v in payload.get("runtimes", {}).items()},
            statistics_seconds=float(payload.get("statistics_seconds", 0.0)),
            cache_hit=bool(payload.get("cache_hit", False)),
            epoch=int(payload.get("epoch", 0)),
        )


@dataclass(frozen=True)
class BatchScoreRequest:
    """Many scoring requests against one relation, answered under one lock.

    The batch is the unit of server-side coalescing: the owning shard
    acquires the session lock once, runs one statistics pass per
    distinct FD whose statistics are not already cached (the session's
    statistics cache serves the rest), and scores each *distinct*
    ``(fd, measures)`` probe exactly once — duplicated probes (the
    common case under concurrent clients) reuse the first result.
    Results are bit-identical to issuing the requests sequentially.
    """

    requests: Tuple[ProfileRequest, ...]

    def __post_init__(self):
        if not self.requests:
            raise ValueError("a BatchScoreRequest needs at least one request")

    def __len__(self) -> int:
        return len(self.requests)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "batch_score_request",
            "requests": [request.to_dict() for request in self.requests],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BatchScoreRequest":
        _require(payload, ("requests",), "BatchScoreRequest")
        _check_kind(payload, "batch_score_request")
        requests = payload["requests"]
        if isinstance(requests, (str, Mapping)) or not isinstance(requests, Sequence):
            raise ValueError(f"'requests' must be a list of requests, got {requests!r}")
        if not requests:
            raise ValueError("'requests' must be non-empty")
        return cls(
            requests=tuple(ProfileRequest.from_dict(item) for item in requests)
        )


@dataclass
class BatchScoreResult:
    """The per-request results of one scored batch.

    ``results[i]`` answers ``requests[i]`` of the originating
    :class:`BatchScoreRequest` and is exactly the :class:`ProfileResult`
    a sequential ``score()`` of that request would have produced
    (volatile timing fields aside — see :func:`stable_view`).
    ``distinct`` counts the probes actually scored after in-batch
    deduplication; ``seconds`` is the wall-clock of the whole batch.
    """

    relation: str
    results: List[ProfileResult] = field(default_factory=list)
    distinct: int = 0
    seconds: float = 0.0
    epoch: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "batch_score_result",
            "relation": self.relation,
            "results": [result.to_dict() for result in self.results],
            "distinct": self.distinct,
            "seconds": self.seconds,
            "epoch": self.epoch,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BatchScoreResult":
        _require(payload, ("relation", "results"), "BatchScoreResult")
        _check_kind(payload, "batch_score_result")
        return cls(
            relation=str(payload["relation"]),
            results=[ProfileResult.from_dict(item) for item in payload["results"]],
            distinct=int(payload.get("distinct", 0)),
            seconds=float(payload.get("seconds", 0.0)),
            epoch=int(payload.get("epoch", 0)),
        )


@dataclass
class DiscoveryResult:
    """All scored candidates of one discovery run.

    The one result record of discovery: the engine
    (:func:`repro.discovery.discover_afds`), :func:`minimal_cover
    <repro.discovery.minimal_cover>`, the session, the HTTP API and the
    CLI all hand this object on.  Candidates are :class:`ScoredFd`
    objects in traversal order; ``counters`` holds the work counters
    ``candidates``, ``pruned_exact`` (supersets of an exact LHS scored
    without a pass), ``pruned_key`` (key LHSs), ``statistics_computed``
    (statistics passes performed) and ``dropped_non_minimal``
    (candidates a minimal-cover reduction removed); ``epoch`` is the
    session epoch the scores are valid for (0 outside dynamic sessions).
    The whole result round-trips through JSON.
    """

    relation: str
    measure_names: List[str]
    thresholds: Dict[str, float]
    candidates: List[ScoredFd] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    max_lhs_size: int = 1
    epoch: int = 0

    def accepted(self, measure: str) -> List[ScoredFd]:
        """Candidates meeting the measure's threshold, best score first."""
        threshold = self.thresholds[measure]
        hits = [c for c in self.candidates if c.scores[measure] >= threshold]
        return sorted(hits, key=lambda c: -c.scores[measure])

    def accepted_fds(self, measure: str) -> List[FunctionalDependency]:
        return [scored.fd for scored in self.accepted(measure)]

    def exact_fds(self) -> List[FunctionalDependency]:
        return [scored.fd for scored in self.candidates if scored.exact]

    def __len__(self) -> int:
        return len(self.candidates)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "discovery_result",
            "relation": self.relation,
            "measure_names": list(self.measure_names),
            "thresholds": dict(self.thresholds),
            "max_lhs_size": self.max_lhs_size,
            "counters": dict(self.counters),
            "epoch": self.epoch,
            "candidates": [
                {
                    "lhs": list(c.lhs),
                    "rhs": list(c.rhs),
                    "scores": dict(c.scores),
                    "exact": c.exact,
                }
                for c in self.candidates
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DiscoveryResult":
        _require(
            payload, ("relation", "measure_names", "thresholds", "candidates"), "DiscoveryResult"
        )
        _check_kind(payload, "discovery_result")
        return cls(
            relation=str(payload["relation"]),
            measure_names=list(payload["measure_names"]),
            thresholds={name: float(v) for name, v in payload["thresholds"].items()},
            candidates=[
                ScoredFd(
                    lhs=tuple(c["lhs"]),
                    rhs=tuple(c["rhs"]),
                    scores={name: float(v) for name, v in c["scores"].items()},
                    exact=bool(c.get("exact", False)),
                )
                for c in payload["candidates"]
            ],
            counters={name: int(v) for name, v in payload.get("counters", {}).items()},
            max_lhs_size=int(payload.get("max_lhs_size", 1)),
            epoch=int(payload.get("epoch", 0)),
        )


@dataclass
class StreamUpdate:
    """The state of a dynamic session after (or between) mutation batches.

    ``scores`` and ``restricted_rows`` are keyed by the FD's canonical
    text form (``"A, B -> C"``); ``inserted`` / ``deleted`` count the
    rows this update applied (both 0 for a pure re-scoring snapshot).
    """

    relation: str
    epoch: int
    live_rows: int
    inserted: int = 0
    deleted: int = 0
    scores: Dict[str, Dict[str, float]] = field(default_factory=dict)
    restricted_rows: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "stream_update",
            "relation": self.relation,
            "epoch": self.epoch,
            "live_rows": self.live_rows,
            "inserted": self.inserted,
            "deleted": self.deleted,
            "scores": {fd: dict(scores) for fd, scores in self.scores.items()},
            "restricted_rows": dict(self.restricted_rows),
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StreamUpdate":
        _require(payload, ("relation", "epoch", "live_rows"), "StreamUpdate")
        _check_kind(payload, "stream_update")
        return cls(
            relation=str(payload["relation"]),
            epoch=int(payload["epoch"]),
            live_rows=int(payload["live_rows"]),
            inserted=int(payload.get("inserted", 0)),
            deleted=int(payload.get("deleted", 0)),
            scores={
                fd: {name: float(v) for name, v in scores.items()}
                for fd, scores in payload.get("scores", {}).items()
            },
            restricted_rows={
                fd: int(v) for fd, v in payload.get("restricted_rows", {}).items()
            },
            seconds=float(payload.get("seconds", 0.0)),
        )


#: ``from_dict`` dispatch by the payload's ``kind`` field.
_KINDS = {
    "profile_request": ProfileRequest,
    "batch_score_request": BatchScoreRequest,
    "scored_fd": ScoredFd,
    "profile_result": ProfileResult,
    "batch_score_result": BatchScoreResult,
    "discovery_result": DiscoveryResult,
    "stream_update": StreamUpdate,
}

ServiceRecord = Union[
    ProfileRequest,
    BatchScoreRequest,
    ScoredFd,
    ProfileResult,
    BatchScoreResult,
    DiscoveryResult,
    StreamUpdate,
]


def record_from_dict(payload: Mapping) -> ServiceRecord:
    """Rebuild any service record from its ``to_dict()`` form."""
    if not isinstance(payload, Mapping) or "kind" not in payload:
        raise ValueError("service payload must be a mapping with a 'kind' field")
    kind = payload["kind"]
    cls = _KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown service record kind {kind!r}; known: {sorted(_KINDS)}")
    return cls.from_dict(payload)
