"""``repro.service`` — the unified session API and profiling server.

One front door for every caller:

* :class:`AfdSession` — a facade owning one relation plus every
  expensive derived artifact (dictionary encoding, sufficient
  statistics, incremental trackers), with ``score()`` / ``score_many()``
  / ``discover()`` / ``apply_delta()`` / ``snapshot_scores()`` methods
  that never recompute what the session already holds;
* the typed request/result model (:mod:`repro.service.model`) with
  stable ``to_dict()`` / ``from_dict()`` JSON schemas shared by the
  library API, the CLIs and the HTTP server, plus the
  :class:`ServiceError` envelope contract (``ERROR_CODES``) every
  server failure follows;
* the profiling server (:mod:`repro.service.server`,
  ``python -m repro.serve``): a versioned ``/v1`` JSON-over-HTTP API on
  a selector-based async front end, serving in-process
  (``--workers 0``) or sharded across session-owning worker processes
  (:mod:`repro.service.shard`, ``--workers N``).

Quickstart::

    from repro.service import AfdSession

    session = AfdSession(relation)
    print(session.score("zip -> city").scores)
    found = session.discover(threshold=0.9, max_lhs_size=2)
    print(session.score(found.accepted_fds("g3")[0]).cache_hit)  # True
"""

from repro.service.model import (
    ERROR_CODES,
    SCHEMA_VERSION,
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
from repro.service.session import AfdSession

__all__ = [
    "ERROR_CODES",
    "SCHEMA_VERSION",
    "AfdSession",
    "BatchScoreRequest",
    "BatchScoreResult",
    "DiscoveryResult",
    "ProfileRequest",
    "ProfileResult",
    "ScoredFd",
    "ServiceError",
    "StreamUpdate",
    "record_from_dict",
    "stable_view",
]
