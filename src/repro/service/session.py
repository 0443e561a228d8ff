"""The :class:`AfdSession` facade — one front door per relation.

A session owns one :class:`~repro.relation.relation.Relation` (static)
or one :class:`~repro.stream.dynamic.DynamicRelation` (mutable) together
with every expensive artifact derived from it:

* the **dictionary encoding** (:meth:`Relation.columnar`, cached on the
  relation itself and built once; on a dynamic session only discovery
  reads a snapshot, which is encoded on that first pass, while scores
  come from the trackers);
* **sufficient statistics** keyed by FD (one :class:`FdStatistics` per
  FD per epoch, shared by :meth:`score`, :meth:`discover` and
  :meth:`snapshot_scores` — and with it every derived quantity cached on
  the statistics object, including the permutation expectation);
* one **memo of hypergeometric cells** for the exact RFI+ expectation,
  keyed ``(min(a, b), max(a, b), N)`` and handed to every statistics
  object the session computes, so each distinct cell is evaluated once
  across all candidates and both directions of an FD.  A cell's value
  does not depend on the epoch, so deltas keep the memo; it is bounded
  (:mod:`repro.core.expectations` clears it when full) and never
  outlives the session;
* on dynamic sessions, **incremental trackers**
  (:class:`~repro.stream.statistics.IncrementalFdStatistics`) for every
  FD scored through the session.  Each keeps its count histograms and
  integer facts current in O(1) per inserted or deleted row, so
  :meth:`apply_delta` costs O(Δ) maintenance (one ``delta`` span) plus
  one O(distinct counts) refresh per tracked FD (its ``statistics``
  span) instead of O(rows).

Scoring an FD after discovery, re-scoring after a stream batch, or
discovering twice therefore never recomputes what the session already
holds.  The ``repro.obs`` counters prove it:
``session_statistics_total{relation,result}`` (``hit`` / ``miss`` /
``incremental``) and ``session_operations_total{relation,op}``;
:meth:`describe` reports the cache sizes.

**Bit-identity.**  Every cached artifact is exactly what the direct call
path would produce — :meth:`score` equals ``FdStatistics.compute`` +
``score_from_statistics``, :meth:`discover` equals
:func:`~repro.discovery.discover_afds` on the session's source
(the static relation, the chunked store or the dynamic snapshot), and
dynamic re-scoring equals a from-scratch recompute on the
snapshot (the ``repro.stream`` contract) — so session results are
``==``-identical to the direct calls whichever statistics kernel runs.

**Concurrency.**  All public methods serialise on one reentrant
per-session lock: concurrent callers (the HTTP server's worker threads)
share cached artifacts safely and produce bit-identical results to
serial execution.  Different sessions do not contend.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.base import AfdMeasure
from repro.core.registry import all_measures
from repro.core.statistics import ExpectationCells, FdStatistics
from repro.obs.metrics import get_registry
from repro.obs.trace import add_span, span
from repro.relation.fd import FunctionalDependency
from repro.relation.relation import Relation
from repro.service.model import (
    BatchScoreRequest,
    BatchScoreResult,
    DiscoveryResult,
    ProfileRequest,
    ProfileResult,
    ScoredFd,
    StreamUpdate,
    fd_from_value,
)

FdLike = Union[FunctionalDependency, str, Mapping]


class AfdSession:
    """A profiling session over one relation with shared artifact caches.

    Parameters
    ----------
    relation:
        A :class:`Relation` (static session) or
        :class:`~repro.stream.dynamic.DynamicRelation` (dynamic session
        supporting :meth:`apply_delta`).
    measures:
        Optional pre-built ``name -> AfdMeasure`` mapping.  When omitted,
        the full registry is built from ``measure_options`` (the
        ``sfi_alpha`` option of :func:`repro.core.registry.all_measures`).
    name:
        Session name (defaults to the relation's name).

    Static and :class:`~repro.relation.chunked.ChunkedRelation` sessions
    compute statistics with :meth:`FdStatistics.compute` (one chunked
    pass, so huge relations just work); dynamic sessions refresh through
    incremental trackers.
    """

    def __init__(
        self,
        relation,
        measures: Optional[Mapping[str, AfdMeasure]] = None,
        name: Optional[str] = None,
        **measure_options,
    ):
        from repro.relation.chunked import ChunkedRelation
        from repro.stream.dynamic import DynamicRelation

        self._chunked: Optional[ChunkedRelation] = None
        if isinstance(relation, DynamicRelation):
            self._dynamic: Optional[DynamicRelation] = relation
            self._static: Optional[Relation] = None
        elif isinstance(relation, ChunkedRelation):
            self._dynamic = None
            self._static = None
            self._chunked = relation
        elif isinstance(relation, Relation):
            self._dynamic = None
            self._static = relation
        else:
            raise TypeError(
                f"AfdSession requires a Relation, ChunkedRelation or "
                f"DynamicRelation, got {type(relation).__name__}"
            )
        self.name = name if name is not None else relation.name
        self._measures: Dict[str, AfdMeasure] = (
            dict(measures) if measures is not None else all_measures(**measure_options)
        )
        if measures is not None and measure_options:
            raise ValueError("pass either a measures mapping or measure options, not both")
        self._lock = threading.RLock()
        self._epoch = 0
        #: FD -> statistics, valid for the current epoch only.
        self._statistics: Dict[FunctionalDependency, FdStatistics] = {}
        #: FD -> incremental tracker (dynamic sessions; survives epochs).
        self._trackers: Dict[FunctionalDependency, object] = {}
        #: Hypergeometric cells of the RFI+ expectation (survives epochs).
        self._expectation_cells: ExpectationCells = {}
        #: ``dynamic.version`` the statistics cache was built against.
        self._cache_version = None if self._dynamic is None else self._dynamic.version

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_dynamic(self) -> bool:
        return self._dynamic is not None

    @property
    def is_chunked(self) -> bool:
        return self._chunked is not None

    @property
    def dynamic(self):
        """The underlying :class:`DynamicRelation`, or ``None``."""
        return self._dynamic

    @property
    def chunked(self):
        """The underlying :class:`ChunkedRelation`, or ``None``."""
        return self._chunked

    @property
    def relation(self) -> Relation:
        """The current relation (the live snapshot on dynamic sessions).

        Chunked sessions have no materialised row list by design; use
        :attr:`chunked` (or ``chunked.to_relation()`` on small data).
        """
        if self._dynamic is not None:
            return self._dynamic.snapshot()
        if self._chunked is not None:
            raise ValueError(
                "a chunked session never materialises its row list; use "
                ".chunked for the ChunkedRelation (or .chunked.to_relation() "
                "explicitly on data small enough to hold in memory)"
            )
        return self._static  # type: ignore[return-value]

    @property
    def attributes(self) -> Tuple[str, ...]:
        if self._dynamic is not None:
            return tuple(self._dynamic.attributes)
        if self._chunked is not None:
            return self._chunked.attributes
        return tuple(self._static.attributes)  # type: ignore[union-attr]

    @property
    def epoch(self) -> int:
        """Mutation epoch: 0 at creation, +1 per :meth:`apply_delta`."""
        return self._epoch

    @property
    def measure_names(self) -> List[str]:
        return list(self._measures)

    @property
    def num_rows(self) -> int:
        if self._dynamic is not None:
            return self._dynamic.num_rows
        if self._chunked is not None:
            return self._chunked.num_rows
        return self._static.num_rows  # type: ignore[union-attr]

    def tracked_fds(self) -> List[FunctionalDependency]:
        """FDs with a live incremental tracker (dynamic sessions)."""
        with self._lock:
            return list(self._trackers)

    def describe(self) -> Dict[str, object]:
        """A JSON-ready summary of the session (the server's listing row)."""
        with self._lock:
            return {
                "name": self.name,
                "attributes": list(self.attributes),
                "num_rows": self.num_rows,
                "dynamic": self.is_dynamic,
                "chunked": self.is_chunked,
                # The stored chunking of a ChunkedRelation (None otherwise).
                "chunk_size": (
                    self._chunked.chunk_size if self._chunked is not None else None
                ),
                "epoch": self._epoch,
                "measures": list(self._measures),
                # Cache levels only; hit/miss counts live in repro.obs.
                "cache": {
                    "cached_statistics": len(self._statistics),
                    "expectation_cells": len(self._expectation_cells),
                    "trackers": len(self._trackers),
                },
            }

    # ------------------------------------------------------------------
    # Statistics cache
    # ------------------------------------------------------------------
    def _statistics_for(
        self, fd: FunctionalDependency, track: bool = True
    ) -> Tuple[FdStatistics, float, bool]:
        """``(statistics, seconds_spent, cache_hit)`` for one FD.

        On dynamic sessions the FD is (by default) enrolled with an
        incremental tracker, so later epochs refresh in O(Δ);
        ``track=False`` (the discovery path) avoids creating trackers
        for the full candidate grid — every tracker costs O(1) per
        subsequent mutation, so only explicitly scored FDs enrol.
        """
        if self._dynamic is not None and self._dynamic.version != self._cache_version:
            # The relation mutated outside apply_delta() (through the
            # exposed .dynamic handle): drop the per-FD statistics so a
            # stale entry can never answer for the new state.
            self._statistics.clear()
            self._cache_version = self._dynamic.version
        enrolled = False
        if self._dynamic is not None and track and fd not in self._trackers:
            # Enrolment happens even when the statistics are already
            # cached: score() promises that later deltas refresh in O(Δ).
            self._trackers[fd] = self._dynamic.track(fd)
            enrolled = True
        registry = get_registry()
        cached = self._statistics.get(fd)
        if cached is not None:
            registry.inc("session_statistics_total", relation=self.name, result="hit")
            return cached, 0.0, True
        result_label = "miss"
        started = time.perf_counter()
        if self._dynamic is not None:
            tracker = self._trackers.get(fd)
            if tracker is not None:
                if not enrolled:
                    result_label = "incremental"
                statistics = tracker.statistics()
            else:
                statistics = FdStatistics.compute(self._dynamic.snapshot(), fd)
        else:
            statistics = FdStatistics.compute(
                self._chunked if self._chunked is not None else self._static, fd
            )
        seconds = time.perf_counter() - started
        registry.inc("session_statistics_total", relation=self.name, result=result_label)
        add_span("statistics", seconds, fd=str(fd), cache_hit=False)
        statistics.expectation_cells = self._expectation_cells
        self._statistics[fd] = statistics
        return statistics, seconds, False

    def _select(self, names: Optional[Sequence[str]]) -> Dict[str, AfdMeasure]:
        if names is None:
            return self._measures
        unknown = [name for name in names if name not in self._measures]
        if unknown:
            raise KeyError(
                f"unknown measures {unknown}; known: {sorted(self._measures)}"
            )
        return {name: self._measures[name] for name in names}

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score(
        self, fd: FdLike, measures: Optional[Sequence[str]] = None
    ) -> ProfileResult:
        """Profile one FD: scores, per-measure runtimes, cache provenance.

        Bit-identical (``==``) to ``FdStatistics.compute`` followed by
        ``score_from_statistics`` with the same measure parameters.
        """
        with self._lock:
            fd = fd_from_value(fd)
            chosen = self._select(measures)
            statistics, statistics_seconds, cache_hit = self._statistics_for(fd)
            scores: Dict[str, float] = {}
            runtimes: Dict[str, float] = {}
            for name, measure in chosen.items():
                started = time.perf_counter()
                scores[name] = measure.score_from_statistics(statistics)
                runtimes[name] = time.perf_counter() - started
            get_registry().inc("session_operations_total", relation=self.name, op="score")
            add_span("scoring", sum(runtimes.values()), fd=str(fd))
            exact = statistics.satisfied or statistics.is_empty
            return ProfileResult(
                relation=self.name,
                num_rows=self.num_rows,
                scored=ScoredFd(
                    lhs=tuple(fd.lhs), rhs=tuple(fd.rhs), scores=scores, exact=exact
                ),
                runtimes=runtimes,
                statistics_seconds=statistics_seconds,
                cache_hit=cache_hit,
                epoch=self._epoch,
            )

    def profile(self, request: Union[ProfileRequest, Mapping]) -> ProfileResult:
        """Serve a :class:`ProfileRequest` (or its ``to_dict`` form)."""
        if not isinstance(request, ProfileRequest):
            request = ProfileRequest.from_dict(request)
        return self.score(request.fd, measures=request.measures)

    def score_many(
        self, requests: Union[BatchScoreRequest, Sequence[Union[ProfileRequest, Mapping]]]
    ) -> BatchScoreResult:
        """Answer many scoring requests under one lock acquisition.

        The whole batch runs under a single lock acquisition: one
        statistics pass per distinct FD whose statistics are not already
        cached (the first probe of that FD pays it, every later probe is
        a cache hit), and *identical* ``(fd, measures)`` probes —
        the common shape when concurrent clients hammer one hot FD — are
        scored once and fanned out.  ``results[i]`` is bit-identical
        (``==`` on every non-volatile field, exactly equal scores) to
        ``score(requests[i].fd, requests[i].measures)`` issued
        sequentially in batch order.
        """
        if isinstance(requests, BatchScoreRequest):
            items: Sequence[Union[ProfileRequest, Mapping]] = requests.requests
        else:
            items = requests
        parsed = [
            item
            if isinstance(item, ProfileRequest)
            else ProfileRequest.from_dict(item)
            for item in items
        ]
        if not parsed:
            raise ValueError("score_many() needs at least one request")
        with self._lock:
            started = time.perf_counter()
            results: List[Optional[ProfileResult]] = [None] * len(parsed)
            first_index: Dict[Tuple[FunctionalDependency, Optional[Tuple[str, ...]]], int] = {}
            for index, request in enumerate(parsed):
                key = (fd_from_value(request.fd), request.measures)
                seen = first_index.get(key)
                if seen is None:
                    first_index[key] = index
                    results[index] = self.score(request.fd, measures=request.measures)
                else:
                    # A duplicated probe: the sequential result would be
                    # byte-identical (same cached statistics, same
                    # measures), so reuse it instead of re-scoring.
                    results[index] = results[seen]
            return BatchScoreResult(
                relation=self.name,
                results=list(results),  # type: ignore[arg-type]
                distinct=len(first_index),
                seconds=time.perf_counter() - started,
                epoch=self._epoch,
            )

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def discover(
        self,
        threshold=0.9,
        max_lhs_size: int = 1,
        lhs_attributes: Optional[Sequence[str]] = None,
        rhs_attributes: Optional[Sequence[str]] = None,
        minimal_cover: bool = False,
        measures: Optional[Sequence[str]] = None,
    ) -> DiscoveryResult:
        """Run discovery through the session's artifact caches.

        Bit-identical to :func:`repro.discovery.discover_afds` with the
        same arguments on the session's source: the static relation, the
        chunked store (never materialised) or the dynamic snapshot.  Like
        every session answer, the result names the session's relation
        (``name``) and epoch.  Statistics computed here stay in the
        session, so a follow-up :meth:`score` of any non-pruned candidate
        is a cache hit.
        """
        from repro.discovery import discover_afds
        from repro.discovery import minimal_cover as reduce_cover

        with self._lock:
            chosen = self._select(measures)

            def provider(source, fd: FunctionalDependency):
                statistics, _, cache_hit = self._statistics_for(fd, track=False)
                return statistics, not cache_hit

            # A chunked store has no row list: never touch self.relation.
            source = self._chunked if self._chunked is not None else self.relation
            with span("discovery", relation=self.name):
                result = discover_afds(
                    source,
                    measures=chosen,
                    threshold=threshold,
                    max_lhs_size=max_lhs_size,
                    lhs_attributes=lhs_attributes,
                    rhs_attributes=rhs_attributes,
                    statistics_provider=provider,
                )
            if minimal_cover:
                result = reduce_cover(result)
            get_registry().inc(
                "session_operations_total", relation=self.name, op="discover"
            )
            result.relation = self.name
            result.epoch = self._epoch
            return result

    # ------------------------------------------------------------------
    # Dynamic sessions
    # ------------------------------------------------------------------
    def _require_dynamic(self, operation: str):
        if self._dynamic is None:
            raise ValueError(
                f"{operation} requires a dynamic session; construct the "
                f"AfdSession from a DynamicRelation (e.g. "
                f"DynamicRelation.from_relation(relation))"
            )
        return self._dynamic

    def track(self, fd: FdLike):
        """Enrol ``fd`` with an incremental tracker (idempotent)."""
        dynamic = self._require_dynamic("track()")
        with self._lock:
            fd = fd_from_value(fd)
            tracker = self._trackers.get(fd)
            if tracker is None:
                tracker = dynamic.track(fd)
                self._trackers[fd] = tracker
            return tracker

    def untrack(self, fd: FdLike) -> None:
        """Stop maintaining ``fd`` incrementally (no-op if not tracked)."""
        dynamic = self._require_dynamic("untrack()")
        with self._lock:
            tracker = self._trackers.pop(fd_from_value(fd), None)
            if tracker is not None:
                dynamic.untrack(tracker)

    def restricted_rows(self, fd: FdLike) -> int:
        """Live rows that are non-NULL on every attribute of ``fd``."""
        with self._lock:
            statistics, _, _ = self._statistics_for(fd_from_value(fd))
            return statistics.num_rows

    def _score_tracked(
        self, fds: Iterable[FunctionalDependency], measures: Optional[Sequence[str]]
    ) -> Tuple[Dict[str, Dict[str, float]], Dict[str, int]]:
        chosen = self._select(measures)
        scores: Dict[str, Dict[str, float]] = {}
        restricted: Dict[str, int] = {}
        for fd in fds:
            statistics, _, _ = self._statistics_for(fd)
            scores[str(fd)] = {
                name: measure.score_from_statistics(statistics)
                for name, measure in chosen.items()
            }
            restricted[str(fd)] = statistics.num_rows
        return scores, restricted

    def apply_delta(
        self,
        inserts: Iterable[Sequence[object]] = (),
        deletes: Iterable[int] = (),
        measures: Optional[Sequence[str]] = None,
    ) -> StreamUpdate:
        """Apply one mutation batch and re-score every tracked FD.

        ``deletes`` are applied *before* ``inserts``: delete ids must name
        rows that were live before this call, and applying them first
        keeps that true even when the insert half triggers window
        evictions or a history compaction (which re-bases row ids — ids
        captured before the call could otherwise silently alias freshly
        re-based rows).

        The batch is all-or-nothing: unknown measure names
        (:class:`KeyError`), delete ids that are not live or repeat
        (:class:`KeyError`) and inserts of the wrong arity or with an
        unhashable cell (:class:`ValueError`) are rejected before
        anything mutates, so a rejected batch leaves the rows, the epoch
        and every tracker as they were.

        Returns a :class:`StreamUpdate` carrying the new epoch, the live
        row count and the refreshed scores — each tracked FD's statistics
        are maintained in O(1) per mutated row (one ``delta`` span covers
        the mutation and that maintenance) and refreshed once per FD
        (its ``statistics`` span), ``==`` to a from-scratch recompute on
        the new snapshot.
        """
        dynamic = self._require_dynamic("apply_delta()")
        with self._lock:
            started = time.perf_counter()
            self._select(measures)
            inserts = dynamic.check_rows(inserts)
            deletes = dynamic.check_live_ids(deletes)
            # The store mutation and the trackers' O(1)-per-row maintenance.
            with span("delta", relation=self.name):
                if deletes:
                    dynamic.delete(deletes)
                if inserts:
                    dynamic.append(inserts)
            self._epoch += 1
            self._statistics.clear()
            get_registry().inc("session_operations_total", relation=self.name, op="delta")
            scores, restricted = self._score_tracked(list(self._trackers), measures)
            return StreamUpdate(
                relation=self.name,
                epoch=self._epoch,
                live_rows=dynamic.num_rows,
                inserted=len(inserts),
                deleted=len(deletes),
                scores=scores,
                restricted_rows=restricted,
                seconds=time.perf_counter() - started,
            )

    def snapshot_scores(
        self,
        fds: Optional[Iterable[FdLike]] = None,
        measures: Optional[Sequence[str]] = None,
    ) -> StreamUpdate:
        """Score FDs on the current state without mutating anything.

        ``fds=None`` re-scores every tracked FD (dynamic sessions) or
        every FD with cached statistics (static sessions); on dynamic
        sessions explicitly named FDs are enrolled for tracking, so the
        next :meth:`apply_delta` refreshes them incrementally.
        """
        with self._lock:
            started = time.perf_counter()
            if fds is None:
                targets = list(self._trackers) if self._dynamic is not None else list(
                    self._statistics
                )
            else:
                targets = [fd_from_value(fd) for fd in fds]
            scores, restricted = self._score_tracked(targets, measures)
            return StreamUpdate(
                relation=self.name,
                epoch=self._epoch,
                live_rows=self.num_rows,
                scores=scores,
                restricted_rows=restricted,
                seconds=time.perf_counter() - started,
            )
