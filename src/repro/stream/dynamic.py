"""Relations that change: the mutable row store behind ``repro.stream``.

:class:`DynamicRelation` is the subsystem's source of truth for a
relation under **inserts and deletes**.  Every row ever appended gets a
monotonically increasing *row id*; deletion tombstones the id instead of
shifting positions, so callers can name rows stably across mutations.
The live rows, in ascending id order, define the *current* relation —
the one a from-scratch :meth:`FdStatistics.compute` would see.

Three design points carry the subsystem:

* **Delta notification.**  Trackers created via :meth:`track` (one
  :class:`~repro.stream.statistics.IncrementalFdStatistics` per FD)
  receive every inserted and deleted row exactly once, in mutation
  order, together with the row's live multiplicity before the change,
  so their statistics stay in lockstep with the store at O(1) per row.
  The store keeps that one full-row multiplicity dict
  (:attr:`row_counts`) for all its trackers: each derives ``Σ_w R(w)²``
  from the multiplicities it is passed, and a tracker enrolled
  mid-stream starts from the dict, one entry per distinct live row.
* **All-or-nothing batches.**  :meth:`append` checks every row's arity
  and :meth:`delete` checks that every id is live and distinct before
  the first mutation, so a rejected batch leaves the store, its
  version and every tracker untouched.
* **Cache ownership.**  A :class:`DynamicRelation` never shares mutable
  state with the :class:`Relation` it was built from
  (:meth:`from_relation` copies the row list), and every mutation
  invalidates the cached snapshot, so stale reads through previously
  returned snapshots are impossible: old snapshots keep their own
  immutable rows and caches, new snapshots are rebuilt on demand.  A
  snapshot is a plain :class:`Relation`: the first statistics pass over
  it encodes it once (:meth:`Relation.columnar`), and trackers never
  need a snapshot at all.

Sliding-window semantics: with ``window=n`` every append beyond ``n``
live rows evicts the oldest live row through the regular delete path
(trackers observe the eviction as an ordinary delete).

**Memory model and compaction.**  Stable ids are bought with
tombstoning: evicted and deleted rows keep their slot in the row list,
so without intervention a long-running windowed stream holds O(total
rows ever appended) state even though only ``window`` rows are live.
*History compaction* caps that: once the tombstone fraction exceeds
``compact_threshold`` (default 0.5; ``None`` disables) and at least
``compact_min`` rows have been appended, the store re-bases the live
rows to ids ``0 .. n-1`` and drops all dead history, preserving live
order.  Trackers hold counts, not ids, so compaction never touches
them.  Compaction only ever runs at the *end* of an :meth:`append` /
:meth:`delete` call, never mid-batch.
The one caller-visible effect: row ids obtained before a compaction no
longer name the same rows afterwards, so callers that hold ids across
batches on a compacting store should re-derive them
(:attr:`compactions` counts the rebases).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.relation.relation import Relation, Row

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.stream.statistics import IncrementalFdStatistics


class DynamicRelation:
    """A bag relation supporting ``append`` / ``delete`` / sliding windows.

    Parameters
    ----------
    attributes:
        Ordered attribute names (validated exactly like :class:`Relation`).
    rows:
        Initial rows (appended with ids ``0 .. len(rows) - 1``).
    name:
        Name stamped on every snapshot (and therefore on every
        ``FdStatistics.relation_name`` derived from one).
    window:
        Optional sliding-window size: appends beyond ``window`` live rows
        evict the oldest live row through the delete path.
    compact_threshold:
        Tombstone fraction (dead / total appended) beyond which dead
        history is compacted away at the end of a mutation call
        (default 0.5; ``None`` disables auto-compaction).
    compact_min:
        Minimum total appended rows before auto-compaction is considered
        (default 256), so small relations keep fully stable ids.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        rows: Iterable[Sequence[object]] = (),
        name: str = "",
        window: Optional[int] = None,
        compact_threshold: Optional[float] = 0.5,
        compact_min: int = 256,
    ):
        self._attributes: Tuple[str, ...] = tuple(attributes)
        if len(set(self._attributes)) != len(self._attributes):
            raise ValueError(f"duplicate attribute names in schema {self._attributes}")
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if compact_threshold is not None and not 0.0 < compact_threshold <= 1.0:
            raise ValueError(
                f"compact_threshold must be in (0, 1] or None, got {compact_threshold}"
            )
        self.name = name
        self.window = window
        self.compact_threshold = compact_threshold
        self.compact_min = compact_min
        #: Number of history compactions performed so far.
        self.compactions = 0
        self._all_rows: List[Row] = []
        # Liveness is membership in this ordered id set; deleted rows keep
        # their slot in _all_rows (tombstoning by omission).
        self._live: Dict[int, None] = {}
        #: Live multiplicity of every distinct row, shared by all trackers.
        self._row_counts: Dict[Row, int] = {}
        self._trackers: List[object] = []
        self._snapshot_cache: Optional[Relation] = None
        #: Monotone mutation counter: bumped on every append/delete/compact,
        #: so derived caches (e.g. an ``AfdSession``'s statistics cache)
        #: can cheaply detect *any* mutation, including out-of-band ones.
        self.version = 0
        self.append(rows)

    @classmethod
    def from_relation(
        cls, relation: Relation, window: Optional[int] = None, **options
    ) -> "DynamicRelation":
        """A dynamic view over a copy of ``relation``'s rows.

        The dynamic relation *owns* its store: it copies the row list, so
        mutations never reach the source relation or its cached encoding
        and frequency caches.
        ``options`` (``compact_threshold`` / ``compact_min``) are
        forwarded to the constructor.
        """
        return cls(
            relation.attributes, relation.rows(), name=relation.name, window=window, **options
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> Tuple[str, ...]:
        return self._attributes

    @property
    def num_rows(self) -> int:
        """Number of *live* rows."""
        return len(self._live)

    def __len__(self) -> int:
        return len(self._live)

    def row(self, row_id: int) -> Row:
        """The value tuple of a row id (live or tombstoned)."""
        return self._all_rows[row_id]

    def live_ids(self) -> List[int]:
        """Live row ids in ascending (append) order."""
        return list(self._live)

    @property
    def row_counts(self) -> Mapping[Row, int]:
        """Live multiplicity of each distinct row (a read-only view)."""
        return MappingProxyType(self._row_counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        label = self.name or "DynamicRelation"
        return (
            f"<{label}: {self.num_rows} live rows "
            f"({len(self._all_rows)} appended) x {len(self._attributes)} attributes>"
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def check_rows(self, rows: Iterable[Sequence[object]]) -> List[Row]:
        """``rows`` as value tuples; :class:`ValueError` if any has the
        wrong arity or an unhashable cell."""
        arity = len(self._attributes)
        checked = [tuple(row) for row in rows]
        for row in checked:
            if len(row) != arity:
                raise ValueError(
                    f"row {row!r} has arity {len(row)}, "
                    f"expected {arity} for schema {self._attributes}"
                )
            try:
                hash(row)
            except TypeError:
                raise ValueError(f"row {row!r} has an unhashable cell") from None
        return checked

    def check_live_ids(self, row_ids: Iterable[int]) -> List[int]:
        """``row_ids`` as a list; :class:`KeyError` unless all are live and distinct."""
        checked = list(row_ids)
        seen = set()
        for row_id in checked:
            if row_id not in self._live:
                raise KeyError(
                    f"row id {row_id} is not live (deleted, evicted, or never assigned)"
                )
            if row_id in seen:
                raise KeyError(f"row id {row_id} is deleted twice in one batch")
            seen.add(row_id)
        return checked

    def append(self, rows: Iterable[Sequence[object]]) -> List[int]:
        """Append rows, returning their assigned ids (window may evict).

        All-or-nothing: a row of the wrong arity or with an unhashable
        cell raises :class:`ValueError` before any row is appended.
        """
        assigned: List[int] = []
        for value_tuple in self.check_rows(rows):
            row_id = len(self._all_rows)
            self._all_rows.append(value_tuple)
            self._live[row_id] = None
            self._invalidate()
            repeats = self._row_counts.get(value_tuple, 0)
            self._row_counts[value_tuple] = repeats + 1
            for tracker in self._trackers:
                tracker._on_insert(value_tuple, repeats)
            assigned.append(row_id)
            if self.window is not None and len(self._live) > self.window:
                self._delete_one(next(iter(self._live)))
        # Compacting mid-loop would invalidate the ids already assigned
        # (and, in delete(), the ids the caller is still passing), so
        # auto-compaction only ever runs once the whole batch is applied;
        # the returned ids are re-based through the compaction mapping
        # (evicted rows keep their now-dead old id).
        mapping = self._maybe_compact()
        if mapping is not None:
            assigned = [mapping.get(row_id, row_id) for row_id in assigned]
        return assigned

    def delete(self, row_ids: Iterable[int]) -> None:
        """Tombstone live rows by id.

        All-or-nothing: an id that is not live, or appears twice, raises
        :class:`KeyError` before any row is deleted.
        """
        for row_id in self.check_live_ids(row_ids):
            self._delete_one(row_id)
        self._maybe_compact()

    def _delete_one(self, row_id: int) -> None:
        del self._live[row_id]
        self._invalidate()
        row = self._all_rows[row_id]
        repeats = self._row_counts[row]
        if repeats == 1:
            del self._row_counts[row]
        else:
            self._row_counts[row] = repeats - 1
        for tracker in self._trackers:
            tracker._on_delete(row, repeats)

    def _invalidate(self) -> None:
        self._snapshot_cache = None
        self.version += 1

    # ------------------------------------------------------------------
    # History compaction
    # ------------------------------------------------------------------
    @property
    def tombstone_fraction(self) -> float:
        """Dead rows as a fraction of all rows ever appended."""
        total = len(self._all_rows)
        if total == 0:
            return 0.0
        return (total - len(self._live)) / total

    def _maybe_compact(self) -> Optional[Dict[int, int]]:
        if self.compact_threshold is None:
            return None
        total = len(self._all_rows)
        if total < self.compact_min:
            return None
        if (total - len(self._live)) / total <= self.compact_threshold:
            return None
        return self.compact()

    def compact(self) -> Dict[int, int]:
        """Drop dead history, re-basing live rows to ids ``0 .. n-1``.

        Returns the old-id -> new-id mapping of the surviving rows.  The
        re-basing preserves live order, so snapshots are identical before
        and after; only the id labels change.
        """
        mapping = {old: new for new, old in enumerate(self._live)}
        self._all_rows = [self._all_rows[old] for old in mapping]
        self._live = {new: None for new in range(len(mapping))}
        self._invalidate()
        self.compactions += 1
        return mapping

    # ------------------------------------------------------------------
    # Trackers
    # ------------------------------------------------------------------
    def track(self, fd) -> "IncrementalFdStatistics":
        """Maintain the sufficient statistics of ``fd`` under mutations.

        Tracker constructors self-register (direct construction works
        too); this method is the discoverable front door.
        """
        from repro.stream.statistics import IncrementalFdStatistics

        return IncrementalFdStatistics(self, fd)

    def _register(self, tracker: object) -> None:
        """Subscribe a tracker to mutation deltas (called by constructors)."""
        self._trackers.append(tracker)

    def untrack(self, tracker: object) -> None:
        """Stop delivering deltas to a tracker."""
        self._trackers.remove(tracker)

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> Relation:
        """The current live rows as an immutable :class:`Relation`.

        Cached until the next mutation; its encoding is built on the
        first statistics pass over it.
        """
        if self._snapshot_cache is None:
            self._snapshot_cache = Relation(
                self._attributes,
                (self._all_rows[row_id] for row_id in self._live),
                name=self.name,
            )
        return self._snapshot_cache
