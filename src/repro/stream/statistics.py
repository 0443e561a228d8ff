"""Delta-maintained sufficient statistics for one tracked FD.

A from-scratch :meth:`FdStatistics.compute` pays O(rows) per candidate:
NULL restriction, the joint ``(x, y)`` scan and the full-tuple scan all
walk the relation.  :class:`IncrementalFdStatistics` maintains exactly
the inputs of :meth:`FdStatistics.from_joint_counts` — the restricted
row count, the joint ``(x, y)`` multiplicities and ``Σ_w R(w)²`` (a
running sum over a plain full-tuple count dict: one ``±(2c ± 1)`` step
per mutation) — under inserts and deletes, so refreshing the statistics
after a batch of Δ mutations costs O(Δ) maintenance plus O(distinct)
re-assembly instead of O(rows).  All fourteen measures then score the
refreshed statistics exactly as they would a computed one.

**Bit-identity.**  ``from_joint_counts`` orders the marginals as both
backends do, and those ``Counter`` insertion orders pin down every
downstream floating-point summation order; matching the joint counts'
order (``Σ_w R(w)²`` is an exact integer) is therefore sufficient for
bit-identical (``==``) scores.  A from-scratch pass inserts each key at
its *first occurrence in live row order*, and deletions can disturb that
order in two ways the counts alone cannot see: a key whose last copy
dies must vanish, and a key whose **first** live occurrence dies keeps
its count but moves to a later row — potentially behind keys it used to
precede.  :class:`_OrderedCounts`
tracks, per key, the ascending list of its row ids with a lazily
advancing head pointer (amortised O(1) per deletion): appends of novel
keys keep the order sorted by construction (fresh ids exceed all live
ids), and only first-occurrence deletions mark the order dirty, paying
one O(k log k) re-sort at the next refresh.  NULL fall-through matches
the paper's semantics (Section VI-A): rows with a NULL on any FD
attribute never enter the counts at all.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Mapping, Tuple

from repro.core.statistics import FdStatistics
from repro.relation.attribute import validate_attributes
from repro.relation.fd import FunctionalDependency
from repro.relation.relation import Row

#: Compact a key's id list once the dead prefix dominates it.
_COMPACT_MIN = 32


def assert_scores_identical(
    incremental: Mapping[str, float],
    recomputed: Mapping[str, float],
    context: str,
) -> None:
    """Raise :class:`RuntimeError` unless the score maps are ``==``-identical.

    The bit-identity cross-check shared by the streaming benchmark and
    the ``--verify`` mode of the monitoring CLI; the error names every
    diverging measure with both values.
    """
    if incremental == recomputed:
        return
    diverged = {
        name: (incremental[name], recomputed[name])
        for name in incremental
        if incremental[name] != recomputed[name]
    }
    raise RuntimeError(
        f"incremental scores diverged from recompute ({context}): {diverged}"
    )


class _OrderedCounts:
    """Multiplicities of a key family, recoverable in live-first-occurrence order.

    ``_counts`` doubles as the order book: its dict insertion order is
    the live-first-occurrence order whenever ``_dirty`` is false.
    ``_ids[key]`` is the ascending list of (not yet compacted) row ids
    carrying the key and ``_starts[key]`` indexes its first *live* id —
    the key's current first occurrence.
    """

    __slots__ = ("_counts", "_ids", "_starts", "_dirty")

    def __init__(self):
        self._counts: Dict[object, int] = {}
        self._ids: Dict[object, List[int]] = {}
        self._starts: Dict[object, int] = {}
        self._dirty = False

    def __len__(self) -> int:
        return len(self._counts)

    def add(self, key: object, row_id: int) -> None:
        count = self._counts.get(key)
        if count is None:
            # A novel key's first id exceeds every live id, so appending
            # it at the end of the dict keeps the order invariant.
            self._counts[key] = 1
            self._ids[key] = [row_id]
            self._starts[key] = 0
        else:
            self._counts[key] = count + 1
            self._ids[key].append(row_id)

    def remove(self, key: object, row_id: int, is_live: Callable[[int], bool]) -> None:
        count = self._counts[key] - 1
        if count == 0:
            # Dropping a whole key preserves the relative order of the rest.
            del self._counts[key]
            del self._ids[key]
            del self._starts[key]
            return
        self._counts[key] = count
        ids = self._ids[key]
        start = self._starts[key]
        if ids[start] != row_id:
            return  # not the first occurrence: order untouched
        start += 1
        while not is_live(ids[start]):
            start += 1
        if start >= _COMPACT_MIN and start * 2 > len(ids):
            del ids[:start]
            start = 0
        self._starts[key] = start
        self._dirty = True

    def remap(self, mapping: Mapping[int, int]) -> None:
        """Rewrite row ids after a history compaction.

        ``mapping`` (old id -> new id) is order-preserving and covers
        exactly the live rows, so each key's surviving ids stay
        ascending and its first live id keeps its relative rank — the
        ``ordered_counter`` output is bit-identical across the remap.
        Dead ids (absent from the mapping) are dropped, which also
        resets the lazily advanced head pointers.
        """
        for key, ids in self._ids.items():
            start = self._starts[key]
            self._ids[key] = [mapping[i] for i in ids[start:] if i in mapping]
            self._starts[key] = 0

    def ordered_counter(self) -> Counter:
        """The counts as a ``Counter`` in live-first-occurrence insertion order."""
        if self._dirty:
            order = sorted(self._counts, key=lambda key: self._ids[key][self._starts[key]])
            self._counts = {key: self._counts[key] for key in order}
            self._dirty = False
        # C-level dict copy; a fresh Counter's update() takes the fast
        # mapping path and preserves the source insertion order.
        return Counter(self._counts)


class IncrementalFdStatistics:
    """Sufficient statistics of one FD, maintained under inserts/deletes.

    Create via :meth:`DynamicRelation.track` (or directly — the
    constructor self-registers for mutation deltas).
    :meth:`statistics` assembles a fresh
    :class:`FdStatistics` bit-identical to
    ``FdStatistics.compute(dynamic.snapshot(), fd)`` on either backend.
    """

    def __init__(self, dynamic, fd: FunctionalDependency):
        validate_attributes(fd.attributes, dynamic.attributes, "tracked FD")
        self.fd = fd
        self._dynamic = dynamic
        attribute_positions = {a: i for i, a in enumerate(dynamic.attributes)}
        self._lhs_indices: Tuple[int, ...] = tuple(attribute_positions[a] for a in fd.lhs)
        self._rhs_indices: Tuple[int, ...] = tuple(attribute_positions[a] for a in fd.rhs)
        self._fd_indices: Tuple[int, ...] = tuple(
            attribute_positions[a] for a in fd.attributes
        )
        self._num_rows = 0
        self._xy = _OrderedCounts()
        #: Full-tuple multiplicities and their running ``Σ_w R(w)²``.
        self._full: Dict[Row, int] = {}
        self._square_sum = 0
        for row_id, row in dynamic.live_items():
            self._on_insert(row_id, row)
        dynamic._register(self)

    @property
    def num_rows(self) -> int:
        """Live rows that are non-NULL on every FD attribute."""
        return self._num_rows

    # ------------------------------------------------------------------
    # Delta application (called by DynamicRelation)
    # ------------------------------------------------------------------
    def _on_insert(self, row_id: int, row: Row) -> None:
        for index in self._fd_indices:
            if row[index] is None:
                return  # NULL fall-through: the restricted relation never sees it
        self._num_rows += 1
        x = tuple(row[i] for i in self._lhs_indices)
        y = tuple(row[i] for i in self._rhs_indices)
        self._xy.add((x, y), row_id)
        count = self._full.get(row, 0)
        self._full[row] = count + 1
        self._square_sum += 2 * count + 1

    def _on_delete(self, row_id: int, row: Row) -> None:
        for index in self._fd_indices:
            if row[index] is None:
                return
        self._num_rows -= 1
        is_live = self._dynamic.is_live
        x = tuple(row[i] for i in self._lhs_indices)
        y = tuple(row[i] for i in self._rhs_indices)
        self._xy.remove((x, y), row_id, is_live)
        count = self._full[row]
        if count == 1:
            del self._full[row]
        else:
            self._full[row] = count - 1
        self._square_sum -= 2 * count - 1

    def _on_compact(self, mapping: Mapping[int, int]) -> None:
        """Rewrite id-keyed state after a history compaction (O(live))."""
        self._xy.remap(mapping)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def statistics(self) -> FdStatistics:
        """A fresh :class:`FdStatistics` over the current live rows.

        O(distinct) assembly through the python kernel's
        :meth:`FdStatistics.from_joint_counts` constructor, with the same
        joint ``Counter`` contents in the same insertion order and the
        same ``Σ_w R(w)²`` — every measure
        therefore scores the result bit-identically (``==``) to a
        from-scratch ``compute()`` on the snapshot.
        """
        return FdStatistics.from_joint_counts(
            self.fd,
            self._num_rows,
            self._xy.ordered_counter(),
            self._square_sum,
            relation_name=self._dynamic.name,
        )
