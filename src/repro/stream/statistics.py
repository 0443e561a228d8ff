"""Delta-maintained sufficient statistics for one tracked FD.

A from-scratch :meth:`FdStatistics.compute` pays O(rows) per candidate:
NULL restriction and the joint ``(x, y)`` scan walk the relation, and
the first candidates on a new snapshot walk its full tuples too.
:class:`IncrementalFdStatistics` keeps every field of :class:`FdStatistics`
current instead, in O(1) per inserted or deleted row:

* the ``x``, ``y`` and ``(x, y)`` count dicts and their three
  ``{count: multiplicity}`` histograms (an insert moves one key up one
  histogram slot, a delete moves it down; no zero multiplicity is kept);
* per ``x``: ``c_x``, ``S_x = Σ_y c_xy²``, the number of distinct ``y``,
  ``max_y c_xy`` and the ``{c_xy: multiplicity}`` histogram that makes
  the maximum exact under deletes (when the last ``y`` at the maximum
  ``k`` loses a row, that row's ``y`` now sits at ``k - 1``, so the new
  maximum is ``k - 1`` without a scan);
* ``violating_tuples``, ``max_subrelation`` and the ``(S_x, c_x)``
  histogram, updated by taking ``x``'s old share out and putting its new
  one back;
* ``tuple_square_sum``, from the previous multiplicity ``r`` of the full
  row that the :class:`~repro.stream.dynamic.DynamicRelation` passes
  along (``+2r + 1`` per insert, ``-(2r - 1)`` per delete): the store
  keeps one full-row count dict for all its trackers.

A refresh (:meth:`IncrementalFdStatistics.statistics`) copies the four
histograms in key order, O(distinct counts) — at most about ``√(2N)``
keys each — rather than O(distinct ``(x, y)``).

**Identity.**  ``FdStatistics`` is order-free: it holds count histograms
and exact integer facts, and every score is computed from them with
order-independent sums.  Equal counts therefore give ``==`` statistics
and bit-identical scores, whatever order the rows arrived or left in,
so the tracker keeps no row ids and needs nothing from the store's
history compaction.  NULL fall-through matches the paper's semantics
(Section VI-A): rows with a NULL on any FD attribute never enter the
counts at all.
"""

from __future__ import annotations

from dataclasses import fields
from operator import itemgetter
from typing import Dict, List, Mapping

from repro.core.statistics import FdStatistics, Histogram
from repro.relation.attribute import validate_attributes
from repro.relation.fd import FunctionalDependency
from repro.relation.relation import Row


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


def assert_statistics_identical(
    incremental: FdStatistics, recomputed: FdStatistics, context: str
) -> None:
    """Raise :class:`RuntimeError` unless the statistics are ``==``.

    The error names every compared field that differs, so a wrong field
    no selected measure reads (say ``y_histogram`` under g3) still shows.
    """
    if incremental == recomputed:
        return
    diverged = [
        field.name
        for field in fields(FdStatistics)
        if field.compare and getattr(incremental, field.name) != getattr(recomputed, field.name)
    ]
    raise RuntimeError(
        f"incremental statistics diverged from recompute ({context}): fields {diverged}"
    )


def _shift(histogram: Dict, old, new) -> None:
    """Move one unit of multiplicity from key ``old`` to key ``new``.

    A falsy key (count 0, or no ``(S_x, c_x)`` pair) stands for "not in
    the histogram"; a multiplicity that reaches 0 is deleted.
    """
    if old:
        multiplicity = histogram[old]
        if multiplicity == 1:
            del histogram[old]
        else:
            histogram[old] = multiplicity - 1
    if new:
        histogram[new] = histogram.get(new, 0) + 1


def _sorted(histogram: Dict) -> Dict:
    return dict(sorted(histogram.items()))


class IncrementalFdStatistics:
    """Sufficient statistics of one FD, maintained under inserts/deletes.

    Create via :meth:`DynamicRelation.track` (or directly — the
    constructor self-registers for mutation deltas).
    :meth:`statistics` assembles a fresh :class:`FdStatistics` ``==`` to
    ``FdStatistics.compute(dynamic.snapshot(), fd)``.
    """

    def __init__(self, dynamic, fd: FunctionalDependency):
        validate_attributes(fd.attributes, dynamic.attributes, "tracked FD")
        self.fd = fd
        self._dynamic = dynamic
        position = {a: i for i, a in enumerate(dynamic.attributes)}
        # LHS and RHS are disjoint and non-empty, so the FD's cells always
        # come out as a tuple; a one-attribute side keys by the bare value.
        self._fd_cells = itemgetter(*(position[a] for a in fd.attributes))
        self._x_of = itemgetter(*(position[a] for a in fd.lhs))
        self._y_of = itemgetter(*(position[a] for a in fd.rhs))
        self._num_rows = 0
        self._xy: Dict[tuple, int] = {}
        self._y: Dict[object, int] = {}
        #: Per x: ``[c_x, S_x, distinct y, max_y c_xy, {c_xy: multiplicity}]``.
        self._groups: Dict[object, List] = {}
        self._x_histogram: Histogram = {}
        self._y_histogram: Histogram = {}
        self._xy_histogram: Histogram = {}
        self._group_squares: Dict[tuple, int] = {}
        self._violating_tuples = 0
        self._max_subrelation = 0
        self._tuple_square_sum = 0
        # Enrolling mid-stream: replay each distinct live row as r inserts,
        # whose 2i + 1 steps add up to r² in tuple_square_sum.
        for row, repeats in dynamic.row_counts.items():
            for previous in range(repeats):
                self._on_insert(row, previous)
        dynamic._register(self)

    @property
    def num_rows(self) -> int:
        """Live rows that are non-NULL on every FD attribute."""
        return self._num_rows

    # ------------------------------------------------------------------
    # Delta application (called by DynamicRelation)
    # ------------------------------------------------------------------
    def _on_insert(self, row: Row, repeats: int) -> None:
        """Count ``row``; ``repeats`` is its live multiplicity before the insert."""
        if None in self._fd_cells(row):
            return  # NULL fall-through: the restricted relation never sees it
        self._num_rows += 1
        self._tuple_square_sum += 2 * repeats + 1
        x = self._x_of(row)
        y = self._y_of(row)
        key = (x, y)
        k = self._xy.get(key, 0)
        self._xy[key] = k + 1
        _shift(self._xy_histogram, k, k + 1)
        count_y = self._y.get(y, 0)
        self._y[y] = count_y + 1
        _shift(self._y_histogram, count_y, count_y + 1)
        group = self._groups.get(x)
        if group is None:
            group = self._groups[x] = [0, 0, 0, 0, {}]
        c, squares, distinct, top, joint = group
        _shift(self._x_histogram, c, c + 1)
        _shift(self._group_squares, c and (squares, c), (squares + 2 * k + 1, c + 1))
        _shift(joint, k, k + 1)
        group[0] = c + 1
        group[1] = squares + 2 * k + 1
        if not k:
            group[2] = distinct + 1
            if distinct == 1:  # x now violates: all its tuples count
                self._violating_tuples += c + 1
        if distinct >= 2:
            self._violating_tuples += 1
        if k == top:
            group[3] = k + 1
            self._max_subrelation += 1

    def _on_delete(self, row: Row, repeats: int) -> None:
        """Uncount ``row``; ``repeats`` is its live multiplicity before the delete."""
        if None in self._fd_cells(row):
            return
        self._num_rows -= 1
        self._tuple_square_sum -= 2 * repeats - 1
        x = self._x_of(row)
        y = self._y_of(row)
        key = (x, y)
        k = self._xy[key]
        if k == 1:
            del self._xy[key]
        else:
            self._xy[key] = k - 1
        _shift(self._xy_histogram, k, k - 1)
        count_y = self._y[y]
        if count_y == 1:
            del self._y[y]
        else:
            self._y[y] = count_y - 1
        _shift(self._y_histogram, count_y, count_y - 1)
        group = self._groups[x]
        c, squares, distinct, top, joint = group
        _shift(self._x_histogram, c, c - 1)
        _shift(self._group_squares, (squares, c), c > 1 and (squares - 2 * k + 1, c - 1))
        _shift(joint, k, k - 1)
        if k == 1:
            group[2] = distinct - 1
            if distinct == 2:  # x stops violating: none of its tuples count
                self._violating_tuples -= c - 1
        if distinct >= 2:
            self._violating_tuples -= 1
        if k == top and k not in joint:
            # The decremented y now sits at k - 1, so that is the new maximum.
            group[3] = k - 1
            self._max_subrelation -= 1
        if c == 1:
            del self._groups[x]
        else:
            group[0] = c - 1
            group[1] = squares - 2 * k + 1

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def statistics(self) -> FdStatistics:
        """A fresh :class:`FdStatistics` over the current live rows.

        Copies the four histograms in key order (O(distinct counts)) —
        ``==`` to a from-scratch ``compute()`` on the snapshot, so every
        measure scores it bit-identically.
        """
        return FdStatistics(
            fd=self.fd,
            num_rows=self._num_rows,
            x_histogram=_sorted(self._x_histogram),
            y_histogram=_sorted(self._y_histogram),
            xy_histogram=_sorted(self._xy_histogram),
            violating_tuples=self._violating_tuples,
            max_subrelation=self._max_subrelation,
            tuple_square_sum=self._tuple_square_sum,
            group_squares=_sorted(self._group_squares),
            relation_name=self._dynamic.name,
        )
