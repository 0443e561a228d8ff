"""Delta-maintained sufficient statistics for one tracked FD.

A from-scratch :meth:`FdStatistics.compute` pays O(rows) per candidate:
NULL restriction, the joint ``(x, y)`` scan and the full-tuple scan all
walk the relation.  :class:`IncrementalFdStatistics` maintains exactly
the inputs of :meth:`FdStatistics.from_joint_counts` — the restricted
row count, a plain dict of joint ``(x, y)`` multiplicities and
``Σ_w R(w)²`` (a running sum over a full-tuple count dict: one
``±(2c ± 1)`` step per mutation) — under inserts and deletes, so
refreshing the statistics after a batch of Δ mutations costs O(Δ)
maintenance plus O(distinct) re-assembly instead of O(rows).

**Identity.**  ``FdStatistics`` is order-free: it holds count histograms
and exact integer facts, and every score is computed from them with
order-independent sums.  Equal joint counts therefore give ``==``
statistics and bit-identical scores, whatever order the rows arrived or
left in, so the tracker keeps no row ids and needs nothing from the
store's history compaction.  NULL fall-through matches the paper's
semantics (Section VI-A): rows with a NULL on any FD attribute never
enter the counts at all.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.core.statistics import FdStatistics
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


class IncrementalFdStatistics:
    """Sufficient statistics of one FD, maintained under inserts/deletes.

    Create via :meth:`DynamicRelation.track` (or directly — the
    constructor self-registers for mutation deltas).
    :meth:`statistics` assembles a fresh :class:`FdStatistics` ``==`` to
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
        self._xy: Dict[Tuple[Row, Row], int] = {}
        #: Full-tuple multiplicities and their running ``Σ_w R(w)²``.
        self._full: Dict[Row, int] = {}
        self._square_sum = 0
        for _, row in dynamic.live_items():
            self._on_insert(row)
        dynamic._register(self)

    @property
    def num_rows(self) -> int:
        """Live rows that are non-NULL on every FD attribute."""
        return self._num_rows

    # ------------------------------------------------------------------
    # Delta application (called by DynamicRelation)
    # ------------------------------------------------------------------
    def _keys(self, row: Row):
        """``(x, y)`` of ``row``, or ``None`` when it is NULL on the FD."""
        for index in self._fd_indices:
            if row[index] is None:
                return None  # NULL fall-through: the restricted relation never sees it
        return (
            tuple(row[i] for i in self._lhs_indices),
            tuple(row[i] for i in self._rhs_indices),
        )

    def _on_insert(self, row: Row) -> None:
        key = self._keys(row)
        if key is None:
            return
        self._num_rows += 1
        self._xy[key] = self._xy.get(key, 0) + 1
        count = self._full.get(row, 0)
        self._full[row] = count + 1
        self._square_sum += 2 * count + 1

    def _on_delete(self, row: Row) -> None:
        key = self._keys(row)
        if key is None:
            return
        self._num_rows -= 1
        count = self._xy[key]
        if count == 1:
            del self._xy[key]
        else:
            self._xy[key] = count - 1
        count = self._full[row]
        if count == 1:
            del self._full[row]
        else:
            self._full[row] = count - 1
        self._square_sum -= 2 * count - 1

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def statistics(self) -> FdStatistics:
        """A fresh :class:`FdStatistics` over the current live rows.

        O(distinct) assembly through :meth:`FdStatistics.from_joint_counts`
        — ``==`` to a from-scratch ``compute()`` on the snapshot, so every
        measure scores it bit-identically.
        """
        return FdStatistics.from_joint_counts(
            self.fd,
            self._num_rows,
            self._xy,
            self._square_sum,
            relation_name=self._dynamic.name,
        )
