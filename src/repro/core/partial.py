"""Mergeable partial counts: the intermediate of the statistics pass.

:class:`~repro.core.statistics.FdStatistics` is built
(:mod:`repro.core.chunked`) from the restricted row count, the joint
``(x, y)`` counts and ``Σ_w R(w)²``.  The first two are the key-wise sums
of the counts of any row-partition of the relation; the third is not, so
a partial also carries its full-tuple counts, which merge key-wise and
are squared only after the final merge.  :class:`PartialFdCounts` is that
intermediate made explicit, so the statistics pass runs chunk by chunk
(one chunk per slice of the dictionary-encoded code arrays, see the
``partial`` kernels of :mod:`repro.core.backends`) and merges into
exactly the counts of a single scan.

When the FD covers the schema (``X ∪ Y`` is every attribute) a full tuple
*is* its ``(x, y)`` pair: the kernels then skip the full-tuple counts
(``None``) and ``Σ_w R(w)²`` is read off the joint counts.

Keys are tuples of dictionary codes — cheap to hash, and stable across
chunks because the encoding is global; the keys of one merge must come
from one encoding.

:class:`ArrayFdCounts` is the vectorised sibling: the same mergeable
counts, keyed by *packed* ``int64`` scalars in numpy arrays instead of
Python tuples in dicts.  Packing uses one global mixed-radix scheme
(radix per attribute = cardinality + 1, codes shifted by +1 so
``-1``-NULL packs as 0), so a packed key means the same code tuple in
every chunk.  Keys are held ascending.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]


def merge_counts(target: Dict, other: Dict) -> None:
    """Key-wise add ``other`` into ``target`` (plain dict probes)."""
    for key, count in other.items():
        previous = target.get(key)
        target[key] = count if previous is None else previous + count


@dataclass
class PartialFdCounts:
    """Partial counts of one row-chunk, mergeable across chunks.

    ``num_rows`` counts the chunk's rows surviving the NULL restriction
    on ``X ∪ Y``; ``xy_counts`` maps ``(x_key, y_key)`` to multiplicity;
    ``tuple_counts`` maps the full-tuple key of each restricted row to
    its multiplicity (``None`` when the FD covers the schema).  All add
    key-wise under :meth:`merge`.
    """

    num_rows: int = 0
    xy_counts: Dict[Tuple, int] = field(default_factory=dict)
    tuple_counts: Optional[Dict[Tuple, int]] = None

    @classmethod
    def empty(cls) -> "PartialFdCounts":
        return cls()

    def merge(self, other: "PartialFdCounts") -> "PartialFdCounts":
        """Fold ``other`` into this partial (in place); returns ``self``."""
        self.num_rows += other.num_rows
        merge_counts(self.xy_counts, other.xy_counts)
        if other.tuple_counts is not None:
            if self.tuple_counts is None:
                self.tuple_counts = {}
            merge_counts(self.tuple_counts, other.tuple_counts)
        return self

    @classmethod
    def merge_all(cls, partials: Iterable["PartialFdCounts"]) -> "PartialFdCounts":
        """Merge an iterable of partials."""
        merged = cls.empty()
        for partial in partials:
            merged.merge(partial)
        return merged

    def square_sum(self) -> int:
        """``Σ_w R(w)²`` over the merged full-tuple counts."""
        counts = self.xy_counts if self.tuple_counts is None else self.tuple_counts
        return sum(count * count for count in counts.values())


def run_starts(*ordered: "np.ndarray") -> "np.ndarray":
    """Start index of each run of equal rows in sorted, non-empty arrays.

    The arrays are the columns of one table of equal length, sorted
    lexicographically; a run starts wherever any column changes.
    """
    changed = np.zeros(ordered[0].shape[0], dtype=bool)
    changed[0] = True
    for column in ordered:
        changed[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(changed)


def group_sum(
    keys: "np.ndarray", counts: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Distinct ``keys`` ascending, with the exact ``int64`` sums of their ``counts``."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = run_starts(keys)
    return keys[starts], np.add.reduceat(counts[order], starts)


def _merge(
    keyed: Sequence[Tuple["np.ndarray", "np.ndarray"]],
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Merge ``(keys, counts)`` array pairs into ascending keys with exact sums."""
    return group_sum(
        np.concatenate([keys for keys, _ in keyed]),
        np.concatenate([counts for _, counts in keyed]),
    )


@dataclass
class ArrayFdCounts:
    """Partial counts keyed by globally packed ``int64`` scalars.

    The array analogue of :class:`PartialFdCounts`: ``xy_keys`` /
    ``xy_counts`` hold the distinct packed ``(X, Y)`` keys (ascending)
    with their multiplicities, ``w_keys`` / ``w_counts`` the distinct
    packed full-tuple keys (ascending), both ``None`` when the FD covers
    the schema.
    """

    num_rows: int
    xy_keys: "np.ndarray"
    xy_counts: "np.ndarray"
    w_keys: Optional["np.ndarray"] = None
    w_counts: Optional["np.ndarray"] = None

    @classmethod
    def from_raw_keys(
        cls,
        num_rows: int,
        xy_raw: "np.ndarray",
        w_raw: Optional["np.ndarray"] = None,
    ) -> "ArrayFdCounts":
        """Compress raw one-key-per-row arrays into a partial.

        ``xy_raw`` (and ``w_raw``) carry one packed key per restricted
        row; ``w_raw=None`` declares the FD schema-covering.
        """
        xy_keys, xy_counts = np.unique(xy_raw, return_counts=True)
        xy_counts = xy_counts.astype(np.int64, copy=False)
        if w_raw is None:
            return cls(num_rows, xy_keys, xy_counts)
        w_keys, w_counts = np.unique(w_raw, return_counts=True)
        return cls(num_rows, xy_keys, xy_counts, w_keys, w_counts.astype(np.int64, copy=False))

    @property
    def covering(self) -> bool:
        """True when ``Σ_w R(w)²`` is read off the joint counts."""
        return self.w_keys is None

    @property
    def num_keys(self) -> int:
        """Distinct keys held (the merge-memory measure)."""
        keys = int(self.xy_keys.shape[0])
        return keys if self.covering else keys + int(self.w_keys.shape[0])

    @classmethod
    def merge_all(cls, partials: Sequence["ArrayFdCounts"]) -> "ArrayFdCounts":
        """One vectorised merge of many partials.

        Equivalent — same joint counts per code tuple, same
        ``Σ_w R(w)²`` — to :meth:`PartialFdCounts.merge_all` over the
        tuple-keyed forms of the same chunks.
        """
        partials = list(partials)
        if len(partials) == 1:
            return partials[0]
        num_rows = sum(partial.num_rows for partial in partials)
        xy_keys, xy_counts = _merge([(partial.xy_keys, partial.xy_counts) for partial in partials])
        if partials[0].covering:
            return cls(num_rows, xy_keys, xy_counts)
        w_keys, w_counts = _merge([(partial.w_keys, partial.w_counts) for partial in partials])
        return cls(num_rows, xy_keys, xy_counts, w_keys, w_counts)

    def square_sum(self) -> int:
        """``Σ_w R(w)²`` over the merged full-tuple counts (exact)."""
        counts = self.xy_counts if self.covering else self.w_counts
        return int((counts * counts).sum())
