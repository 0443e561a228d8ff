"""Mergeable partial sufficient statistics.

:class:`~repro.core.statistics.FdStatistics` is assembled
(:mod:`repro.core.chunked`) from the restricted row count, the joint ``(x, y)``
counts and ``Σ_w R(w)²``.  The first two are the key-wise sums of the
counts of any row-partition of the relation; the third is not, so a
partial also carries its full-tuple counts, which merge key-wise and are
squared only after the final merge.  :class:`PartialFdCounts` is that
intermediate made explicit, so the statistics pass runs chunk by chunk
(one chunk per slice of the dictionary-encoded code arrays, see the
``partial`` kernels of :mod:`repro.core.backends`) and merges — in chunk
order — into exactly the counts of a single scan.

**Order contract.**  ``Counter`` insertion order of the joint counts is
part of the repo's bit-identity discipline (it pins every downstream
floating-point summation order).  :meth:`PartialFdCounts.merge` therefore
preserves *first-occurrence* order: keys already present keep their
position, new keys are appended in the other partial's order.  Merging
per-chunk partials in chunk order — each chunk's keys in
first-occurrence-within-chunk order — yields the global first-occurrence
order of a single scan.  Full-tuple counts feed only the integer
``Σ_w R(w)²``, so their order is irrelevant.

When the FD covers the schema (``X ∪ Y`` is every attribute) a full tuple
*is* its ``(x, y)`` pair: the kernels then skip the full-tuple counts
(``None``) and ``Σ_w R(w)²`` is read off the joint counts.

Keys are *domain-agnostic*: the statistics pass keys partials by tuples
of dictionary codes (cheap to hash, stable across chunks because the
encoding is global) and decodes to value tuples once, after the final
merge; the keys of one merge must come from one consistent domain.

:class:`ArrayFdCounts` is the vectorised sibling: the same mergeable
counts, keyed by *packed* ``int64`` scalars in numpy arrays instead of
Python tuples in dicts.  Packing uses one global mixed-radix scheme
(radix per attribute = cardinality + 1, codes shifted by +1 so
``-1``-NULL packs as 0), so a packed key means the same code tuple in
every chunk and is invertible by ``divmod``.  The joint keys keep the
order contract (first occurrence within the chunk, and across the
concatenation in :meth:`ArrayFdCounts.merge_all`); the full-tuple keys
are grouped in sorted order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]


def merge_counts(target: Dict, other: Dict) -> None:
    """Key-wise add ``other`` into ``target``, first-occurrence ordered.

    Existing keys keep their insertion position; unseen keys are appended
    in ``other``'s iteration order.  (Plain dict probes instead of
    ``Counter.__missing__`` — this runs once per distinct key per chunk.)
    """
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
    xy_counts: Counter = field(default_factory=Counter)
    tuple_counts: Optional[Dict[Tuple, int]] = None

    @classmethod
    def empty(cls) -> "PartialFdCounts":
        return cls()

    def merge(self, other: "PartialFdCounts") -> "PartialFdCounts":
        """Fold ``other`` into this partial (in place); returns ``self``.

        Not commutative at the bit level: ``a.merge(b)`` orders keys by
        first occurrence in ``a`` then ``b`` — merge chunks in chunk
        order to reproduce a single scan exactly.
        """
        self.num_rows += other.num_rows
        merge_counts(self.xy_counts, other.xy_counts)
        if other.tuple_counts is not None:
            if self.tuple_counts is None:
                self.tuple_counts = {}
            merge_counts(self.tuple_counts, other.tuple_counts)
        return self

    @classmethod
    def merge_all(cls, partials: Iterable["PartialFdCounts"]) -> "PartialFdCounts":
        """Merge an iterable of partials (in iteration order)."""
        merged = cls.empty()
        for partial in partials:
            merged.merge(partial)
        return merged

    def square_sum(self) -> int:
        """``Σ_w R(w)²`` over the merged full-tuple counts."""
        counts = self.xy_counts if self.tuple_counts is None else self.tuple_counts
        return sum(count * count for count in counts.values())


def dense_first_occurrence(
    keys: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Densify arbitrary int keys into first-occurrence-ordered group ids.

    Returns ``(dense_ids, counts, first_positions)`` where
    ``first_positions`` indexes into ``keys``.
    """
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0], dtype=np.int64)
    return rank[inverse], counts[order], first[order]


def _group_first_occurrence(
    raw: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Group one-per-row packed keys, first-occurrence ordered.

    Cheaper than :func:`dense_first_occurrence` for compression: no
    inverse array is materialised, the second sort runs over distinct
    keys only.
    """
    unique, first, counts = np.unique(raw, return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    return unique[order], counts[order].astype(np.int64, copy=False)


def _merge_ordered(
    keyed: Sequence[Tuple["np.ndarray", "np.ndarray"]],
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Merge ``(keys, counts)`` array pairs, first-occurrence ordered.

    Concatenates in sequence order and groups with a stable first-seen
    index, so a key's merged position is its position in the first pair
    that contains it — the array analogue of :func:`merge_counts`.
    Counts stay exact ``int64`` (``np.add.at``, not float bincount
    weights).
    """
    all_keys = np.concatenate([keys for keys, _ in keyed])
    all_counts = np.concatenate([counts for _, counts in keyed])
    dense, _, firsts = dense_first_occurrence(all_keys)
    merged_counts = np.zeros(firsts.shape[0], dtype=np.int64)
    np.add.at(merged_counts, dense, all_counts)
    return all_keys[firsts], merged_counts


def _merge_unordered(
    keyed: Sequence[Tuple["np.ndarray", "np.ndarray"]],
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Merge ``(keys, counts)`` array pairs into sorted keys with exact sums."""
    all_keys = np.concatenate([keys for keys, _ in keyed])
    all_counts = np.concatenate([counts for _, counts in keyed])
    unique, inverse = np.unique(all_keys, return_inverse=True)
    merged_counts = np.zeros(unique.shape[0], dtype=np.int64)
    np.add.at(merged_counts, inverse, all_counts)
    return unique, merged_counts


@dataclass
class ArrayFdCounts:
    """Partial counts keyed by globally packed ``int64`` scalars.

    The array analogue of :class:`PartialFdCounts`: ``xy_keys`` /
    ``xy_counts`` hold the distinct packed ``(X, Y)`` keys (in
    first-occurrence order) with their multiplicities, ``w_keys`` /
    ``w_counts`` the distinct packed full-tuple keys (sorted), both
    ``None`` when the FD covers the schema.
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
        row, in row order; the joint grouping keeps first-occurrence
        order, so the result equals merging the rows' singleton partials
        in row order.  ``w_raw=None`` declares the FD schema-covering.
        """
        xy_keys, xy_counts = _group_first_occurrence(xy_raw)
        if w_raw is None:
            return cls(num_rows, xy_keys, xy_counts)
        w_keys, w_counts = np.unique(w_raw, return_counts=True)
        return cls(num_rows, xy_keys, xy_counts, w_keys, w_counts.astype(np.int64))

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
        """One vectorised merge of many partials, in sequence order.

        Equivalent — same joint keys, counts and first-occurrence order
        after decoding, same ``Σ_w R(w)²`` — to
        :meth:`PartialFdCounts.merge_all` over the tuple-keyed forms of
        the same chunks.
        """
        partials = list(partials)
        if len(partials) == 1:
            return partials[0]
        num_rows = sum(partial.num_rows for partial in partials)
        xy_keys, xy_counts = _merge_ordered(
            [(partial.xy_keys, partial.xy_counts) for partial in partials]
        )
        if partials[0].covering:
            return cls(num_rows, xy_keys, xy_counts)
        w_keys, w_counts = _merge_unordered(
            [(partial.w_keys, partial.w_counts) for partial in partials]
        )
        return cls(num_rows, xy_keys, xy_counts, w_keys, w_counts)

    def square_sum(self) -> int:
        """``Σ_w R(w)²`` over the merged full-tuple counts (exact)."""
        counts = self.xy_counts if self.covering else self.w_counts
        return int((counts * counts).sum())


def unpack_key_columns(keys: "np.ndarray", radices: List[int]) -> List["np.ndarray"]:
    """Invert the global mixed-radix pack into per-attribute code arrays.

    ``radices`` must be the radices the keys were packed with, in pack
    (attribute) order; the returned arrays carry the original dictionary
    codes (``-1`` for NULL, the +1 shift undone), one per attribute.
    """
    columns: List["np.ndarray"] = []
    remaining = keys
    for radix in reversed(radices):
        remaining, shifted = np.divmod(remaining, radix)
        columns.append(shifted - 1)
    columns.reverse()
    return columns
