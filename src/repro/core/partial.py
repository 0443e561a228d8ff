"""Mergeable packed counts: the intermediate of the packed statistics pass.

:class:`~repro.core.statistics.FdStatistics` is built
(:mod:`repro.core.chunked`) from the restricted row count, the joint
``(x, y)`` counts and ``Σ_w R(w)²``.  The first two are the key-wise sums
of the counts of any row-partition of the relation, so the statistics
pass runs chunk by chunk (one chunk per slice of the dictionary-encoded
code arrays) and merges into exactly the counts of a single scan.
``Σ_w R(w)²`` is not counted per FD: it depends on the FD only through
which NULL-bearing attributes ``X ∪ Y`` holds, so the pass reads it from
a per-relation cache (:func:`repro.core.chunked.tuple_square_sum`), or
squares the merged joint counts when ``X ∪ Y`` is the whole schema.

:class:`ArrayFdCounts` holds those counts keyed by *packed* ``int64``
scalars in numpy arrays.  Packing (:func:`pack_rows`) uses one global
mixed-radix scheme (radix per attribute = cardinality + 1, codes shifted
by +1 so ``-1``-NULL packs as 0), so a packed key means the same code
tuple in every chunk; the keys of one merge must come from one encoding.
Keys are held ascending.  Where packing is not possible the pass counts
code tuples in one ``Counter`` instead and needs nothing from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.relation.chunked import CodeChunk

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]


def pack_rows(
    chunk: CodeChunk,
    attributes: Sequence[str],
    radices: Dict[str, int],
    non_null: Sequence[str] = (),
) -> "np.ndarray":
    """One mixed-radix ``int64`` key per row of ``chunk`` non-NULL on ``non_null``.

    ``radices[a]`` is the *global* radix of attribute ``a`` (its
    cardinality + 1; codes shift by +1 so ``-1``-NULL packs as 0), so a
    key means the same code tuple in every chunk.  Keys are X-major (the
    first attribute is the most significant digit), so ascending joint
    keys keep equal X keys adjacent.  The caller has proven that the
    radix product fits the packing limit.
    """
    keys = np.asarray(chunk.column(attributes[0])).astype(np.int64)
    keys += 1
    for attribute in attributes[1:]:
        keys *= radices[attribute]
        keys += chunk.column(attribute)
        keys += 1
    if non_null:
        mask = np.asarray(chunk.column(non_null[0])) >= 0
        for attribute in non_null[1:]:
            mask &= np.asarray(chunk.column(attribute)) >= 0
        keys = keys[mask]
    return keys


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


@dataclass
class ArrayFdCounts:
    """Partial counts of one row-chunk, keyed by globally packed ``int64`` scalars.

    ``keys`` holds the distinct packed keys (ascending), ``counts`` their
    multiplicities and ``num_rows`` the rows they count; partials of
    different chunks add key-wise under :meth:`merge_all`.  The statistics pass keys a row by
    its ``(X, Y)`` codes; the full-tuple pass of
    :func:`repro.core.chunked.tuple_square_sum` by all of its codes.
    """

    num_rows: int
    keys: "np.ndarray"
    counts: "np.ndarray"

    @classmethod
    def from_raw_keys(cls, raw: "np.ndarray") -> "ArrayFdCounts":
        """Compress a raw one-key-per-row array into a partial."""
        keys, counts = np.unique(raw, return_counts=True)
        return cls(int(raw.shape[0]), keys, counts.astype(np.int64, copy=False))

    @property
    def num_keys(self) -> int:
        """Distinct keys held (the merge-memory measure)."""
        return int(self.keys.shape[0])

    @classmethod
    def merge_all(cls, partials: Sequence["ArrayFdCounts"]) -> "ArrayFdCounts":
        """One vectorised merge of many partials: the counts of one scan of their rows."""
        partials = list(partials)
        if len(partials) == 1:
            return partials[0]
        keys, counts = group_sum(
            np.concatenate([partial.keys for partial in partials]),
            np.concatenate([partial.counts for partial in partials]),
        )
        return cls(sum(partial.num_rows for partial in partials), keys, counts)
