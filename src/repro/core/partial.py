"""Mergeable packed counts: the intermediate of the packed statistics pass.

:class:`~repro.core.statistics.FdStatistics` is built
(:mod:`repro.core.chunked`) from the restricted row count, the joint
``(x, y)`` counts and ``Σ_w R(w)²``.  The first two are the key-wise sums
of the counts of any row-partition of the relation, so the statistics
pass runs chunk by chunk (the stored chunks of the relation's
dictionary encoding) and merges into exactly the counts of a single scan.
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

The per-chunk counts, their merge, and (in :mod:`repro.core.chunked`)
the Y marginal and the count histograms all group through
:func:`grouped`.  Their keys lie in ``[0, bound)``: ``bound`` is the
radix product of the packed attributes, or a histogram's largest count
+ 1.  A short key range is *tallied* (``np.bincount``, or ``np.add.at``
into ``int64`` zeros when weighted) and a long one *sorted* (runs
summed).  The rule is ``bound ≤ 2 · len + 1024``: a tally never holds
more than about twice the memory of the keys it counts.  Both sides
return the same exact integers, keys ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.relation.chunked import CodeChunk

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

#: Tally slots per grouped key: :func:`grouped` tallies a key range of at
#: most ``_TALLY_RATIO · (len + 512)`` = ``2 · len + 1024`` slots and sorts
#: a longer one.  At 0 every grouping sorts.
_TALLY_RATIO = 2


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


def grouped(
    values: "np.ndarray", bound: int, weights: Optional["np.ndarray"] = None
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Distinct ``values`` ascending, with their exact ``int64`` totals.

    ``values`` are integer keys in ``[0, bound)``; each adds 1 to its
    key's total, or its entry of ``weights`` (positive ``int64``) when
    given.  A key range of at most ``_TALLY_RATIO · (len + 512)`` slots is
    tallied — ``np.bincount``, or ``np.add.at`` into ``int64`` zeros when
    weighted, since a weighted ``bincount`` sums in floats — and a longer
    one sorted, with each run of equal keys summed.  Both sides return
    the same integers.
    """
    size = values.shape[0]
    if size == 0:
        return values, np.zeros(0, dtype=np.int64)
    if bound <= _TALLY_RATIO * (size + 512):
        if weights is None:
            totals = np.bincount(values, minlength=bound)
        else:
            totals = np.zeros(bound, dtype=np.int64)
            np.add.at(totals, values, weights)
        # Non-zero over a bool mask: much faster than over the int64 tally.
        keys = np.flatnonzero(totals != 0)
        return keys, totals[keys]
    if weights is None:
        values = np.sort(values)
        starts = run_starts(values)
        return values[starts], np.diff(np.append(starts, size))
    order = np.argsort(values)
    values = values[order]
    starts = run_starts(values)
    return values[starts], np.add.reduceat(weights[order], starts)


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
    def from_raw_keys(cls, raw: "np.ndarray", bound: int) -> "ArrayFdCounts":
        """Compress a raw one-key-per-row array (keys in ``[0, bound)``) into a partial."""
        keys, counts = grouped(raw, bound)
        return cls(int(raw.shape[0]), keys, counts)

    @property
    def num_keys(self) -> int:
        """Distinct keys held (the merge-memory measure)."""
        return int(self.keys.shape[0])

    @classmethod
    def merge_all(cls, partials: Sequence["ArrayFdCounts"], bound: int) -> "ArrayFdCounts":
        """One vectorised merge of many partials: the counts of one scan of their rows.

        The partials' keys lie in ``[0, bound)``.
        """
        partials = list(partials)
        if len(partials) == 1:
            return partials[0]
        keys, counts = grouped(
            np.concatenate([partial.keys for partial in partials]),
            bound,
            np.concatenate([partial.counts for partial in partials]),
        )
        return cls(sum(partial.num_rows for partial in partials), keys, counts)
