"""The statistics pass: per-chunk counts, merged, then histogrammed.

:meth:`FdStatistics.compute` runs :func:`map_merge`: the source is read
as a stream of :class:`~repro.relation.chunked.CodeChunk`\\ s of
dictionary codes, each chunk's rows are counted by their ``(x, y)``
codes, the counts merge key-wise, and the merged counts are reduced to
the order-free :class:`FdStatistics` once.  Merging is exact integer
addition, so every chunking of the same rows yields the same merged
counts, hence ``==`` statistics and bit-identical scores.

Two kernels count, both reading only the columns of ``X ∪ Y``; the pass
picks one by the rule every count of this module follows:

* packed — when numpy imports and the radix product of ``X ∪ Y`` fits
  :data:`_PACK_LIMIT`, each chunk packs to one ``int64`` key per row
  under a global mixed-radix scheme and groups vectorised; the merge is
  ``np.concatenate`` plus one more grouping, and
  :func:`_array_statistics` builds the statistics straight from the
  merged arrays (``chunked_passes_total{path="array"}``).  The
  per-chunk counts, the merge, the Y marginal and the count histograms
  all group through :func:`repro.core.partial.grouped`: it tallies keys
  whose range (the radix product, or the largest count + 1 for a
  histogram) is at most ``2 · len + 1024`` and sorts longer ranges,
  with the same exact integers either way;
* code tuples — otherwise, one ``Counter`` of ``(x, y)`` code tuples over
  the whole chunk stream, reduced by ``FdStatistics.from_joint_counts``
  (``chunked_passes_total{path="tuple"}``).

Both kernels produce the same integers, so the choice changes only the
cost; nothing outside this module chooses.  No key is ever decoded:
codes group exactly as values do.

``Σ_w R(w)²`` is the one statistic over full tuples, and it depends on
the FD only through ``S``, the attributes of ``X ∪ Y`` that hold a NULL.
:func:`tuple_square_sum` counts the distinct full tuples of the rows
non-NULL on ``S`` once per encoding and ``S`` and keeps the result on
the encoding, so a relation without NULLs pays one full-tuple pass for
all its candidates.  When ``X ∪ Y`` is the whole schema the full tuples
are the ``(x, y)`` pairs, and :func:`map_merge` reads the sum off the
merged joint counts instead.

Chunk sources: a :class:`~repro.relation.chunked.ChunkedRelation` is its
own encoding, and a :class:`~repro.relation.relation.Relation` answers with
its cached encoding (:meth:`Relation.columnar`), a ``ChunkedRelation``
built once per relation in chunks of
:data:`~repro.relation.chunked.DEFAULT_CHUNK_SIZE` rows, so a relation of
up to 65,536 rows is one chunk.  Every pass reads the encoding's
:meth:`~repro.relation.chunked.ChunkedRelation.iter_chunks`.

:func:`is_key` reads the same encodings and chunk stream: discovery's
key check (NULL counted as a value) is O(1) for one attribute and one
distinct count of the code tuples (:func:`_distinct_tuple_counts`, the
helper :func:`tuple_square_sum` counts with) for several.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import compress
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.partial import ArrayFdCounts, grouped, pack_rows, run_starts
from repro.core.statistics import FdStatistics
from repro.obs.metrics import get_registry
from repro.relation.chunked import NULL_CODE, ChunkedRelation
from repro.relation.fd import FunctionalDependency
from repro.relation.relation import Relation

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

#: Largest radix product a mixed-radix pack may reach (int64 headroom);
#: past it every count of this module runs on code tuples.
_PACK_LIMIT = 2**62

#: Buffered distinct keys that trigger an intermediate collapse of the
#: pending array partials: bounds merge memory on very long chunk
#: streams (10M+ rows); merging is associative, so the result is the same.
_COLLAPSE_KEYS = 4_000_000


def _encoding(source) -> ChunkedRelation:
    """The cached encoding a source's chunks come from.

    A :class:`ChunkedRelation` is its own encoding; a :class:`Relation`
    answers with :meth:`Relation.columnar`.  The encoding holds the
    ``tuple_square_sums`` cache.
    """
    if isinstance(source, ChunkedRelation):
        return source
    if not isinstance(source, Relation):
        raise TypeError(
            f"statistics need a Relation or ChunkedRelation, got {type(source).__name__}"
        )
    return source.columnar()


def _packed_radices(encoding, attributes: Sequence[str]) -> Optional[Dict[str, int]]:
    """Global radices to pack ``attributes`` into ``int64`` keys, or ``None``.

    Radix per attribute = cardinality + 1 (the +1 shift reserves 0 for
    NULL).  ``None`` — count code tuples instead — when numpy is absent
    or the radix product passes :data:`_PACK_LIMIT`.
    """
    if np is None:
        return None
    radices = {a: encoding.cardinality(a) + 1 for a in attributes}
    return radices if math.prod(radices.values()) <= _PACK_LIMIT else None


def _merged_arrays(chunks, attributes, radices, non_null) -> Optional[ArrayFdCounts]:
    """Packed counts of ``chunks`` merged key-wise (``None`` when no row survived)."""
    bound = math.prod(radices[a] for a in attributes)
    accumulator = _ArrayMergeAccumulator(bound)
    for chunk in chunks:
        # No name holds the raw keys: they are freed before the next chunk packs.
        accumulator.add(
            ArrayFdCounts.from_raw_keys(pack_rows(chunk, attributes, radices, non_null), bound)
        )
    return accumulator.result()


def _without_nulls(rows: Iterator, lists: Dict[str, List[int]], non_null: Sequence[str]):
    """``rows`` (one per row of a chunk) without those NULL on ``non_null``."""
    if not non_null:
        return rows
    codes = zip(*(lists[a] for a in non_null))
    return compress(rows, (NULL_CODE not in row for row in codes))


def _distinct_tuple_counts(
    encoding, attributes: Sequence[str], non_null: Sequence[str] = ()
) -> Sequence[int]:
    """Multiplicities of the distinct code tuples of ``attributes``.

    Only the rows non-NULL on every attribute of ``non_null`` count;
    otherwise NULL is one more value.  Per-chunk counts merge key-wise
    before anyone reads them, so they are those of one scan of all rows
    whatever the chunking.  Packed (see :func:`_packed_radices`) they are
    an ``int64`` array; counted as code tuples, a list.
    """
    radices = _packed_radices(encoding, attributes)
    if radices is not None:
        merged = _merged_arrays(encoding.iter_chunks(), attributes, radices, non_null)
        return np.zeros(0, dtype=np.int64) if merged is None else merged.counts
    counts: Counter = Counter()
    for chunk in encoding.iter_chunks():
        lists = {a: chunk.column_list(a) for a in attributes}
        counts.update(_without_nulls(zip(*lists.values()), lists, non_null))
    return list(counts.values())


def is_key(source, attributes: Sequence[str]) -> bool:
    """True when no two rows of ``source`` agree on ``attributes``.

    NULL counts as an ordinary value here (two rows NULL on the same
    attributes agree), unlike the statistics pass, which drops them: a
    key under this rule stays a key on every NULL-restricted subset of
    the rows and for every superset of ``attributes``.

    One attribute costs O(1): it is a key when at most one cell is NULL
    and the distinct values plus that NULL cover every row.  Several
    attributes count the distinct code tuples over the same chunk stream
    the statistics pass reads (:func:`_distinct_tuple_counts`).
    """
    encoding = _encoding(source)
    if len(attributes) == 1:
        nulls = encoding.null_count(attributes[0])
        return nulls <= 1 and encoding.cardinality(attributes[0]) + nulls == source.num_rows
    return len(_distinct_tuple_counts(encoding, attributes)) == source.num_rows


def tuple_square_sum(source, non_null: Sequence[str] = ()) -> int:
    """``Σ_w R(w)²`` over the rows of ``source`` non-NULL on ``non_null``.

    ``w`` ranges over the distinct full tuples of those rows, NULL
    counted as a value on the other attributes.  An FD's
    ``tuple_square_sum`` (in g1′'s normaliser ``|R|² − Σ_w R(w)²``) is
    this sum with ``non_null`` the attributes of ``X ∪ Y`` that hold a
    NULL, and depends on the FD through nothing else.  So it is counted
    once per encoding and set of attributes and kept on the encoding;
    two threads racing on a first call both count and store the same
    value.  The full-tuple counts of all chunks are merged before they
    are squared (a sum of per-chunk squares would be wrong).
    """
    encoding = _encoding(source)
    key = tuple(a for a in encoding.attributes if a in non_null)
    square_sum = encoding.tuple_square_sums.get(key)
    if square_sum is None:
        counts = _distinct_tuple_counts(encoding, encoding.attributes, key)
        if isinstance(counts, list):
            square_sum = sum(count * count for count in counts)
        else:
            square_sum = int((counts * counts).sum())
        encoding.tuple_square_sums[key] = square_sum
    return square_sum


class _ArrayMergeAccumulator:
    """Array-partial buffer with bounded-memory collapses.

    Partials are buffered and merged in one vectorised pass at the end;
    when the buffered distinct-key total crosses :data:`_COLLAPSE_KEYS`
    the pending list is collapsed early.  ``bound`` is the radix product
    the partials' keys lie below.
    """

    def __init__(self, bound: int):
        self._bound = bound
        self._pending: List[ArrayFdCounts] = []
        self._buffered = 0

    def add(self, partial: ArrayFdCounts) -> None:
        if partial.num_rows == 0:
            return
        self._pending.append(partial)
        self._buffered += partial.num_keys
        if self._buffered > _COLLAPSE_KEYS and len(self._pending) > 1:
            collapsed = ArrayFdCounts.merge_all(self._pending, self._bound)
            self._pending = [collapsed]
            self._buffered = collapsed.num_keys

    def result(self) -> Optional[ArrayFdCounts]:
        """The merged partial, or ``None`` when no row survived."""
        return ArrayFdCounts.merge_all(self._pending, self._bound) if self._pending else None


def _array_statistics(
    merged: ArrayFdCounts,
    fd: FunctionalDependency,
    radices: Dict[str, int],
    square_sum: int,
    relation_name: str,
) -> FdStatistics:
    """Build ``FdStatistics`` straight from the merged array counts.

    The merged joint keys are ascending and packed X-major, so equal X
    keys are adjacent: the per-``x`` facts are ``reduceat`` sums over
    their runs.  The Y marginal groups the Y digits (range: the RHS
    radix product) weighted by the joint counts, and each count
    histogram groups its counts (range: the largest + 1); both go
    through :func:`~repro.core.partial.grouped`, which tallies a range of
    at most ``2 · len + 1024`` and sorts a longer one.  The
    ``(S_x, c_x)`` histogram sorts its pairs.  Only integer arrays are
    built here; the floats are computed in Python from the histograms
    (the fsum contract of :mod:`repro.core.statistics`).
    """
    rhs_product = 1
    for attribute in fd.rhs:
        rhs_product *= radices[attribute]
    keys = merged.keys
    counts = merged.counts
    x_keys = keys // rhs_product
    starts = run_starts(x_keys)
    x_totals = np.add.reduceat(counts, starts)
    pairs_per_x = np.diff(np.append(starts, keys.shape[0]))
    squares = np.add.reduceat(counts * counts, starts)
    _, y_totals = grouped(keys % rhs_product, rhs_product, counts)
    return FdStatistics(
        fd=fd,
        num_rows=merged.num_rows,
        x_histogram=_histogram(x_totals),
        y_histogram=_histogram(y_totals),
        xy_histogram=_histogram(counts),
        violating_tuples=int(x_totals[pairs_per_x > 1].sum()),
        max_subrelation=int(np.maximum.reduceat(counts, starts).sum()),
        tuple_square_sum=square_sum,
        group_squares=_pair_histogram(squares, x_totals),
        relation_name=relation_name,
    )


def _histogram(values: "np.ndarray") -> Dict[int, int]:
    """``{value: multiplicity}`` of non-empty counts as Python ints, keys ascending."""
    distinct, multiplicities = grouped(values, int(values.max()) + 1)
    return dict(zip(distinct.tolist(), multiplicities.tolist()))


def _pair_histogram(first: "np.ndarray", second: "np.ndarray") -> Dict[Tuple[int, int], int]:
    """``{(first, second): multiplicity}`` as Python ints, keys ascending."""
    order = np.lexsort((second, first))
    first = first[order]
    second = second[order]
    starts = run_starts(first, second)
    multiplicities = np.diff(np.append(starts, first.shape[0]))
    return dict(
        zip(zip(first[starts].tolist(), second[starts].tolist()), multiplicities.tolist())
    )


def map_merge(source, fd: FunctionalDependency) -> FdStatistics:
    """Compute ``FdStatistics`` of ``fd`` on ``source`` by chunked map-merge.

    ``source`` is a :class:`Relation` or :class:`ChunkedRelation`.  The
    kernel follows :func:`_packed_radices` on ``X ∪ Y``; the result is
    ``==`` across kernels and chunkings.
    """
    encoding = _encoding(source)
    for attribute in fd.attributes:
        if attribute not in encoding.attributes:
            raise KeyError(
                f"FD attribute {attribute!r} not in relation schema {list(encoding.attributes)}"
            )
    relation_name = getattr(source, "name", "")
    # Only the attributes of X ∪ Y that hold a NULL can drop a row.
    non_null = tuple(a for a in fd.attributes if encoding.null_count(a))
    # When X ∪ Y is the whole schema the full tuples are the (x, y) pairs,
    # so Σ_w R(w)² is read off the merged joint counts below.
    covers_schema = set(fd.attributes) == set(encoding.attributes)
    square_sum = None if covers_schema else tuple_square_sum(source, non_null)
    radices = _packed_radices(encoding, fd.attributes)
    registry = get_registry()
    registry.inc("chunked_passes_total", path="tuple" if radices is None else "array")
    registry.inc("chunked_chunks_total", encoding.num_chunks)
    if radices is None:
        xy_counts: Counter = Counter()
        for chunk in encoding.iter_chunks():
            lists = {a: chunk.column_list(a) for a in fd.attributes}
            pairs = zip(zip(*(lists[a] for a in fd.lhs)), zip(*(lists[a] for a in fd.rhs)))
            # Counter counts at C level: the pairs are the kernel's only
            # per-row Python objects.
            xy_counts.update(_without_nulls(pairs, lists, non_null))
        if square_sum is None:
            square_sum = sum(count * count for count in xy_counts.values())
        return FdStatistics.from_joint_counts(
            fd, sum(xy_counts.values()), xy_counts, square_sum, relation_name
        )

    merged = _merged_arrays(encoding.iter_chunks(), fd.lhs + fd.rhs, radices, non_null)
    if merged is None:
        return FdStatistics.from_joint_counts(fd, 0, {}, 0, relation_name)
    if square_sum is None:
        square_sum = int((merged.counts * merged.counts).sum())
    return _array_statistics(merged, fd, radices, square_sum, relation_name)
