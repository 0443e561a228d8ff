"""The statistics pass: per-chunk partial counts, merged, then histogrammed.

:meth:`FdStatistics.compute` runs :func:`map_merge`: the source is read
as a stream of :class:`~repro.relation.chunked.CodeChunk`\\ s of
dictionary codes, the backend's one partial kernel turns each chunk into
mergeable counts, the partials merge key-wise, and the merged counts are
reduced to the order-free :class:`FdStatistics` once.  Merging is exact
integer addition, so every chunking of the same rows yields the same
merged counts, hence ``==`` statistics and bit-identical scores.

Kernels (:mod:`repro.core.backends`):

* ``numpy`` — each chunk packs to one ``int64`` key per row under a
  global mixed-radix scheme and groups vectorised; the merge is
  ``np.concatenate`` plus one sorted grouping, and
  :func:`_array_statistics` builds the statistics straight from the
  merged arrays;
* ``python`` — code tuples counted into dicts and reduced by
  ``FdStatistics.from_joint_counts``.  It also serves the numpy backend
  when the relation's radix product would pass the packing limit.

No key is ever decoded: codes group exactly as values do.

Chunk sources:

* a :class:`~repro.relation.chunked.ChunkedRelation` — its stored chunks
  and decode tables;
* a :class:`~repro.relation.relation.Relation` with numpy — zero-copy
  slices of the cached columnar ``int32`` code arrays,
  :data:`~repro.relation.chunked.DEFAULT_CHUNK_SIZE` rows each, so a
  relation of up to 65,536 rows is one chunk;
* a :class:`Relation` without numpy — its cached ``array.array``
  encoding (:meth:`Relation.chunked`), built once per relation.

:func:`is_key` reads the same encodings and chunk stream: discovery's
key check (NULL counted as a value) is O(1) for one attribute and one
distinct count of the packed codes for several.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.backends import covers_schema, resolve_backend
from repro.core.partial import ArrayFdCounts, PartialFdCounts, group_sum, run_starts
from repro.core.statistics import FdStatistics
from repro.obs.metrics import get_registry
from repro.relation.chunked import DEFAULT_CHUNK_SIZE, ChunkedRelation, CodeChunk
from repro.relation.fd import FunctionalDependency
from repro.relation.relation import Relation

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

#: Largest packed key any mixed-radix pack may produce (int64 headroom).
_PACK_LIMIT = 2**62

#: Buffered distinct keys that trigger an intermediate collapse of the
#: pending array partials: bounds merge memory on very long chunk
#: streams (10M+ rows); merging is associative, so the result is the same.
_COLLAPSE_KEYS = 4_000_000


def _encoding(source):
    """The cached encoding a source's chunks come from.

    A :class:`ChunkedRelation` is its own encoding; a :class:`Relation`
    answers with its columnar view, or without numpy with its cached
    :meth:`Relation.chunked` store.  Both kinds answer
    ``cardinality(attribute)`` and ``null_count(attribute)``.
    """
    if isinstance(source, ChunkedRelation):
        return source
    if not isinstance(source, Relation):
        raise TypeError(
            f"statistics need a Relation or ChunkedRelation, got {type(source).__name__}"
        )
    columnar = source.columnar()
    return columnar if columnar is not None else source.chunked()


def _chunk_stream(
    source,
) -> Tuple[Tuple[str, ...], Dict[str, List[object]], Iterable[CodeChunk]]:
    """Resolve ``(attributes, decode tables, chunk iterator)`` for a source."""
    encoding = _encoding(source)
    if isinstance(encoding, ChunkedRelation):
        return encoding.attributes, encoding.decode_tables(), encoding.iter_chunks()

    attributes = source.attributes
    tables = {a: encoding.decode_table(a) for a in attributes}

    def chunks() -> Iterator[CodeChunk]:
        codes = {a: encoding.codes(a) for a in attributes}
        total = source.num_rows
        for start in range(0, total, DEFAULT_CHUNK_SIZE):
            stop = min(start + DEFAULT_CHUNK_SIZE, total)
            yield CodeChunk(
                attributes,
                {a: column[start:stop] for a, column in codes.items()},
                stop - start,
            )

    return attributes, tables, chunks()


def is_key(source, attributes: Sequence[str]) -> bool:
    """True when no two rows of ``source`` agree on ``attributes``.

    NULL counts as an ordinary value here (two rows NULL on the same
    attributes agree), unlike the statistics pass, which drops them: a
    key under this rule stays a key on every NULL-restricted subset of
    the rows and for every superset of ``attributes``.

    One attribute costs O(1): it is a key when at most one cell is NULL
    and the distinct values plus that NULL cover every row.  Several
    attributes count the distinct code tuples over the same chunk stream
    the statistics pass reads: packed into ``int64`` under global radices
    with numpy, as a set of code tuples past the packing limit or without
    numpy.
    """
    encoding = _encoding(source)
    num_rows = source.num_rows
    if len(attributes) == 1:
        nulls = encoding.null_count(attributes[0])
        return nulls <= 1 and encoding.cardinality(attributes[0]) + nulls == num_rows
    _, _, chunks = _chunk_stream(source)
    # +1 shifts NULL's code -1 to 0, so NULL is one more value.
    radices = [encoding.cardinality(attribute) + 1 for attribute in attributes]
    if np is not None and math.prod(radices) <= _PACK_LIMIT:
        packed = []
        for chunk in chunks:
            keys = np.zeros(chunk.num_rows, dtype=np.int64)
            for attribute, radix in zip(attributes, radices):
                keys = keys * radix + np.asarray(chunk.column(attribute), dtype=np.int64) + 1
            packed.append(keys)
        return not packed or np.unique(np.concatenate(packed)).shape[0] == num_rows
    seen = set()
    for chunk in chunks:
        seen.update(zip(*(chunk.column_list(attribute) for attribute in attributes)))
    return len(seen) == num_rows


def _pack_radices(
    attributes: Tuple[str, ...],
    fd: FunctionalDependency,
    tables: Dict[str, List[object]],
) -> Optional[Dict[str, int]]:
    """Global radices for the numpy kernel, or ``None`` if packing overflows.

    Radix per attribute = decode-table cardinality + 1 (the +1 shift
    reserves 0 for NULL).  ``None`` — the python kernel runs instead —
    when a needed radix product would exceed the ``int64`` packing limit
    (the full-tuple product is only needed when the FD does not cover
    the schema).
    """
    radices = {a: len(tables[a]) + 1 for a in attributes}
    packed = [fd.lhs + fd.rhs]
    if not covers_schema(attributes, fd):
        packed.append(attributes)
    for group in packed:
        product = 1
        for attribute in group:
            product *= radices[attribute]
            if product > _PACK_LIMIT:
                return None
    return radices


class _ArrayMergeAccumulator:
    """Array-partial buffer with bounded-memory collapses.

    Partials are buffered and merged in one vectorised pass at the end;
    when the buffered distinct-key total crosses :data:`_COLLAPSE_KEYS`
    the pending list is collapsed early.
    """

    def __init__(self):
        self._pending: List[ArrayFdCounts] = []
        self._buffered = 0

    def add(self, partial: ArrayFdCounts) -> None:
        if partial.num_rows == 0:
            return
        self._pending.append(partial)
        self._buffered += partial.num_keys
        if self._buffered > _COLLAPSE_KEYS and len(self._pending) > 1:
            collapsed = ArrayFdCounts.merge_all(self._pending)
            self._pending = [collapsed]
            self._buffered = collapsed.num_keys

    def result(self) -> Optional[ArrayFdCounts]:
        """The merged partial, or ``None`` when no row survived."""
        return ArrayFdCounts.merge_all(self._pending) if self._pending else None


def _array_statistics(
    merged: ArrayFdCounts,
    fd: FunctionalDependency,
    radices: Dict[str, int],
    relation_name: str,
) -> FdStatistics:
    """Build ``FdStatistics`` straight from the merged array counts.

    The merged joint keys are ascending and packed X-major, so equal X
    keys are adjacent: the per-``x`` facts are ``reduceat`` sums over
    their runs, the Y marginal is one more grouping, and every histogram
    is an ``np.unique``.  Only integer arrays are built here; the floats
    are computed in Python from the histograms (the fsum contract of
    :mod:`repro.core.statistics`).
    """
    rhs_product = 1
    for attribute in fd.rhs:
        rhs_product *= radices[attribute]
    keys = merged.xy_keys
    counts = merged.xy_counts
    x_keys = keys // rhs_product
    starts = run_starts(x_keys)
    x_totals = np.add.reduceat(counts, starts)
    pairs_per_x = np.diff(np.append(starts, keys.shape[0]))
    squares = np.add.reduceat(counts * counts, starts)
    _, y_totals = group_sum(keys % rhs_product, counts)
    return FdStatistics(
        fd=fd,
        num_rows=merged.num_rows,
        x_histogram=_histogram(x_totals),
        y_histogram=_histogram(y_totals),
        xy_histogram=_histogram(counts),
        violating_tuples=int(x_totals[pairs_per_x > 1].sum()),
        max_subrelation=int(np.maximum.reduceat(counts, starts).sum()),
        tuple_square_sum=merged.square_sum(),
        group_squares=_pair_histogram(squares, x_totals),
        relation_name=relation_name,
    )


def _histogram(values: "np.ndarray") -> Dict[int, int]:
    """``{value: multiplicity}`` as Python ints, keys ascending."""
    distinct, multiplicities = np.unique(values, return_counts=True)
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


def map_merge(
    source, fd: FunctionalDependency, backend: Optional[str] = None
) -> FdStatistics:
    """Compute ``FdStatistics`` of ``fd`` on ``source`` by chunked map-merge.

    ``source`` is a :class:`Relation` or :class:`ChunkedRelation`;
    ``backend`` is resolved like :meth:`FdStatistics.compute`.  The
    result is ``==`` across backends and chunkings.
    """
    backend_object = resolve_backend(backend)
    attributes, tables, chunks = _chunk_stream(source)
    for attribute in fd.attributes:
        if attribute not in attributes:
            raise KeyError(
                f"FD attribute {attribute!r} not in relation schema {list(attributes)}"
            )
    relation_name = getattr(source, "name", "")
    radices = None
    if backend_object.name == "numpy":
        radices = _pack_radices(attributes, fd, tables)
    registry = get_registry()
    registry.inc("chunked_passes_total", path="tuple" if radices is None else "array")

    if radices is None:
        kernel = resolve_backend("python")
        merged = PartialFdCounts()
        for chunk in chunks:
            registry.inc("chunked_chunks_total")
            merged.merge(kernel.partial(chunk, fd))
        return FdStatistics.from_joint_counts(
            fd, merged.num_rows, merged.xy_counts, merged.square_sum(), relation_name
        )

    accumulator = _ArrayMergeAccumulator()
    for chunk in chunks:
        registry.inc("chunked_chunks_total")
        accumulator.add(backend_object.partial(chunk, fd, radices))
    merged_arrays = accumulator.result()
    if merged_arrays is None:
        return FdStatistics.from_joint_counts(fd, 0, {}, 0, relation_name)
    return _array_statistics(merged_arrays, fd, radices, relation_name)
