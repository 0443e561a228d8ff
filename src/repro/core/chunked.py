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
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.backends import covers_schema, resolve_backend
from repro.core.partial import ArrayFdCounts, PartialFdCounts, group_sum, run_starts
from repro.core.statistics import FdStatistics
from repro.obs.metrics import get_registry
from repro.relation.chunked import DEFAULT_CHUNK_SIZE, ChunkedRelation, CodeChunk
from repro.relation.columnar import _PACK_LIMIT
from repro.relation.fd import FunctionalDependency
from repro.relation.relation import Relation

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

#: Buffered distinct keys that trigger an intermediate collapse of the
#: pending array partials: bounds merge memory on very long chunk
#: streams (10M+ rows); merging is associative, so the result is the same.
_COLLAPSE_KEYS = 4_000_000


def _chunk_stream(
    source,
) -> Tuple[Tuple[str, ...], Dict[str, List[object]], Iterable[CodeChunk]]:
    """Resolve ``(attributes, decode tables, chunk iterator)`` for a source."""
    if isinstance(source, ChunkedRelation):
        return source.attributes, source.decode_tables(), source.iter_chunks()
    if not isinstance(source, Relation):
        raise TypeError(
            f"statistics need a Relation or ChunkedRelation, got {type(source).__name__}"
        )
    columnar = source.columnar()
    if columnar is None:
        encoded = source.chunked()
        return encoded.attributes, encoded.decode_tables(), encoded.iter_chunks()

    attributes = source.attributes
    tables = {a: columnar.decode_table(a) for a in attributes}

    def chunks() -> Iterator[CodeChunk]:
        codes = {a: columnar.codes(a) for a in attributes}
        total = source.num_rows
        for start in range(0, total, DEFAULT_CHUNK_SIZE):
            stop = min(start + DEFAULT_CHUNK_SIZE, total)
            yield CodeChunk(
                attributes,
                {a: column[start:stop] for a, column in codes.items()},
                stop - start,
            )

    return attributes, tables, chunks()


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
