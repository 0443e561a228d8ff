"""The statistics pass: per-chunk partial counts, merged in chunk order.

:meth:`FdStatistics.compute` runs :func:`map_merge`: the source is read
as a stream of :class:`~repro.relation.chunked.CodeChunk`\\ s of
dictionary codes, the backend's one partial kernel turns each chunk into
mergeable counts, the partials merge **in chunk order** (which reproduces
the global first-occurrence ``Counter`` order of a single scan, see
:mod:`repro.core.partial`), the merged ``(x, y)`` keys decode to value
tuples once, and ``FdStatistics.from_joint_counts`` assembles the result.
Every chunking of the same rows therefore yields ``==`` statistics and
bit-identical scores.

Kernels (:mod:`repro.core.backends`):

* ``numpy`` — each chunk packs to one ``int64`` key per row under a
  global mixed-radix scheme and groups vectorised; the merge is
  ``np.concatenate`` plus one first-seen grouping, and the integer and
  ``Σ p²`` statistics are pre-seeded from the merged arrays;
* ``python`` — code tuples counted into dicts.  It also serves the numpy
  backend when the relation's radix product would pass the packing
  limit.

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

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.backends import covers_schema, resolve_backend
from repro.core.partial import (
    ArrayFdCounts,
    PartialFdCounts,
    dense_first_occurrence,
    unpack_key_columns,
)
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
#: streams (10M+ rows) without changing the final first-occurrence
#: order (collapsing a prefix then merging the rest is associative).
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
    """Ordered array-partial buffer with bounded-memory collapses.

    Partials are appended in chunk order and merged in one vectorised
    pass at the end; when the buffered distinct-key total crosses
    :data:`_COLLAPSE_KEYS` the pending list is collapsed early — the
    collapsed prefix keeps its position, so the final order (and hence
    the decoded ``Counter`` order) is unchanged.
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


def _decode_counts(
    merged: Counter, fd: FunctionalDependency, tables: Dict[str, List[object]]
) -> Counter:
    """Translate code-tuple keys to value-tuple keys, preserving order.

    Decoding is order-preserving and injective (the dictionary encoding
    dedupes ``==``-equal values, so distinct codes mean distinct
    values), hence the decoded counter carries exactly the keys — in
    exactly the order — a value-keyed scan produces.
    """
    lhs_tables = [tables[a] for a in fd.lhs]
    rhs_tables = [tables[a] for a in fd.rhs]
    xy_counts: Counter = Counter()
    for (x_codes, y_codes), count in merged.items():
        xy_counts[
            (
                tuple(table[code] for table, code in zip(lhs_tables, x_codes)),
                tuple(table[code] for table, code in zip(rhs_tables, y_codes)),
            )
        ] = count
    return xy_counts


def _decode_array_counts(
    merged: ArrayFdCounts,
    fd: FunctionalDependency,
    tables: Dict[str, List[object]],
    radices: Dict[str, int],
) -> Counter:
    """Unpack and decode the merged joint keys, preserving order.

    The single place the array path touches Python tuples: one divmod
    unpack plus one O(distinct) loop — the same order-preserving,
    injective decode as :func:`_decode_counts`.
    """
    columns = unpack_key_columns(merged.xy_keys, [radices[a] for a in fd.lhs + fd.rhs])
    lhs_tables = [tables[a] for a in fd.lhs]
    rhs_tables = [tables[a] for a in fd.rhs]
    split = len(fd.lhs)
    counts = merged.xy_counts.tolist()
    xy_counts: Counter = Counter()
    if split == 1 and len(fd.rhs) == 1:
        x_table, y_table = lhs_tables[0], rhs_tables[0]
        for x_code, y_code, count in zip(columns[0].tolist(), columns[1].tolist(), counts):
            xy_counts[((x_table[x_code],), (y_table[y_code],))] = count
        return xy_counts
    lhs_codes = [column.tolist() for column in columns[:split]]
    rhs_codes = [column.tolist() for column in columns[split:]]
    for group, count in enumerate(counts):
        xy_counts[
            (
                tuple(table[codes[group]] for table, codes in zip(lhs_tables, lhs_codes)),
                tuple(table[codes[group]] for table, codes in zip(rhs_tables, rhs_codes)),
            )
        ] = count
    return xy_counts


def _sequential_sum(values: "np.ndarray") -> float:
    """Left-to-right float sum, bit-matching a scalar accumulation loop.

    ``cumsum`` materialises every prefix sum and is therefore necessarily
    a sequential reduction — unlike ``np.sum``, whose pairwise reduction
    rounds differently from the scalar code it would stand in for.
    """
    return float(np.cumsum(values)[-1])


def _seed_from_array_merge(
    statistics: FdStatistics,
    merged: ArrayFdCounts,
    fd: FunctionalDependency,
    radices: Dict[str, int],
) -> None:
    """Eagerly derive the vectorisable statistics and seed the cache.

    The parent X/Y group ids fall out of the packed joint keys by divmod
    (first-occurrence order is preserved — an X value's first ``(X, Y)``
    group is its first restricted row).  Integer quantities are exact
    ``int64``; the ``Σ p²`` float sums reproduce the scalar path
    bit-for-bit (see :mod:`repro.core.backends`).
    """
    rhs_product = 1
    for attribute in fd.rhs:
        rhs_product *= radices[attribute]
    counts = merged.xy_counts
    x_of_xy, _, _ = dense_first_occurrence(merged.xy_keys // rhs_product)
    y_of_xy, _, _ = dense_first_occurrence(merged.xy_keys % rhs_product)
    num_x = int(x_of_xy.max()) + 1
    x_counts = np.zeros(num_x, dtype=np.int64)
    np.add.at(x_counts, x_of_xy, counts)
    y_counts = np.zeros(int(y_of_xy.max()) + 1, dtype=np.int64)
    np.add.at(y_counts, y_of_xy, counts)
    squares = np.zeros(num_x, dtype=np.int64)
    np.add.at(squares, x_of_xy, counts * counts)
    maxima = np.zeros(num_x, dtype=np.int64)
    np.maximum.at(maxima, x_of_xy, counts)
    distinct_y_per_x = np.bincount(x_of_xy, minlength=num_x)

    cache = statistics._cache
    cache["violating_pairs"] = int((x_counts * x_counts - squares).sum())
    cache["violating_tuples"] = int(x_counts[distinct_y_per_x > 1].sum())
    cache["max_subrelation"] = int(maxima.sum())
    for key, array in (("sum_sq_x", x_counts), ("sum_sq_y", y_counts), ("sum_sq_xy", counts)):
        probabilities = array / merged.num_rows
        cache[key] = _sequential_sum(probabilities * probabilities)


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
            fd,
            merged.num_rows,
            _decode_counts(merged.xy_counts, fd, tables),
            merged.square_sum(),
            relation_name=relation_name,
        )

    accumulator = _ArrayMergeAccumulator()
    for chunk in chunks:
        registry.inc("chunked_chunks_total")
        accumulator.add(backend_object.partial(chunk, fd, radices))
    merged_arrays = accumulator.result()
    if merged_arrays is None:
        return FdStatistics.from_joint_counts(
            fd, 0, Counter(), 0, relation_name=relation_name
        )
    statistics = FdStatistics.from_joint_counts(
        fd,
        merged_arrays.num_rows,
        _decode_array_counts(merged_arrays, fd, tables, radices),
        merged_arrays.square_sum(),
        relation_name=relation_name,
    )
    _seed_from_array_merge(statistics, merged_arrays, fd, radices)
    return statistics
