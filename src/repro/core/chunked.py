"""The statistics pass: per-chunk partial counts, merged in chunk order.

:meth:`FdStatistics.compute` runs :func:`map_merge`: the source is read
as a stream of :class:`~repro.relation.chunked.CodeChunk`\\ s of
dictionary codes, the backend's one partial kernel turns each chunk into
mergeable counts, the partials merge **in chunk order** (which reproduces
the global first-occurrence ``Counter`` order of a single scan, see
:mod:`repro.core.partial`), and the merged counts are assembled into
``FdStatistics`` once.  Every chunking of the same rows therefore yields
``==`` statistics and bit-identical scores.

Kernels (:mod:`repro.core.backends`):

* ``numpy`` — each chunk packs to one ``int64`` key per row under a
  global mixed-radix scheme and groups vectorised; the merge is
  ``np.concatenate`` plus one first-seen grouping, and
  :func:`_array_statistics` builds the statistics straight from the
  merged arrays: marginals, decoded keys and the facts measures read;
* ``python`` — code tuples counted into dicts, decoded with the same
  helper and assembled by ``FdStatistics.from_joint_counts``.  It also
  serves the numpy backend when the relation's radix product would pass
  the packing limit.

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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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


def _decode_tuples(
    tables: Sequence[List[object]], columns: Sequence[Iterable[int]]
) -> List[Tuple]:
    """Decode per-attribute code columns into value tuples, order kept.

    Decoding is order-preserving and injective (the dictionary encoding
    dedupes ``==``-equal values, so distinct codes mean distinct
    values), hence decoded keys are exactly the keys — in exactly the
    order — a value-keyed scan produces.  C-level ``map``/``zip``.
    """
    return list(zip(*[map(table.__getitem__, column) for table, column in zip(tables, columns)]))


def _counter(keys: Iterable, counts: Iterable[int]) -> Counter:
    """A ``Counter`` of ``keys`` to ``counts`` (``Counter.update`` would count pairs)."""
    counter: Counter = Counter()
    dict.update(counter, zip(keys, counts))
    return counter


def _decode_counts(
    merged: PartialFdCounts, fd: FunctionalDependency, tables: Dict[str, List[object]]
) -> Counter:
    """Translate the code-tuple joint keys to value-tuple keys, preserving order."""
    if not merged.xy_counts:
        return Counter()
    x_codes, y_codes = zip(*merged.xy_counts)
    x_values = _decode_tuples([tables[a] for a in fd.lhs], list(zip(*x_codes)))
    y_values = _decode_tuples([tables[a] for a in fd.rhs], list(zip(*y_codes)))
    return _counter(zip(x_values, y_values), merged.xy_counts.values())


def _sequential_sum(values: "np.ndarray") -> float:
    """Left-to-right float sum, bit-matching a scalar accumulation loop.

    ``cumsum`` materialises every prefix sum and is therefore necessarily
    a sequential reduction — unlike ``np.sum``, whose pairwise reduction
    rounds differently from the scalar code it would stand in for.
    """
    return float(np.cumsum(values)[-1])


def _array_statistics(
    merged: ArrayFdCounts,
    fd: FunctionalDependency,
    tables: Dict[str, List[object]],
    radices: Dict[str, int],
    relation_name: str,
) -> FdStatistics:
    """Assemble ``FdStatistics`` straight from the merged array counts.

    The joint keys split by divmod into X and Y keys, each grouped by
    first occurrence — the marginal order ``from_joint_counts`` would
    produce.  Only distinct X and Y keys are decoded.  The seeded facts
    equal the lazy scalar paths bit-for-bit: integers are exact, and the
    floats run the same IEEE operations in the same order (``np.add.at``
    in index order, :func:`_sequential_sum` left to right).
    """
    rhs_product = 1
    for attribute in fd.rhs:
        rhs_product *= radices[attribute]
    counts = merged.xy_counts
    x_keys = merged.xy_keys // rhs_product
    y_keys = merged.xy_keys % rhs_product
    x_of_xy, pairs_per_x, x_first = dense_first_occurrence(x_keys)
    y_of_xy, _, y_first = dense_first_occurrence(y_keys)
    x_totals = np.zeros(x_first.shape[0], dtype=np.int64)
    np.add.at(x_totals, x_of_xy, counts)
    y_totals = np.zeros(y_first.shape[0], dtype=np.int64)
    np.add.at(y_totals, y_of_xy, counts)

    def decode(attributes: Tuple[str, ...], keys: "np.ndarray") -> List[Tuple]:
        columns = unpack_key_columns(keys, [radices[a] for a in attributes])
        return _decode_tuples([tables[a] for a in attributes], [c.tolist() for c in columns])

    x_values = decode(fd.lhs, x_keys[x_first])
    y_values = decode(fd.rhs, y_keys[y_first])
    xy_values = zip(
        map(x_values.__getitem__, x_of_xy.tolist()),
        map(y_values.__getitem__, y_of_xy.tolist()),
    )
    statistics = FdStatistics(
        fd=fd,
        num_rows=merged.num_rows,
        x_counts=_counter(x_values, x_totals.tolist()),
        y_counts=_counter(y_values, y_totals.tolist()),
        xy_counts=_counter(xy_values, counts.tolist()),
        tuple_square_sum=merged.square_sum(),
        relation_name=relation_name,
    )

    maxima = np.zeros(x_first.shape[0], dtype=np.int64)
    np.maximum.at(maxima, x_of_xy, counts)
    conditional = counts / x_totals[x_of_xy]
    squares = np.zeros(x_first.shape[0], dtype=np.float64)
    np.add.at(squares, x_of_xy, conditional * conditional)
    y_probabilities = y_totals / merged.num_rows
    cache = statistics._cache
    cache["violating_pairs"] = int((x_totals * x_totals).sum() - (counts * counts).sum())
    cache["violating_tuples"] = int(x_totals[pairs_per_x > 1].sum())
    cache["max_subrelation"] = int(maxima.sum())
    cache["sum_sq_y"] = _sequential_sum(y_probabilities * y_probabilities)
    cache["E_h_y_given_x"] = _sequential_sum(x_totals / merged.num_rows * (1.0 - squares))
    return statistics


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
            _decode_counts(merged, fd, tables),
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
    return _array_statistics(merged_arrays, fd, tables, radices, relation_name)
