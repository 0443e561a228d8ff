"""Out-of-core chunked relations: streamed ingest, encoded chunk storage.

:class:`~repro.relation.relation.Relation` materialises every row as a
Python tuple — fine at paper scale, ruinous at millions of rows (a 1M-row
relation costs hundreds of MB of tuple/object overhead before a single
statistic is computed).  :class:`ChunkedRelation` is the out-of-core
counterpart: rows are consumed **streamed** (raw cells from the CSV
reader, typed rows from a generator) in batches of
:data:`~repro.relation.io.READ_BATCH_ROWS` rows, dictionary-encoded
incrementally with one extendable value -> code table per attribute,
and stored as fixed-size :class:`CodeChunk`\\ s of ``int32`` code arrays
— 4 bytes per cell plus one decode table per attribute, never a full row
list.  It is also the one encoding of an in-memory relation, whose rows
go to the same encoder one chunk at a time:
:meth:`Relation.columnar <repro.relation.relation.Relation.columnar>`
caches :meth:`ChunkedRelation.from_relation` on the relation, so every
statistics pass reads chunks of this class.

While a store is built, each column keeps a memo of raw cell -> code
across batches, capped at :data:`_MEMO_LIMIT` cells.  A batch whose
cells are all in the memo is coded in one C-level pass of lookups; only
cells new to the memo are converted and coded, once each, in
first-occurrence order, through the value -> code table, which stays
authoritative (so ``"1"``, ``"01"`` and ``"1.0"`` share a code).  Cells
that stay themselves and are new to that table take consecutive codes in
one step.  Past the cap, new cells are coded through a batch-local
lookup, so the memo never grows with the file.  A built store never
changes, so it drops the memos and the value -> code tables and keeps
only its decode tables, null counts and chunks.

The chunk iterator feeds the statistics pass (:mod:`repro.core.chunked`)
directly: each chunk becomes one partial count, merged in chunk order
into statistics bit-identical to the same rows held as a
:class:`~repro.relation.relation.Relation`.  Because the encoding is
global (one growing table per attribute, first-occurrence codes), the
per-chunk counts are keyed by codes that mean the same thing in every
chunk.

Without numpy the chunks fall back to ``array.array("i")`` — same 4-byte
cells, pure stdlib — and the statistics pass counts them as code tuples,
so the chunked path works without numpy too.
"""

from __future__ import annotations

from array import array
from itertools import chain, filterfalse, islice
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.relation.io import READ_BATCH_ROWS, read_raw_batches
from repro.relation.relation import Relation, Row

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

#: Reserved code for NULL cells in every encoded column.
NULL_CODE = -1

#: Default rows per stored chunk (a relation's cached encoding uses it
#: too): big enough that per-chunk numpy group-bys amortise, small
#: enough that one chunk's transient Python objects stay a rounding
#: error next to the relation.
DEFAULT_CHUNK_SIZE = 65_536


#: Raw cells one column's memo holds while a store is built.  A column
#: with fewer distinct cells converts and codes each cell once per file;
#: a key-like column stops memoizing here, so the memo's memory is fixed
#: (about 0.3 MB for a column of numeric keys) however long the file is.
_MEMO_LIMIT = 4_096


def assign_code(mapping: Dict[object, int], values: List[object], value: object) -> int:
    """One step of extendable first-occurrence dictionary encoding.

    The batch encoder below takes it once per cell new to a column's
    memo, unless the whole batch's new cells take consecutive codes at
    once.  NULL gets the reserved code, known values their existing
    code, novel values the next dense code — appended to ``values`` so
    the decode table stays in first-occurrence order.
    """
    if value is None:
        return NULL_CODE
    code = mapping.get(value)
    if code is None:
        code = len(values)
        mapping[value] = code
        values.append(value)
    return code


class CodeChunk:
    """One fixed-size slice of dictionary-encoded rows.

    ``columns[attribute]`` holds the chunk's codes for that attribute —
    an ``int32`` numpy array, or an ``array.array("i")`` without numpy —
    with ``-1`` marking NULL.
    """

    __slots__ = ("attributes", "columns", "num_rows")

    def __init__(
        self,
        attributes: Tuple[str, ...],
        columns: Dict[str, Sequence[int]],
        num_rows: int,
    ):
        self.attributes = attributes
        self.columns = columns
        self.num_rows = num_rows

    def column(self, attribute: str) -> Sequence[int]:
        """The chunk's code sequence for one attribute."""
        try:
            return self.columns[attribute]
        except KeyError:
            raise KeyError(
                f"unknown attribute {attribute!r}; available: {list(self.attributes)}"
            ) from None

    def column_list(self, attribute: str) -> List[int]:
        """The codes as a plain list of Python ints (the scalar hot-loop form)."""
        return self.column(attribute).tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<CodeChunk: {self.num_rows} rows x {len(self.attributes)} attributes>"


class _Column(NamedTuple):
    """One attribute of a built store: its decode table and NULL count."""

    values: List[object]
    null_count: int


class _StreamingColumn:
    """One attribute while a store is built: its growing value -> code
    table, its memo of raw cell -> code, and running stats."""

    __slots__ = ("mapping", "values", "null_count", "memo", "has_null")

    def __init__(self):
        self.mapping: Dict[object, int] = {}
        self.values: List[object] = []
        self.null_count = 0
        self.memo: Dict[object, int] = {}
        #: Whether any cell so far was coded NULL (batches then count them).
        self.has_null = False

    def encode(self, cells: Sequence[object], convert: Optional[Callable] = None):
        """Code one batch of this attribute's cells as ``int32``.

        A batch whose cells are all in the memo is coded by one C-level
        pass of memo lookups.  Otherwise :meth:`_encode_fresh` converts
        (when ``convert`` is given) and codes each cell new to the memo
        once, in first-occurrence order, so the decode table grows exactly
        as a cell-by-cell pass would grow it.
        """
        try:
            codes = _int32(map(self.memo.__getitem__, cells), len(cells))
        except KeyError:
            codes = self._encode_fresh(cells, convert)
        if self.has_null:
            self.null_count += _count_nulls(codes)
        return codes

    def _encode_fresh(self, cells: Sequence[object], convert: Optional[Callable]):
        """Code a batch that holds cells new to the memo."""
        memo, mapping, values = self.memo, self.mapping, self.values
        distinct = dict.fromkeys(cells)
        fresh = list(filterfalse(memo.__contains__, distinct))
        converted = fresh if convert is None else convert(fresh)
        # While the memo has room it holds every cell coded so far, so a
        # cell new to it that stays itself is new to the table too; past
        # the cap, a cell may have been coded without being memoized.
        if (
            converted is fresh
            and None not in distinct
            and (len(memo) < _MEMO_LIMIT or mapping.keys().isdisjoint(fresh))
        ):
            start = len(values)
            coded = dict(zip(fresh, range(start, start + len(fresh))))
            mapping.update(coded)
            values.extend(fresh)
        else:
            coded = {
                cell: assign_code(mapping, values, value) for cell, value in zip(fresh, converted)
            }
            self.has_null = self.has_null or NULL_CODE in coded.values()
        # ``coded`` (fresh cell -> code) is a dict so that whole merges of it
        # reuse its stored hashes instead of hashing every cell again.
        room = _MEMO_LIMIT - len(memo)
        memo.update(coded if len(coded) <= room else islice(coded.items(), room))
        if len(coded) == len(cells):  # no cell repeats or was known: codes in cell order
            return _int32(coded.values(), len(cells))
        lookup = memo
        if room < len(coded):  # the memo is full: look this batch up locally
            lookup = dict(zip(distinct, map(memo.get, distinct)))
            lookup.update(coded)
        return _int32(map(lookup.__getitem__, cells), len(cells))


def _int32(codes: Iterable[int], count: int):
    """``count`` codes as an ``int32`` array (``array("i")`` without numpy)."""
    if np is not None:
        return np.fromiter(codes, dtype=np.int32, count=count)
    return array("i", codes)


def _count_nulls(codes) -> int:
    if np is not None:
        return int(np.count_nonzero(codes == NULL_CODE))
    return codes.count(NULL_CODE)


def _join_codes(parts: List[Sequence[int]]):
    """Join one chunk's per-batch ``int32`` code arrays."""
    if np is not None:
        return np.concatenate(parts)
    joined = array("i")
    for part in parts:
        joined.extend(part)
    return joined


class ChunkedRelation:
    """A relation stored as dictionary-encoded chunks, never as a row list.

    Parameters
    ----------
    attributes:
        Ordered attribute names (duplicates rejected, like
        :class:`Relation`).
    rows:
        Any iterable of row tuples — consumed once, streamed; rows are
        encoded and discarded chunk by chunk, so peak Python-object
        memory is O(``chunk_size``) regardless of the total row count.
        Without rows the store is empty.
    name:
        Relation name stamped on derived statistics.
    chunk_size:
        Rows per stored chunk (and per statistics-pass partial).
    """

    def __init__(
        self,
        attributes: Sequence[str],
        rows: Optional[Iterable[Sequence[object]]] = None,
        name: str = "",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        self._attributes: Tuple[str, ...] = tuple(attributes)
        if len(set(self._attributes)) != len(self._attributes):
            raise ValueError(f"duplicate attribute names in schema {self._attributes}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.name = name
        self.chunk_size = chunk_size
        self._columns = [_Column([], 0) for _ in self._attributes]
        self._chunks: List[CodeChunk] = []
        self._num_rows = 0
        #: ``Σ_w R(w)²`` per set of attributes the rows must be non-NULL
        #: on, filled by :func:`repro.core.chunked.tuple_square_sum`.
        self.tuple_square_sums: Dict[Tuple[str, ...], int] = {}
        # The classmethods pass no rows: they encode their own batches.
        if rows is not None:
            self._ingest(rows)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_relation(
        cls, relation: Relation, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> "ChunkedRelation":
        """Encode an in-memory relation into chunks.

        Its rows were checked when the relation was built, so each
        chunk's rows go to the batch encoder as one batch.
        """
        store = cls(relation.attributes, name=relation.name, chunk_size=chunk_size)
        rows = relation._rows
        store._encode(rows[start : start + chunk_size] for start in range(0, len(rows), chunk_size))
        return store

    @classmethod
    def read_csv(
        cls,
        path: Union[str, Path],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        name: Optional[str] = None,
        max_rows: Optional[int] = None,
        **csv_options,
    ) -> "ChunkedRelation":
        """Stream a CSV file (plain or ``.gz``) into a chunked relation.

        The file is read in batches of raw rows through the same reader
        as :func:`repro.relation.io.read_csv` (identical NULL markers and
        type inference — the round-trip tests in ``tests/test_chunked.py``
        pin this), and each batch goes straight into the batch encoder,
        which converts and codes each raw cell new to a column's memo
        once: neither the full row list nor a typed row ever exists.
        ``csv_options`` are forwarded to
        :func:`~repro.relation.io.read_raw_batches` (``null_markers``,
        ``infer_types``, ``delimiter``).
        """
        path = Path(path)
        header, batches, convert = read_raw_batches(path, max_rows=max_rows, **csv_options)
        relation = cls(header, name=name if name is not None else path.stem, chunk_size=chunk_size)
        relation._encode(batches, convert)
        return relation

    def _ingest(self, rows: Iterable[Sequence[object]]) -> None:
        """Encode already-typed rows, checked for arity batch by batch."""
        arity = len(self._attributes)
        rows = iter(rows)

        def batches() -> Iterator[List[Sequence[object]]]:
            while True:
                batch = list(islice(rows, READ_BATCH_ROWS))
                if not batch:
                    return
                if any(map(arity.__ne__, map(len, batch))):
                    row = next(row for row in batch if len(row) != arity)
                    raise ValueError(
                        f"row {tuple(row)!r} has arity {len(row)}, "
                        f"expected {arity} for schema {self._attributes}"
                    )
                yield batch

        self._encode(batches())

    def _encode(
        self,
        batches: Iterable[List[Sequence[object]]],
        convert: Optional[Callable] = None,
    ) -> None:
        """The batch encoder: code each batch column by column into chunks.

        A batch's codes are ``int32`` as soon as they exist; a chunk
        joins the slices of the batches it spans when it fills up.  Once
        the batches run out the store keeps each column's decode table
        and null count; the memos and value -> code tables are dropped.
        """
        columns = [_StreamingColumn() for _ in self._attributes]
        arity = len(columns)
        chunk_size = self.chunk_size
        pending: List[List[Sequence[int]]] = [[] for _ in self._attributes]
        pending_rows = 0
        for batch in batches:
            # Every row has ``arity`` cells, so column ``i`` is every
            # ``arity``-th cell of the flattened batch.  ``zip(*batch)``
            # would hold one iterator object per row at once: enough new
            # objects to start a garbage collection in most encodes.
            cells = list(chain.from_iterable(batch))
            codes = [
                column.encode(cells[position::arity], convert)
                for position, column in enumerate(columns)
            ]
            start = 0
            while start < len(batch):
                stop = min(len(batch), start + chunk_size - pending_rows)
                for parts, column_codes in zip(pending, codes):
                    parts.append(column_codes[start:stop])
                pending_rows += stop - start
                start = stop
                if pending_rows == chunk_size:
                    self._flush(pending, pending_rows)
                    pending = [[] for _ in self._attributes]
                    pending_rows = 0
        if pending_rows:
            self._flush(pending, pending_rows)
        self._columns = [_Column(column.values, column.null_count) for column in columns]

    def _flush(self, pending: List[List[Sequence[int]]], num_rows: int) -> None:
        self._chunks.append(
            CodeChunk(
                self._attributes,
                {
                    attribute: _join_codes(parts)
                    for attribute, parts in zip(self._attributes, pending)
                },
                num_rows,
            )
        )
        self._num_rows += num_rows

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> Tuple[str, ...]:
        return self._attributes

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    @property
    def num_chunks(self) -> int:
        return len(self._chunks)

    def cardinality(self, attribute: str) -> int:
        """Number of distinct non-NULL values of one attribute."""
        return len(self._column(attribute).values)

    def null_count(self, attribute: str) -> int:
        return self._column(attribute).null_count

    def code_bytes(self) -> int:
        """Bytes held by the stored code arrays (4 per cell)."""
        total = 0
        for chunk in self._chunks:
            for codes in chunk.columns.values():
                nbytes = getattr(codes, "nbytes", None)
                total += nbytes if nbytes is not None else len(codes) * codes.itemsize
        return total

    def _column(self, attribute: str) -> _Column:
        try:
            return self._columns[self._attributes.index(attribute)]
        except ValueError:
            raise KeyError(
                f"unknown attribute {attribute!r}; available: {list(self._attributes)}"
            ) from None

    # ------------------------------------------------------------------
    # Chunk iteration and decoding
    # ------------------------------------------------------------------
    def iter_chunks(self) -> Iterator[CodeChunk]:
        """The stored chunks, in row order (the map-merge input)."""
        return iter(self._chunks)

    def iter_rows(self) -> Iterator[Row]:
        """Decode rows chunk by chunk (never more than one chunk live)."""
        tables = [column.values for column in self._columns]
        for chunk in self._chunks:
            columns = [chunk.column_list(attribute) for attribute in self._attributes]
            for index in range(chunk.num_rows):
                yield tuple(
                    tables[position][codes[index]] if codes[index] >= 0 else None
                    for position, codes in enumerate(columns)
                )

    def to_relation(self) -> Relation:
        """Materialise the full :class:`Relation` (tests / small data only).

        This is the one deliberate escape hatch back to row-tuple land —
        it allocates the O(rows) list the chunked store exists to avoid.
        """
        return Relation(self._attributes, self.iter_rows(), name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        label = self.name or "ChunkedRelation"
        return (
            f"<{label}: {self._num_rows} rows x {len(self._attributes)} attributes "
            f"in {len(self._chunks)} chunks>"
        )
