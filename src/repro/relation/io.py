"""CSV input/output for relations.

The RWD benchmark relations are distributed as CSV files; this module
provides loading (with configurable NULL markers and optional numeric
type inference) and saving so that users can run the library on their own
data.  Files are read as UTF-8 with an optional byte-order mark (Excel
writes one) and written as UTF-8 without one, whatever the locale.
Gzip-compressed files are detected by magic bytes on read (the extension
is not trusted) and written for ``.gz`` paths.

A file is read as bytes in blocks of about :data:`_READ_BLOCK_BYTES`
bytes, each cut after its last line end and decoded at once.  A block
with no quote character, no NUL, no blank line, no line past the csv
module's field limit and one kind of line end (all ``\\n`` or all
``\\r\\n``) is split into rows with ``str.split``.  From the first block
that fails any of these, the rest of the file goes to ``csv.reader`` in
the lines ``open(..., newline="")`` would give it, so ``csv.reader``
stays the one parser of quoted input and every file reads as it reads
it.  A truncated or corrupt gzip file is a ``ValueError`` naming it.

Reading works on batches of :data:`READ_BATCH_ROWS` raw rows:
:func:`read_raw_batches` yields them together with the per-cell rule
(NULL markers, then :func:`_coerce`), which converts the distinct cells
of one column at a time.  Two exact whole-column shortcuts skip the
per-cell rule: cells that are all ASCII digit strings go through
``int()`` in one call, and cells none of which is a NULL marker or can
start a number stay themselves, decided by set operations.
:func:`stream_csv_rows` turns the batches into typed rows without
materialising the file, converting each distinct raw cell of a column
once per batch.  The out-of-core ingest in :mod:`repro.relation.chunked`
codes the same batches directly and remembers each column's raw cells
across batches (up to a fixed number), so it converts a repeated cell
once per file.
"""

from __future__ import annotations

import csv
import gzip
import zlib
from contextlib import closing
from functools import partial
from io import StringIO
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.relation.relation import Relation, Row

DEFAULT_NULL_MARKERS = ("", "NULL", "null", "NA", "N/A", "?", "NaN", "nan")

#: Raw rows per read batch.  :func:`stream_csv_rows` converts each
#: distinct cell of a batch column once and forgets the batch, so its
#: lookup of converted cells never holds more than one batch of cells;
#: the chunked ingest's memo outlives the batch but is capped on its own.
#: Ingest time is flat from 256 to 4,096 rows, while the batch's raw
#: strings are held at once: 512 keeps the traced ingest peak of a
#: 12k-row, 6-column file at 2.5 MB (4.9 MB at 4,096).  Rows are split
#: a :data:`_READ_BLOCK_BYTES` block at a time and handed on in batches
#: of this many.
READ_BATCH_ROWS = 512

#: Bytes read per block of a CSV file (decompressed bytes for gzip).  A
#: block is decoded and, when :func:`_split_block` can, split into rows
#: at once, so all its rows are held together: about 500 rows of the
#: 12k-row, 6-column R1 stand-in per 32 KB.  Ingest time is flat from 8
#: to 128 KB; 32 KB puts that file's traced ingest peak at 3.0 MB
#: (2.7 MB when ``csv.reader`` read it line by line, 3.25 MB at 64 KB).
_READ_BLOCK_BYTES = 1 << 15

#: The first characters (after leading whitespace) a cell must have for
#: ``int()`` or ``float()`` to give a kept number or NaN: digits, a sign,
#: a decimal point, or the start of ``inf``/``infinity``/``nan``.  A
#: non-ASCII decimal digit also parses, but only to a number that
#: :func:`_coerce` hands back as the string anyway.
_NUMBER_STARTS = frozenset("0123456789+-.iInN")

#: A string's first character (``""`` for the empty string).
_first_character = itemgetter(slice(1))


def _coerce(value: str) -> object:
    """Best-effort conversion of a CSV cell to int or float.

    Cells that parse to IEEE NaN (``"NaN"``, ``"-nan"``, ...) become NULL:
    NaN != NaN would break dictionary-encoding and grouping equality, and
    a non-value is what such cells mean anyway.  ``int()`` and
    ``float()`` also accept ``_`` digit separators and non-ASCII digits,
    which would merge distinct cells (``"12_34"`` with ``"1234"``,
    ``"١٢٣"`` with ``"123"``), so such cells stay strings; the check runs
    only after a parse succeeds.

    Two shortcuts give the same results without raising: an ASCII digit
    string goes straight to ``int()`` (``float()`` past the interpreter's
    int-string digit limit), and a cell whose first non-space character
    cannot start a number (:data:`_NUMBER_STARTS`) is returned unchanged.
    """
    if value.isdigit() and value.isascii():
        try:
            return int(value)
        except ValueError:  # more digits than int() converts from a string
            return float(value)
    if value.lstrip()[:1] not in _NUMBER_STARTS:
        return value
    try:
        number = int(value)
    except ValueError:
        try:
            number = float(value)
        except ValueError:
            return value
        if number != number:
            return None
    if value.isascii() and "_" not in value:
        return number
    return value


def _cell_converter(
    null_markers: Sequence[str], infer_types: bool
) -> Callable[[Collection[str]], Collection[object]]:
    """The raw-cell -> value rule, applied to the distinct cells of one
    batch column.

    A NULL marker becomes ``None``; any other cell goes through
    :func:`_coerce` when ``infer_types`` (else it stays a string).  The
    returned function takes a collection of distinct raw cells (a list,
    or a dict's keys) and returns their values in the same order.  Two
    whole-column shortcuts give the same values without a per-cell call:

    * when no cell is a NULL marker and, under ``infer_types``, no cell
      can start a number (:data:`_NUMBER_STARTS`, after leading
      whitespace), every cell stays itself, and the argument itself is
      returned, so a caller can test ``is`` and keep its cells;
    * when every cell is a non-empty ASCII digit string, they convert
      with ``int()`` at C speed (:func:`_coerce`'s first shortcut for a
      whole column), unless a NULL marker could be such a string.
    """
    null_set = frozenset(null_markers)
    digits_are_numbers = not any(marker.isdigit() for marker in null_set)

    def convert(distinct: Collection[str]) -> Collection[object]:
        if (
            not infer_types
            or _NUMBER_STARTS.isdisjoint(map(_first_character, map(str.lstrip, distinct)))
        ) and null_set.isdisjoint(distinct):
            return distinct
        if not infer_types:
            return [None if cell in null_set else cell for cell in distinct]
        # An empty cell would join as no digits at all; skip the try.
        if digits_are_numbers and "" not in distinct:
            joined = "".join(distinct)
            if joined.isdigit() and joined.isascii():
                try:
                    return list(map(int, distinct))
                except ValueError:  # past int()'s digit limit: _coerce handles it
                    pass
        return [None if cell in null_set else _coerce(cell) for cell in distinct]

    return convert


#: The two-byte gzip magic number (RFC 1952).
_GZIP_MAGIC = b"\x1f\x8b"


def _is_gzip_file(path: Path) -> bool:
    """True when the file *content* starts with the gzip magic bytes.

    Extensions lie: mislabeled dumps (gzip bytes in a ``.csv``, plain
    text renamed ``.gz``) are common in the wild, and trusting the
    suffix turns them into ``UnicodeDecodeError`` / ``BadGzipFile``
    noise far from the cause.
    """
    with path.open("rb") as handle:
        return handle.read(2) == _GZIP_MAGIC


def _read_blocks(path: Path) -> Iterator[str]:
    """The file's text in blocks of about :data:`_READ_BLOCK_BYTES` bytes.

    Gzip content (sniffed, :func:`_is_gzip_file`) is read through
    ``GzipFile.read``, so multi-member files and CRC checks work as in
    the :mod:`gzip` module; a truncated or corrupt stream is a
    ``ValueError`` naming the file.  Each block is cut after its last
    line end (``\\n``, or a ``\\r`` that is not the last byte read, since
    a ``\\n`` may follow it), so no block ends inside a ``\\r\\n``, and a
    block holds less than twice :data:`_READ_BLOCK_BYTES` bytes unless
    one of its lines is longer.  A line-end byte never occurs inside a
    UTF-8 sequence, so each block decodes on its own: the first as
    ``utf-8-sig`` (dropping a byte-order mark), the rest as ``utf-8``.
    """
    with gzip.open(path, "rb") if _is_gzip_file(path) else path.open("rb") as handle:
        encoding = "utf-8-sig"
        pending: List[bytes] = []  # the bytes read since the last cut
        while True:
            try:
                data = handle.read(_READ_BLOCK_BYTES)
            except (EOFError, zlib.error) as error:
                raise ValueError(f"{path} is a truncated or corrupt gzip file: {error}") from None
            if not data:
                break
            cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
            if not cut:
                pending.append(data)
                continue
            pending.append(data[:cut])
            yield b"".join(pending).decode(encoding)
            encoding = "utf-8"
            pending = [data[cut:]]
        text = b"".join(pending).decode(encoding)
        if text:
            yield text


def _split_block(text: str, delimiter: str, field_limit: int) -> Optional[List[List[str]]]:
    """A block's non-blank rows by ``str.split``, or ``None`` when only
    ``csv.reader`` reads it right.

    Splitting gives ``csv.reader``'s rows, less the ``[]`` it yields for
    a blank line, when the block has no quote character and no NUL (an
    error to ``csv.reader`` before Python 3.11), its line ends are all
    ``\\n`` or all ``\\r\\n`` and it has no line longer than the csv
    module's field limit (so no field passes it).
    """
    if '"' in text or "\0" in text:
        return None
    newline = "\r\n" if "\r" in text else "\n"
    lines = text.split(newline)
    # Each \r and each \n must belong to one of the cuts just made.
    if newline == "\r\n" and not len(lines) - 1 == text.count("\r") == text.count("\n"):
        return None
    if not lines[-1]:  # the block ends with a line end
        lines.pop()
    if not all(lines):
        lines = list(filter(None, lines))  # drop the blank lines
    if len(text) > field_limit and max(map(len, lines), default=0) > field_limit:
        return None
    return list(map(str.split, lines, repeat(delimiter)))


def _raw_rows(blocks: Iterator[str], delimiter: str) -> Iterator[List[str]]:
    """Every non-blank row of a file's blocks, header first, as lists of
    raw cells.

    Blocks that :func:`_split_block` can split are split; from the first
    one it cannot, the rest of the text goes to ``csv.reader`` in lines
    cut where ``open(..., newline="")`` cuts them (``\\n``, ``\\r\\n`` and
    a bare ``\\r``; never ``str.splitlines``, which also cuts at
    ``\\x0c``, ``\\x85`` or U+2028), less the ``[]`` rows of blank lines.
    A whitespace-only line is a row.  A bad delimiter is the error
    ``csv.reader`` raises for it, before the file is read.
    """
    dialect = csv.reader((), delimiter=delimiter).dialect
    field_limit = csv.field_size_limit()

    def row_groups() -> Iterator[Iterable[List[str]]]:
        for text in blocks:
            rows = _split_block(text, delimiter, field_limit)
            if rows is None:
                lines = map(partial(StringIO, newline=""), chain((text,), blocks))
                yield filter(None, csv.reader(chain.from_iterable(lines), dialect))
                return
            yield rows

    return chain.from_iterable(row_groups())


def read_raw_batches(
    path: Union[str, Path],
    null_markers: Sequence[str] = DEFAULT_NULL_MARKERS,
    infer_types: bool = True,
    delimiter: str = ",",
    max_rows: Optional[int] = None,
) -> Tuple[List[str], Iterator[List[List[str]]], Callable[[Collection[str]], Collection[object]]]:
    """Open a CSV file and return ``(header, raw-row batches, convert)``.

    The file is read in blocks of :data:`_READ_BLOCK_BYTES` bytes; a
    block with no quote character, NUL, overlong line or mixed line ends
    is split with ``str.split``, and from the first block that has one
    the rest of the file goes through ``csv.reader``
    (:func:`_raw_rows`), so every file reads as ``csv.reader`` over
    ``open(..., newline="")`` reads it, except that blank lines are no
    rows: they are skipped before the header is taken, before
    ``max_rows`` counts and before the width check.  The batches are a
    lazy iterator of lists of up to :data:`READ_BATCH_ROWS` rows of raw
    string cells, every row checked to have one cell per header
    attribute.  ``max_rows`` caps the data rows before that check, so a
    ragged row past the cap is never checked.  The file stays open until the
    iterator is exhausted (or closed by garbage collection).  ``convert``
    takes distinct raw cells of one column (a list, or a dict's keys, in
    first-occurrence order) and returns their values under
    ``null_markers`` and ``infer_types``: the argument itself when every
    cell stays itself.
    """
    path = Path(path)
    if max_rows is not None and max_rows < 0:
        raise ValueError(f"max_rows must be >= 0, got {max_rows}")
    convert = _cell_converter(null_markers, infer_types)
    blocks = _read_blocks(path)
    rows = _raw_rows(blocks, delimiter)
    try:
        header = next(rows)
    except StopIteration:
        raise ValueError(f"CSV file {path} is empty (no header row)") from None

    def batches() -> Iterator[List[List[str]]]:
        width = len(header)
        with closing(blocks):
            capped = islice(rows, max_rows)
            while True:
                batch = list(islice(capped, READ_BATCH_ROWS))
                if not batch:
                    return
                if any(map(width.__ne__, map(len, batch))):
                    raw_row = next(row for row in batch if len(row) != width)
                    raise ValueError(
                        f"row {raw_row!r} in {path} has {len(raw_row)} cells, "
                        f"expected {width}"
                    )
                yield batch

    return header, batches(), convert


def stream_csv_rows(
    path: Union[str, Path],
    null_markers: Sequence[str] = DEFAULT_NULL_MARKERS,
    infer_types: bool = True,
    delimiter: str = ",",
    max_rows: Optional[int] = None,
) -> Tuple[List[str], Iterator[Row]]:
    """Open a CSV file and return ``(header, lazy row iterator)``.

    The iterator applies the same NULL-marker and type-inference rules as
    :func:`read_csv` but yields rows without materialising the file,
    converting each distinct raw cell once per column per read batch.
    ``max_rows`` caps the number of data rows yielded; ``.gz`` paths are
    decompressed transparently.
    """
    header, batches, convert = read_raw_batches(
        path, null_markers, infer_types, delimiter=delimiter, max_rows=max_rows
    )

    def typed(batch: List[List[str]]) -> Iterator[Row]:
        columns = []
        for cells in zip(*batch):
            distinct = dict.fromkeys(cells)
            values = convert(distinct)
            if values is distinct:  # every cell stays itself
                values = cells
            elif len(values) < len(cells):  # some cell repeats: look each one up
                values = map(dict(zip(distinct, values)).__getitem__, cells)
            columns.append(values)
        # A header-less file still has rows: one empty tuple each.
        return zip(*columns) if columns else map(tuple, batch)

    return header, chain.from_iterable(map(typed, batches))


def read_csv(
    path: Union[str, Path],
    null_markers: Sequence[str] = DEFAULT_NULL_MARKERS,
    infer_types: bool = True,
    delimiter: str = ",",
    name: Optional[str] = None,
    max_rows: Optional[int] = None,
) -> Relation:
    """Load a relation from a CSV file with a header row.

    Cells equal to one of ``null_markers`` become NULL (``None``).  With
    ``infer_types=True`` integer- and float-looking cells are converted to
    Python numbers (NaN-parsing cells become NULL).  ``max_rows`` loads
    only the first N data rows; gzip files are decompressed transparently.
    """
    path = Path(path)
    header, rows = stream_csv_rows(
        path,
        null_markers=null_markers,
        infer_types=infer_types,
        delimiter=delimiter,
        max_rows=max_rows,
    )
    return Relation(header, rows, name=name or path.stem)


def write_csv(
    relation: Relation,
    path: Union[str, Path],
    null_marker: str = "",
    delimiter: str = ",",
) -> Path:
    """Write a relation to a UTF-8 CSV file with a header row.

    NULL cells are written as ``null_marker``; a ``.gz`` path is written
    gzip-compressed.  Returns the path written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(relation.attributes)
        for row in relation:
            writer.writerow([null_marker if cell is None else cell for cell in row])
    return path
