"""CSV input/output for relations.

The RWD benchmark relations are distributed as CSV files; this module
provides loading (with configurable NULL markers and optional numeric
type inference) and saving so that users can run the library on their own
data.  Gzip-compressed files are detected by magic bytes on read (the
extension is not trusted) and written for ``.gz`` paths;
:func:`stream_csv_rows` exposes the row stream without
materialising it, which is what the out-of-core ingest in
:mod:`repro.relation.chunked` builds on.
"""

from __future__ import annotations

import csv
import gzip
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.relation.relation import Relation, Row

DEFAULT_NULL_MARKERS = ("", "NULL", "null", "NA", "N/A", "?", "NaN", "nan")


def _coerce(value: str) -> object:
    """Best-effort conversion of a CSV cell to int or float.

    Cells that parse to IEEE NaN (``"NaN"``, ``"-nan"``, ...) become NULL:
    NaN != NaN would break dictionary-encoding and grouping equality, and
    a non-value is what such cells mean anyway.  ``int()`` and
    ``float()`` also accept ``_`` digit separators and non-ASCII digits,
    which would merge distinct cells (``"12_34"`` with ``"1234"``,
    ``"١٢٣"`` with ``"123"``), so such cells stay strings; the check runs
    only after a parse succeeds.
    """
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


def _open_text(path: Path, mode: str = "r"):
    """Open a possibly gzip-compressed text file for csv reading/writing.

    Reads sniff the gzip magic bytes instead of trusting the ``.gz``
    extension; writes (nothing to sniff yet) keep the extension
    convention.
    """
    if "r" in mode:
        if _is_gzip_file(path):
            return gzip.open(path, mode + "t", newline="")
        return path.open(mode, newline="")
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", newline="")
    return path.open(mode, newline="")


def stream_csv_rows(
    path: Union[str, Path],
    null_markers: Sequence[str] = DEFAULT_NULL_MARKERS,
    infer_types: bool = True,
    delimiter: str = ",",
    max_rows: Optional[int] = None,
) -> Tuple[List[str], Iterator[Row]]:
    """Open a CSV file and return ``(header, lazy row iterator)``.

    The iterator applies the same NULL-marker and type-inference rules as
    :func:`read_csv` but yields rows one at a time, holding the file open
    until exhausted (or closed by garbage collection) — the building block
    for out-of-core ingest.  ``max_rows`` caps the number of data rows
    yielded; ``.gz`` paths are decompressed transparently.
    """
    path = Path(path)
    if max_rows is not None and max_rows < 0:
        raise ValueError(f"max_rows must be >= 0, got {max_rows}")
    null_set = set(null_markers)
    handle = _open_text(path)
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        handle.close()
        raise ValueError(f"CSV file {path} is empty (no header row)") from None

    def rows() -> Iterator[Row]:
        emitted = 0
        with handle:
            for raw_row in reader:
                if max_rows is not None and emitted >= max_rows:
                    break
                if len(raw_row) != len(header):
                    raise ValueError(
                        f"row {raw_row!r} in {path} has {len(raw_row)} cells, "
                        f"expected {len(header)}"
                    )
                converted = []
                for cell in raw_row:
                    if cell in null_set:
                        converted.append(None)
                    elif infer_types:
                        converted.append(_coerce(cell))
                    else:
                        converted.append(cell)
                yield tuple(converted)
                emitted += 1

    return header, rows()


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
    only the first N data rows; paths ending in ``.gz`` are decompressed
    transparently.
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
    """Write a relation to a CSV file with a header row.

    NULL cells are written as ``null_marker``; a ``.gz`` path is written
    gzip-compressed.  Returns the path written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _open_text(path, "w") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(relation.attributes)
        for row in relation:
            writer.writerow([null_marker if cell is None else cell for cell in row])
    return path


def read_csv_directory(
    directory: Union[str, Path], pattern: str = "*.csv", **kwargs
) -> Iterable[Relation]:
    """Load every CSV file in ``directory`` matching ``pattern``."""
    directory = Path(directory)
    for path in sorted(directory.glob(pattern)):
        yield read_csv(path, **kwargs)
