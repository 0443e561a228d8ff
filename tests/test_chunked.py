"""Chunked map-merge statistics and out-of-core ingest.

The central contract under test: for every registered measure, on both
statistics kernels, ``FdStatistics.compute`` over a ``ChunkedRelation``
of any chunk size produces ``FdStatistics`` **identical** (``==``, same
``repr``) to the same rows as one ``Relation`` — so chunking is purely a
storage choice, never a semantics change.
Alongside it: the streamed CSV ingest (``ChunkedRelation.read_csv``)
matches ``read_csv`` row for row at every batch/chunk alignment, cells
convert exactly as the per-cell definition says, NaN cells become NULL,
``max_rows``/``.gz``/UTF-8 with a byte-order mark work, the block reader
gives ``csv.reader``'s rows and errors on seeded files, and the
out-of-core path actually stays out of core (tracemalloc peak guard).

Tests that need numpy are marked; the remainder also run in the
no-numpy CI job.
"""

import csv
import gc
import gzip
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import repro
from oracle import (
    KERNELS,
    UNREADABLE_CSVS,
    kernel,
    requires_numpy,
    small_batches,
    without_numpy,
)
from repro.core import all_measures, get_measure
from repro.core.statistics import FdStatistics
from repro.discovery import discover_afds
from repro.relation import ChunkedRelation, FunctionalDependency, Relation
from repro.relation import chunked as chunked_module
from repro.relation import io as io_module
from repro.relation.chunked import DEFAULT_CHUNK_SIZE
from repro.relation.io import (
    DEFAULT_NULL_MARKERS,
    _cell_converter,
    _coerce,
    _read_blocks,
    read_csv,
    read_raw_batches,
    stream_csv_rows,
    write_csv,
)


# ----------------------------------------------------------------------
# Relation generators (randomised property-test inputs)
# ----------------------------------------------------------------------
def random_relation(seed: int, num_rows: int = 400) -> Relation:
    rng = random.Random(seed)
    rows = [
        (rng.randrange(12), rng.randrange(6), rng.randrange(20))
        for _ in range(num_rows)
    ]
    return Relation(("A", "B", "C"), rows, name=f"random-{seed}")


def null_relation(seed: int, num_rows: int = 400) -> Relation:
    rng = random.Random(seed)
    rows = []
    for _ in range(num_rows):
        rows.append(
            (
                rng.choice([None, "a", "b", "c", 1, 2.5]),
                None if rng.random() < 0.25 else rng.randrange(8),
                rng.choice(["x", "y", None]),
            )
        )
    return Relation(("A", "B", "C"), rows, name=f"null-{seed}")


def skewed_relation(seed: int, num_rows: int = 400) -> Relation:
    rng = random.Random(seed)
    rows = []
    for _ in range(num_rows):
        # One dominant LHS value, a long tail, a near-determined RHS.
        a = 0 if rng.random() < 0.7 else rng.randrange(1, 50)
        b = a % 5 if rng.random() < 0.9 else rng.randrange(5)
        rows.append((a, b, rng.randrange(3)))
    return Relation(("A", "B", "C"), rows, name=f"skewed-{seed}")


RELATION_BUILDERS = [random_relation, null_relation, skewed_relation]
FD = FunctionalDependency(("A",), ("B",))


def assert_identical(chunked: FdStatistics, monolithic: FdStatistics) -> None:
    """``==`` plus ``repr`` equality (histogram keys ascending on every path)."""
    assert chunked == monolithic
    assert repr(chunked) == repr(monolithic)


def compute_chunked(relation: Relation, fd, chunk_size: int) -> FdStatistics:
    """Statistics of ``relation`` stored as chunks of ``chunk_size`` rows."""
    store = ChunkedRelation.from_relation(relation, chunk_size=chunk_size)
    return FdStatistics.compute(store, fd)


def chunked_passes(path: str) -> float:
    """Statistics passes run so far by one kernel (``array`` or ``tuple``)."""
    from repro.obs.metrics import get_registry

    return get_registry().value("chunked_passes_total", path=path)


def reference_cell(cell: str) -> object:
    """The CSV cell rule restated from its definition: NULL markers
    become ``None``; otherwise try ``int``, then ``float``; NaN becomes
    ``None``; a number is kept only if the cell is ASCII without ``_``."""
    if cell in DEFAULT_NULL_MARKERS:
        return None
    return reference_coerce(cell)


def reference_coerce(cell: str) -> object:
    try:
        number = int(cell)
    except ValueError:
        try:
            number = float(cell)
        except ValueError:
            return cell
        if number != number:
            return None
    return number if cell.isascii() and "_" not in cell else cell


def typed(rows) -> list:
    """Rows with each value tagged by its type, so ``1`` != ``1.0``."""
    return [tuple((type(value).__name__, repr(value)) for value in row) for row in rows]


RAW_HEADER = ("key", "num", "mixed", "text", "digits")


def raw_csv_rows(seed: int, num_rows: int) -> list:
    """Raw CSV cells: a key column, a numeric column with NULL markers,
    mixed numerals, repeated strings and repeated ASCII digit strings."""
    rng = random.Random(seed)
    numerals = [
        "12_34", "1234", "\u0661\u0662", "1", "1.0", " 7 ", "+5", "1e3", "inf",
        "-Infinity", "nan", "+NAN", "x", "N/A", "?", "abc", "007", "\xa042", "",
    ]
    return [
        (
            str(index * 7_919 % 100_003),
            rng.choice(["1", "2", "3.5", "", "NULL", "NaN", "-0", "4", "-2.25"]),
            rng.choice(numerals),
            f"city-{rng.randrange(40)}",
            str(rng.randrange(50)),
        )
        for index in range(num_rows)
    ]


#: Pieces of the seeded cells: ASCII and Unicode whitespace, signs,
#: points, exponents, inf/nan spellings, separators, non-ASCII digits,
#: superscripts and letters (an empty draw gives the empty cell).
CELL_ALPHABET = (
    list("0123456789") * 3
    + [" ", "\t", "\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0"]
    + ["+", "-", ".", "e", "E", "_", "inf", "INF", "Infinity", "iNfInItY", "nan", "NaN", "nAN"]
    + ["\u0660", "\u0665", "\u0669", "\uff10", "\uff15", "\uff19"]
    + ["\u00b2", "\u00b3", "\u00b9", "\u2070", "a", "x", "N", "i", "n", "Z"]
)

#: Hand-picked cells on either side of every shortcut in the rule.
ADVERSARIAL_CELLS = [
    "", " ", "0", "00", "-0", "+0", "007", "1", "-1", "+1", "1.0", "1.", ".5", "-.5",
    "+.5e-3", "1e3", "1E3", "1e", "e3", ".", "-", "+", "+-1", "--1", "1.2.3", "1,000",
    "1 000", "12_34", "1_0.5", "_1", "1_", "1__2", "0x10", "0b1", "0o7", "inf", "-inf",
    "+Inf", "INF", "infinity", "-Infinity", "iNfInItY", "infinit", "Infinite", "nan",
    "NaN", "-nan", "+NAN", "nAn", "nana", "Nan1", " 12 ", "\t-3\n", "\x1c7\x1f",
    "\xa042", "42\xa0", "\u200b1", "\u0661\u0662\u0663", "\uff11\uff12", "\u00b2",
    "1\u00b2", "\u0661.5", "\u0663e2", "\u0661_\u0662", "1" * 5_000, "9" * 4_300,
    "9" * 4_301, "-" + "1" * 5_000, "abc", "NULL", "null", "N/A", "?", "none", "nope",
    "i", "n", "N", "I",
]


def seeded_cells(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [
        "".join(rng.choice(CELL_ALPHABET) for _ in range(rng.randrange(7)))
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# The bit-identity property: chunked == monolithic
# ----------------------------------------------------------------------
class TestChunkedParity:
    @pytest.mark.parametrize("kernel_name", KERNELS)
    @pytest.mark.parametrize("builder", RELATION_BUILDERS)
    @pytest.mark.parametrize("chunk_size", [1, 7, 1000])
    def test_statistics_identical_across_chunk_sizes(self, kernel_name, builder, chunk_size):
        relation = builder(seed=chunk_size)
        with kernel(kernel_name):
            monolithic = FdStatistics.compute(relation, FD)
            chunked = compute_chunked(relation, FD, chunk_size=chunk_size)
        assert_identical(chunked, monolithic)

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_chunk_size_larger_than_relation(self, kernel_name):
        relation = null_relation(seed=5, num_rows=120)
        with kernel(kernel_name):
            monolithic = FdStatistics.compute(relation, FD)
            chunked = compute_chunked(relation, FD, chunk_size=10_000)
        assert_identical(chunked, monolithic)

    @pytest.mark.parametrize("kernel_name", KERNELS)
    @pytest.mark.parametrize("builder", RELATION_BUILDERS)
    def test_all_measures_score_identically(self, kernel_name, builder):
        relation = builder(seed=17)
        with kernel(kernel_name):
            monolithic = FdStatistics.compute(relation, FD)
            chunked = compute_chunked(relation, FD, chunk_size=61)
        for name, measure in all_measures().items():
            assert measure.score_from_statistics(chunked) == measure.score_from_statistics(
                monolithic
            ), name

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_covering_fd_fast_path(self, kernel_name):
        # X ∪ Y is the whole schema, so the full tuples Σ_w R(w)² counts
        # are the (x, y) pairs of the rows non-NULL on Y.
        rng = random.Random(3)
        relation = Relation(
            ("X", "Y"),
            [(rng.randrange(30), rng.choice(["u", "v", None])) for _ in range(500)],
            name="covering",
        )
        fd = FunctionalDependency(("X",), ("Y",))
        fd_reversed = FunctionalDependency(("Y",), ("X",))
        with kernel(kernel_name):
            monolithic = FdStatistics.compute(relation, fd)
            assert_identical(compute_chunked(relation, fd, chunk_size=37), monolithic)
            # The reversed FD packs Y first.
            assert_identical(
                compute_chunked(relation, fd_reversed, chunk_size=37),
                FdStatistics.compute(relation, fd_reversed),
            )

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_chunked_relation_source(self, kernel_name):
        relation = null_relation(seed=31)
        store = ChunkedRelation.from_relation(relation, chunk_size=53)
        with kernel(kernel_name):
            monolithic = FdStatistics.compute(relation, FD)
            assert_identical(FdStatistics.compute(store, FD), monolithic)

    def test_compute_dispatches_on_chunk_knobs(self):
        # The source decides the chunking; compute has no knob for it.
        relation = random_relation(seed=41, num_rows=200)
        monolithic = FdStatistics.compute(relation, FD)
        store = ChunkedRelation.from_relation(relation, chunk_size=19)
        assert_identical(FdStatistics.compute(store, FD), monolithic)
        for knob in ({"chunk_size": 19}, {"jobs": 2}, {"backend": "python"}):
            with pytest.raises(TypeError):
                FdStatistics.compute(relation, FD, **knob)
        with pytest.raises(TypeError, match="Relation or ChunkedRelation"):
            FdStatistics.compute(relation.rows(), FD)

    def test_unknown_attribute_raises(self):
        relation = random_relation(seed=1, num_rows=10)
        with pytest.raises(KeyError, match="not in relation schema"):
            FdStatistics.compute(relation, FunctionalDependency(("Z",), ("B",)))

    def test_invalid_chunk_size_raises(self):
        relation = random_relation(seed=1, num_rows=10)
        with pytest.raises(ValueError, match="chunk_size"):
            ChunkedRelation.from_relation(relation, chunk_size=0)


# ----------------------------------------------------------------------
# Out-of-core ingest: ChunkedRelation
# ----------------------------------------------------------------------
class TestChunkedRelation:
    def test_round_trip_matches_relation(self):
        relation = null_relation(seed=7, num_rows=250)
        store = ChunkedRelation.from_relation(relation, chunk_size=64)
        assert store.attributes == relation.attributes
        assert store.num_rows == len(relation) == len(store)
        assert store.num_chunks == (250 + 63) // 64
        assert list(store.iter_rows()) == list(relation)
        assert store.to_relation() == relation

    def test_cardinality_and_null_count(self):
        store = ChunkedRelation(
            ("A", "B"),
            [(1, None), (2, "x"), (1, "x"), (None, "y")],
            chunk_size=2,
        )
        assert store.cardinality("A") == 2
        assert store.null_count("A") == 1
        assert store.cardinality("B") == 2
        assert store.null_count("B") == 1
        assert store.code_bytes() == 4 * 2 * 4  # 4 rows x 2 attrs x int32

    def test_decode_tables_first_occurrence_order(self):
        store = ChunkedRelation(("A",), [("b",), ("a",), ("b",), ("c",)], chunk_size=3)
        assert store._column("A").values == ["b", "a", "c"]

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError, match="arity"):
            ChunkedRelation(("A", "B"), [(1, 2), (3,)])

    def test_store_without_rows_is_empty(self):
        store = ChunkedRelation(("A", "B"))
        assert store.num_rows == store.num_chunks == 0
        assert store.cardinality("A") == store.null_count("B") == 0
        assert list(store.iter_rows()) == []
        with pytest.raises(KeyError, match="unknown attribute"):
            store.null_count("C")

    def test_classmethods_build_one_streaming_column_per_attribute(
        self, monkeypatch, tmp_path
    ):
        # The classmethods encode their own batches: the constructor they
        # call must not build a set of columns of its own first.
        built = []
        init = chunked_module._StreamingColumn.__init__

        def counting(column):
            built.append(column)
            init(column)

        monkeypatch.setattr(chunked_module._StreamingColumn, "__init__", counting)
        relation = null_relation(seed=3, num_rows=50)
        path = write_csv(relation, tmp_path / "data.csv")
        for build in (
            lambda: ChunkedRelation.from_relation(relation, chunk_size=7),
            lambda: ChunkedRelation.read_csv(path, chunk_size=7),
        ):
            built.clear()
            assert list(build().iter_rows()) == list(relation)
            assert len(built) == len(relation.attributes)

    @pytest.mark.parametrize(
        "chunk_size, options",
        [
            pytest.param(size, {}, id=f"chunk{size}")
            for size in (1, 7, 511, 512, 513, 4_096, DEFAULT_CHUNK_SIZE)
        ]
        + [
            pytest.param(513, {"infer_types": False}, id="no_inference"),
            pytest.param(7, {"delimiter": ";"}, id="semicolon"),
        ],
    )
    def test_read_csv_matches_materialised_read_csv(self, tmp_path, chunk_size, options):
        # 1,500 rows span three read batches, so batch and chunk
        # boundaries fall everywhere relative to each other.
        delimiter = options.get("delimiter", ",")
        raw_rows = raw_csv_rows(seed=13, num_rows=1_500)
        path = tmp_path / "data.csv"
        path.write_text(
            "\n".join(delimiter.join(row) for row in [RAW_HEADER] + raw_rows) + "\n",
            encoding="utf-8",
        )
        if options.get("infer_types", True):
            convert = reference_cell
        else:
            convert = lambda cell: None if cell in DEFAULT_NULL_MARKERS else cell  # noqa: E731
        expected = [tuple(convert(cell) for cell in row) for row in raw_rows]

        materialised = read_csv(path, **options)
        streamed = ChunkedRelation.read_csv(path, chunk_size=chunk_size, **options)
        assert typed(materialised) == typed(expected)
        assert streamed.attributes == materialised.attributes == RAW_HEADER
        assert list(streamed.iter_rows()) == list(materialised)
        assert [chunk.num_rows for chunk in streamed.iter_chunks()] == [
            min(chunk_size, 1_500 - start) for start in range(0, 1_500, chunk_size)
        ]
        from_rows = ChunkedRelation.from_relation(materialised, chunk_size=chunk_size)
        assert [typed([streamed._column(a).values]) for a in RAW_HEADER] == [
            typed([from_rows._column(a).values]) for a in RAW_HEADER
        ]
        for attribute in RAW_HEADER:
            assert streamed.null_count(attribute) == from_rows.null_count(attribute)
        # ...and the statistics computed from the stream match too.
        fd = FunctionalDependency(("mixed",), ("text",))
        assert_identical(
            FdStatistics.compute(streamed, fd), FdStatistics.compute(materialised, fd)
        )


# ----------------------------------------------------------------------
# The ingest memo: raw cell -> code across read batches, capped
# ----------------------------------------------------------------------
def reference_encoding(columns, value_of) -> list:
    """The cell-by-cell encoder: per column, its codes, decode table and
    NULL count.  Each cell becomes ``value_of(cell)``; NULL takes code -1,
    a known value its code, a new value the next code."""
    encoded = []
    for cells in columns:
        mapping, values, codes = {}, [], []
        for cell in cells:
            value = value_of(cell)
            if value is None:
                codes.append(-1)
                continue
            if value not in mapping:
                mapping[value] = len(values)
                values.append(value)
            codes.append(mapping[value])
        encoded.append((codes, typed([values])[0], codes.count(-1)))
    return encoded


def stored_encoding(store: ChunkedRelation) -> list:
    """The same triple per column, read back from a built store."""
    encoded = []
    for attribute in store.attributes:
        codes = [code for chunk in store.iter_chunks() for code in chunk.column_list(attribute)]
        column = store._column(attribute)
        encoded.append((codes, typed([column.values])[0], column.null_count))
    return encoded


def assert_keeps_only_decode_tables(store: ChunkedRelation) -> None:
    """A built store holds no memo and no value -> code dict."""
    held = [value for value in vars(store).values() if isinstance(value, dict)]
    assert held == [store.tuple_square_sums]
    for attribute in store.attributes:
        referents = gc.get_referents(store._column(attribute))
        assert not any(isinstance(referent, dict) for referent in referents), attribute


#: Memo cap of the memo tests: 4-row read batches fill it in one batch.
MEMO_CELLS = 3

#: One CSV column per case, 40 cells each, so 10 read batches of 4 rows.
MEMO_COLUMNS = {
    # "x" is memoized and comes back late; "r" is coded once the memo is
    # full, so it comes back as a string that is coded but not memoized.
    "returning": ["x", "p", "q", "r"]
    + [f"s{i}" for i in range(24)]
    + ["r", "x", "s3", "r", "x", "s0", "r", "p", "s20", "s21", "x", "q"],
    # Each spelling of one is first seen in a different batch.
    "numerals": [
        cell
        for spelling in ("1", "01", "1.0", " 1", "1e0")
        for cell in (spelling, "word", "2", spelling)
    ]
    + ["1e0", " 1", "1.0", "01", "1", "2.0", "word", "02"]
    + ["x1", "1", "+1", "2", "3", "01", "1.", "word", "1", "1", "2", "3"],
    # Every default NULL marker and NaN spelling, spread over the batches.
    "nulls": [
        "", "v", "NULL", "3", "null", "NA", "v", "N/A", "?", "NaN", "3", "nan",
        "-nan", "+NAN", "v", "nAn", "", "v", "w", "NULL", "3", "?", "NaN", "v",
        "x", "y", "z", "-nan", "w", "v", "3", "", "nan", "N/A", "NA", "null",
        "v", "w", "x", "3",
    ],
    # Non-numeric strings until one numeric-looking cell in batch 6.
    "turns_numeric": [f"a{i % 9}" for i in range(24)]
    + ["a1", " 7", "a9", "a2"]
    + [f"a{i % 11}" for i in range(12)],
    # Every cell new, but for one key coded past the cap that comes back.
    "key": [f"k{i}" for i in range(39)] + ["k5"],
    # ASCII digit strings; "007" and "7" share a code.
    "digits": [str(i % 6 * 7) for i in range(20)] + ["007"] + [str(i % 13) for i in range(19)],
}


@pytest.fixture()
def memo_sizes(monkeypatch):
    """Small read batches and memo; records the memo's size after each batch."""
    sizes = []
    encode = chunked_module._StreamingColumn.encode

    def recording(self, cells, convert=None):
        codes = encode(self, cells, convert)
        sizes.append(len(self.memo))
        return codes

    monkeypatch.setattr(chunked_module._StreamingColumn, "encode", recording)
    with small_batches(rows=4, memo_cells=MEMO_CELLS):
        yield sizes


class TestIngestMemo:
    @pytest.mark.parametrize("numpy_present", [True, False], ids=["numpy", "no_numpy"])
    @pytest.mark.parametrize(
        "options",
        [{}, {"infer_types": False}, {"delimiter": ";"}],
        ids=["inferred", "no_inference", "semicolon"],
    )
    def test_read_csv_matches_cell_by_cell_encoder(
        self, tmp_path, monkeypatch, memo_sizes, options, numpy_present
    ):
        if not numpy_present:
            without_numpy(monkeypatch)
        delimiter = options.get("delimiter", ",")
        header = list(MEMO_COLUMNS)
        rows = list(zip(*MEMO_COLUMNS.values()))
        path = tmp_path / "memo.csv"
        path.write_text(
            "".join(delimiter.join(row) + "\n" for row in [header, *rows]), encoding="utf-8"
        )
        inferred = options.get("infer_types", True)

        def value_of(cell):
            if cell in DEFAULT_NULL_MARKERS:
                return None
            return _coerce(cell) if inferred else cell

        expected = reference_encoding(MEMO_COLUMNS.values(), value_of)
        for chunk_size in (1, 5, 64):
            store = ChunkedRelation.read_csv(path, chunk_size=chunk_size, **options)
            assert stored_encoding(store) == expected, chunk_size
            assert_keeps_only_decode_tables(store)
        assert max(memo_sizes) == MEMO_CELLS
        if inferred:  # every spelling of one shares the first one's code
            codes, values, _ = expected[header.index("numerals")]
            assert values[0] == ("int", "1") and {codes[i] for i in range(0, 20, 4)} == {0}
        # 17 NULL markers, and 4 more NaN spellings when types are inferred.
        assert expected[header.index("nulls")][2] == (21 if inferred else 17)

    @pytest.mark.parametrize("numpy_present", [True, False], ids=["numpy", "no_numpy"])
    def test_typed_rows_match_cell_by_cell_encoder(self, monkeypatch, memo_sizes, numpy_present):
        if not numpy_present:
            without_numpy(monkeypatch)
        reused = float("nan")
        columns = {
            "number": [1, 1.0, True, None, 2, "1", 2.0, 1, None, 3, True, 1.0, 4, 5, 6, 3.0],
            "mixed": [None, "a", 2, 2.0, False, 0, None, "a", "b", "c", "d", 0.0, "a", 2, 7, 8],
            "nan": [reused, 0.5, float("nan"), reused, None, 0.5, float("nan"), reused]
            + [1.5, 2.5, 3.5, reused, float("nan"), None, reused, 0.5],
        }
        relation = Relation(tuple(columns), list(zip(*columns.values())))
        expected = reference_encoding(columns.values(), lambda value: value)
        for chunk_size in (1, 5, 64):
            store = ChunkedRelation.from_relation(relation, chunk_size=chunk_size)
            assert stored_encoding(store) == expected, chunk_size
            assert_keeps_only_decode_tables(store)
        assert max(memo_sizes) == MEMO_CELLS
        # The reused NaN keeps one code; each fresh NaN takes its own.
        nan_codes = expected[2][0]
        assert len({nan_codes[i] for i in (0, 3, 7, 11, 14)}) == 1
        assert len({nan_codes[i] for i in (0, 2, 6, 12)}) == 4


# ----------------------------------------------------------------------
# CSV layer: NaN coercion, max_rows, gzip
# ----------------------------------------------------------------------
class TestCsvIngest:
    def test_nan_cells_become_null(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("A,B\nNaN,1\nnan,2\n-nan,3\n1.5,NaN\n")
        relation = read_csv(path)
        assert list(relation) == [(None, 1), (None, 2), (None, 3), (1.5, None)]

    def test_inference_keeps_distinct_numerals_distinct(self, tmp_path):
        # int() and float() accept "_" separators and non-ASCII digits;
        # inference must not merge such cells with plain numbers.
        path = tmp_path / "numerals.csv"
        path.write_text(
            "A,B\n12_34,p\n1234,q\n1_0.5,r\n\u0661\u0662\u0663,s\n1,t\n1.0,u\nNaN,v\n",
            encoding="utf-8",
        )
        expected = [
            ("12_34", "p"),
            (1234, "q"),
            ("1_0.5", "r"),
            ("\u0661\u0662\u0663", "s"),
            (1, "t"),
            (1.0, "u"),
            (None, "v"),
        ]
        relation = read_csv(path)
        store = ChunkedRelation.read_csv(path)
        assert list(relation) == expected
        assert list(store.iter_rows()) == expected
        # "1" and "1.0" share a code; nothing else merges.
        assert store.cardinality("A") == 5
        for source in (relation, store):
            statistics = FdStatistics.compute(source, FunctionalDependency("A", "B"))
            assert statistics.distinct_x == 5

    def test_float_nan_coerces_to_null_even_without_marker(self, tmp_path):
        # "+NAN" is not in DEFAULT_NULL_MARKERS but parses to IEEE NaN;
        # the _coerce regression guard turns it into NULL anyway.
        path = tmp_path / "nan2.csv"
        path.write_text("A\n+NAN\n")
        assert list(read_csv(path)) == [(None,)]

    def test_max_rows_caps_ingest(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("A,B\n" + "".join(f"{i},{i % 3}\n" for i in range(50)))
        assert len(read_csv(path, max_rows=10)) == 10
        assert read_csv(path, max_rows=0).num_rows == 0
        header, rows = stream_csv_rows(path, max_rows=5)
        assert header == ["A", "B"]
        assert len(list(rows)) == 5
        with pytest.raises(ValueError, match="max_rows"):
            read_csv(path, max_rows=-1)
        # A ragged row just past the cap is never checked.
        ragged = tmp_path / "ragged_tail.csv"
        ragged.write_text("A,B\n" + "1,2\n" * 600 + "3\n")
        assert len(read_csv(ragged, max_rows=600)) == 600
        assert ChunkedRelation.read_csv(ragged, max_rows=600).num_rows == 600

    def test_gzip_round_trip(self, tmp_path):
        relation = random_relation(seed=19, num_rows=80)
        path = write_csv(relation, tmp_path / "data.csv.gz")
        with gzip.open(path, "rt") as handle:
            assert handle.readline().strip() == "A,B,C"
        assert list(read_csv(path)) == list(relation)
        assert list(ChunkedRelation.read_csv(path, chunk_size=17).iter_rows()) == list(
            relation
        )

    def test_ragged_row_raises(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("A,B\n1,2\n3\n")
        with pytest.raises(ValueError, match="cells"):
            list(read_csv(path))
        # ...also when the ragged row arrives in the second read batch.
        path.write_text("A,B\n" + "1,2\n" * 600 + "3\n")
        for reader in (read_csv, ChunkedRelation.read_csv):
            with pytest.raises(ValueError, match="cells"):
                reader(path)

    def test_coerce_matches_definition(self):
        # The shortcuts (ASCII digits straight to int(), a first character
        # that cannot start a number returned unchanged) change no result.
        cells = ADVERSARIAL_CELLS + seeded_cells(seed=7, count=100_000)
        for cell in cells:
            assert typed([(_coerce(cell),)]) == typed([(reference_coerce(cell),)]), repr(cell)

    def test_column_conversion_matches_per_cell_definition(self):
        # A batch column of ASCII digit strings converts through int() in
        # one call; with an empty cell, a digit NULL marker or a cell past
        # int()'s digit limit it must still agree cell for cell.
        rng = random.Random(5)
        seeded = seeded_cells(seed=11, count=20_000)
        columns = [seeded[start : start + 512] for start in range(0, len(seeded), 512)]
        columns += [
            [str(rng.randrange(10**6)) for _ in range(512)],
            [str(rng.randrange(60)) for _ in range(512)],
            ["12", "", "7", "12"],
            ["1" * 5_000, "2", "1" * 5_000],
            ["007", "7", "0", "00"],
            ADVERSARIAL_CELLS,
        ]
        for markers in (DEFAULT_NULL_MARKERS, ("0", "NULL")):
            convert = _cell_converter(markers, infer_types=True)
            for column in columns:
                distinct = dict.fromkeys(column)
                expected = [
                    None if cell in markers else reference_coerce(cell) for cell in distinct
                ]
                assert typed([convert(distinct)]) == typed([expected]), column[:4]

    def test_utf8_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Excel writes UTF-8 CSV with a byte-order mark.
        content = b"\xef\xbb\xbfA,B\n1,x\n1,x\n2,y\n"
        plain = tmp_path / "bom.csv"
        plain.write_bytes(content)
        packed = tmp_path / "bom.csv.gz"
        packed.write_bytes(gzip.compress(content))
        fd = FunctionalDependency("A", "B")
        for path in (plain, packed):
            for relation in (read_csv(path), ChunkedRelation.read_csv(path)):
                assert tuple(relation.attributes) == ("A", "B")
                statistics = FdStatistics.compute(relation, fd)
                assert get_measure("g3").score_from_statistics(statistics) == 1.0

    @pytest.mark.skipif(sys.version_info < (3, 10), reason="EncodingWarning is new in 3.10")
    def test_csv_io_never_uses_the_locale_encoding(self, tmp_path):
        script = textwrap.dedent(
            """
            import sys
            from repro.relation import ChunkedRelation, Relation
            from repro.relation.io import read_csv, write_csv

            relation = Relation(("A", "B"), [(1, "\u00e9t\u00e9"), (2, None)])
            for name in ("data.csv", "data.csv.gz"):
                path = write_csv(relation, sys.argv[1] + "/" + name)
                assert read_csv(path) == relation
                assert ChunkedRelation.read_csv(path).to_relation() == relation
            """
        )
        source = str(Path(repro.__file__).resolve().parents[1])
        environment = dict(os.environ, PYTHONPATH=source)
        completed = subprocess.run(
            [
                sys.executable,
                "-X",
                "warn_default_encoding",
                "-W",
                "error::EncodingWarning",
                "-c",
                script,
                str(tmp_path),
            ],
            env=environment,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr


# ----------------------------------------------------------------------
# The block reader: str.split where it gives csv.reader's rows
# ----------------------------------------------------------------------
#: The csv module's field limit while the reader tests run: a generated
#: line can pass it, and a long cell can reach it or pass it by one.
FIELD_LIMIT = 24

#: Cells that need quoting, quotes doubled: the delimiter (``{d}``), a
#: quote, each line end, a NUL.
QUOTED_CELLS = ["x{d}y", 'say "hi"', "two\nlines", "cr\r\nlf", "bare\rcr", "", "q\x00"]

#: Cells that need none: form feed, NEL and U+2028 are no line end to
#: ``csv`` or ``str.split``.
PLAIN_CELLS = ["a", "1", "2.5", "", "NULL", "f\x0cf", "n\x85l", "l\u2028s", " s p "]

#: Rarer unquoted cells: a NUL (a csv error before Python 3.11, a
#: character since), and cells that reach the field limit or pass it by one.
RARE_CELLS = ["n\x00l", "z" * FIELD_LIMIT, "z" * (FIELD_LIMIT + 1)]


def random_csv_text(rng: random.Random, delimiter: str) -> str:
    """A seeded CSV text whose every feature ``csv.reader`` cares about
    may sit anywhere: quoted cells, each line end or a mix, blank first,
    middle or last lines, a missing final line end, a BOM, NUL, cells at
    and past the field limit, ragged rows."""
    endings = rng.choice([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]])
    quote_rate = rng.choice([0.0, 0.0, 0.03, 0.3])
    rare_rate = rng.choice([0.0, 0.0, 0.02])
    width = rng.randint(1, 4)

    def cell() -> str:
        if rng.random() < quote_rate:
            text = rng.choice(QUOTED_CELLS).replace("{d}", delimiter)
            return '"' + text.replace('"', '""') + '"'
        return rng.choice(RARE_CELLS if rng.random() < rare_rate else PLAIN_CELLS)

    lines = [delimiter.join(f"c{i}" for i in range(width))]
    for _ in range(rng.randint(0, 40)):
        ragged = rng.random() < 0.01
        lines.append(delimiter.join(cell() for _ in range(width + ragged)))
    for _ in range(rng.choice([0] * 6 + [1, 2])):  # blank lines, the header's place included
        lines.insert(rng.randint(0, len(lines)), "")
    text = "".join(line + rng.choice(endings) for line in lines)
    if rng.random() < 0.3:  # no final line end
        text = text[: -1 - text.endswith("\r\n")]
    return ("\ufeff" if rng.random() < 0.2 else "") + text


def open_text(path, compressed):
    if compressed:
        return gzip.open(path, "rt", encoding="utf-8-sig", newline="")
    return open(path, encoding="utf-8-sig", newline="")


def blank_rows(path, compressed, delimiter):
    """The ``[]`` rows (blank lines) ``csv.reader`` yields before any error."""
    count = 0
    with open_text(path, compressed) as handle:
        try:
            for row in csv.reader(handle, delimiter=delimiter):
                count += not row
        except csv.Error:
            pass
    return count


def csv_module_read(path, compressed, delimiter, max_rows, batch_rows):
    """``csv.reader`` over ``open(..., newline="")`` less the ``[]`` rows
    of blank lines, batched and checked as :func:`read_raw_batches`
    batches and checks."""
    with open_text(path, compressed) as handle:
        reader = filter(None, csv.reader(handle, delimiter=delimiter))
        header = next(reader, None)
        if header is None:
            raise ValueError("empty")
        rows = islice(reader, max_rows)
        read = []
        while True:
            batch = list(islice(rows, batch_rows))
            if not batch:
                return header, read
            if any(len(row) != len(header) for row in batch):
                raise ValueError("ragged")
            read += batch


def block_read(path, delimiter, max_rows):
    header, batches, _ = read_raw_batches(path, delimiter=delimiter, max_rows=max_rows)
    return header, [row for batch in batches for row in batch]


def outcome(read, *args):
    """What a read gives: its result, or the type of the error it raises."""
    try:
        return read(*args)
    except (ValueError, csv.Error) as error:
        return type(error)


@pytest.fixture()
def small_field_limit():
    saved = csv.field_size_limit(FIELD_LIMIT)
    yield
    csv.field_size_limit(saved)


class TestBlockReader:
    @pytest.mark.parametrize("numpy_present", [True, False], ids=["numpy", "no_numpy"])
    def test_reads_as_the_csv_module_reads(
        self, tmp_path, monkeypatch, small_field_limit, numpy_present
    ):
        if not numpy_present:
            without_numpy(monkeypatch)
        split_block = io_module._split_block
        splits = Counter()  # blocks split by str.split (True) or not

        def counting(*args):
            rows = split_block(*args)
            splits[rows is not None] += 1
            return rows

        monkeypatch.setattr(io_module, "_split_block", counting)
        rng = random.Random(28)
        kinds = Counter()
        for case in range(300):
            delimiter = rng.choice([",", ";", "\t"])
            raw = random_csv_text(rng, delimiter).encode("utf-8")
            compression = rng.choice(["plain", "gzip", "multi-member"])
            path = tmp_path / f"case{case}.csv"
            if compression == "plain":
                path.write_bytes(raw)
            elif compression == "gzip":
                path.write_bytes(gzip.compress(raw))
            else:  # members split anywhere, even inside a character
                cut = rng.randint(0, len(raw))
                path.write_bytes(gzip.compress(raw[:cut]) + gzip.compress(raw[cut:]))
            max_rows = rng.choice([None, None, rng.randint(0, 30)])
            batch_rows = rng.choice([1, 2, 3, 512])
            expected = outcome(
                csv_module_read, path, compression != "plain", delimiter, max_rows, batch_rows
            )
            if isinstance(expected, type):
                kinds[expected] += 1
            else:
                kinds["rows"] += 1
                if blank_rows(path, compression != "plain", delimiter):
                    kinds["rows past a blank line"] += 1
            context = (case, raw[:200], compression, max_rows, batch_rows)
            for block_bytes in (1, 2, 5, 16, 64, 1 << 16):
                with small_batches(rows=batch_rows, block_bytes=block_bytes):
                    assert outcome(block_read, path, delimiter, max_rows) == expected, (
                        block_bytes,
                        context,
                    )
            # The typed readers see the same rows, or raise the same error.
            with small_batches(rows=batch_rows, block_bytes=rng.choice([3, 64])):
                typed_reads = [
                    outcome(lambda: list(read_csv(path, delimiter=delimiter, max_rows=max_rows))),
                    outcome(
                        lambda: list(
                            ChunkedRelation.read_csv(
                                path, chunk_size=5, delimiter=delimiter, max_rows=max_rows
                            ).iter_rows()
                        )
                    ),
                ]
            if isinstance(expected, type):
                assert typed_reads == [expected, expected], context
            else:
                rows = typed([tuple(map(reference_cell, row)) for row in expected[1]])
                assert [typed(read) for read in typed_reads] == [rows, rows], context
        # Each outcome occurs: rows (some read past blank lines), a ragged
        # line or no header, and a field past the limit (or, before Python
        # 3.11, a NUL); and both parsers run.
        assert kinds["rows"] > 120 and kinds["rows past a blank line"] > 40, kinds
        assert kinds[ValueError] > 20 and kinds[csv.Error] > 10, kinds
        assert splits[True] > 3_000 and splits[False] > 1_000, splits

    def test_blank_lines_are_no_rows(self, tmp_path):
        # A blank line anywhere, a trailing one included, is skipped by the
        # split path and by csv.reader (the quoted cell sends it there).
        path = tmp_path / "blank.csv"
        for text in ("a,b\n1,2\n\n3,4\n\n", 'a,b\r\n\r\n"1",2\r\n\r\n3,4\r\n'):
            path.write_bytes(text.encode())
            assert list(read_csv(path)) == [(1, 2), (3, 4)], text
            assert list(ChunkedRelation.read_csv(path).iter_rows()) == [(1, 2), (3, 4)], text
        # Only blank lines is still no header; a whitespace-only line is a row.
        for text, error in (("\n\r\n\n", "is empty"), ("a,b\n \n", r"row \[' '\]")):
            path.write_bytes(text.encode())
            for reader in (read_csv, ChunkedRelation.read_csv):
                with pytest.raises(ValueError, match=error):
                    reader(path)

    def test_blocks_stay_bounded_for_every_line_end(self, tmp_path):
        # A block ends at its last line end, a bare carriage return
        # included, so no block holds much more than the block size.
        for ending in ("\n", "\r\n", "\r"):
            path = tmp_path / "lines.csv"
            path.write_bytes(("a,b" + ending + ("1,22" + ending) * 2_000).encode())
            with small_batches(block_bytes=64):
                blocks = list(_read_blocks(path))
            assert "".join(blocks) == path.read_bytes().decode()
            assert len(blocks) > 100 and max(map(len, blocks)) < 2 * 64, ending

    @pytest.mark.parametrize("kind", ["truncated-gzip", "corrupt-gzip"])
    def test_unreadable_gzip_is_a_value_error_naming_the_file(self, tmp_path, kind):
        path = tmp_path / "damaged.csv"
        path.write_bytes(UNREADABLE_CSVS[kind])
        for reader in (read_csv, ChunkedRelation.read_csv):
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is a truncated"):
                reader(path)


# ----------------------------------------------------------------------
# The out-of-core guarantee: streamed ingest stays below row-list peaks
# ----------------------------------------------------------------------
class TestPeakMemory:
    def test_streamed_ingest_peak_below_row_list_peak(self, tmp_path):
        num_rows = 60_000
        path = tmp_path / "large.csv"
        rng = random.Random(2)
        with path.open("w") as handle:
            handle.write("A,B\n")
            for _ in range(num_rows):
                key = rng.randrange(300)
                handle.write(f"key-{key},{key % 30}\n")

        fd = FunctionalDependency(("A",), ("B",))

        tracemalloc.start()
        store = ChunkedRelation.read_csv(path, chunk_size=4_096)
        chunked_stats = FdStatistics.compute(store, fd)
        chunked_result = discover_afds(store, threshold=0.0)
        _, streamed_peak = tracemalloc.get_traced_memory()
        del store
        tracemalloc.stop()

        tracemalloc.start()
        relation = read_csv(path)
        monolithic_stats = FdStatistics.compute(relation, fd)
        monolithic_result = discover_afds(relation, threshold=0.0)
        _, materialised_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert chunked_stats == monolithic_stats
        assert chunked_result.candidates == monolithic_result.candidates
        # Neither ingest nor discovery builds the row list: the streamed
        # peak must stay well below the materialised one (4-byte codes vs
        # row tuples).
        assert streamed_peak < materialised_peak * 0.6, (
            f"streamed peak {streamed_peak} not below materialised "
            f"peak {materialised_peak}"
        )


# ----------------------------------------------------------------------
# Array-keyed partials (the numpy kernel)
# ----------------------------------------------------------------------
@requires_numpy
class TestArrayPartials:
    """The packed kernel is bit-identical to the code-tuple kernel, and runs
    exactly when numpy imports and the X ∪ Y radix product fits the
    packing limit."""

    @pytest.mark.parametrize("builder", RELATION_BUILDERS)
    @pytest.mark.parametrize("chunk_size", [1, 7, 1000])
    def test_array_equals_tuple_partials(self, builder, chunk_size):
        relation = builder(seed=31)
        for fd in (FD, FunctionalDependency(("A", "C"), ("B",))):
            # Each compute_chunked call builds its own store (its own
            # cached full-tuple sums).
            via_arrays = compute_chunked(relation, fd, chunk_size)
            with kernel("python"):
                via_tuples = compute_chunked(relation, fd, chunk_size)
            assert_identical(via_arrays, via_tuples)
            assert_identical(via_arrays, FdStatistics.compute(relation, fd))

    def test_uses_array_partials_per_backend(self, monkeypatch):
        def passes_of_one_compute():
            before = {path: chunked_passes(path) for path in ("array", "tuple")}
            FdStatistics.compute(random_relation(seed=2), FD)
            return {path: chunked_passes(path) - before[path] for path in before}

        assert passes_of_one_compute() == {"array": 1, "tuple": 0}
        with kernel("python"):
            assert passes_of_one_compute() == {"array": 0, "tuple": 1}
        without_numpy(monkeypatch)
        assert passes_of_one_compute() == {"array": 0, "tuple": 1}

    def test_pack_overflow_falls_back_to_tuple_partials(self):
        # 16 attributes x cardinality ~30: the schema's radix product
        # passes 2**62, but only X ∪ Y is packed, so a0 -> a1 still runs
        # the packed kernel.  An FD over 13 attributes (31**13 > 2**62)
        # counts code tuples instead; both give the code-tuple kernel's
        # statistics.
        rng = random.Random(13)
        attributes = tuple(f"a{i}" for i in range(16))
        rows = [
            tuple(rng.randrange(30) for _ in attributes) for _ in range(300)
        ]
        relation = Relation(attributes, rows, name="wide")
        wide_fd = FunctionalDependency(attributes[:12], attributes[12])
        for fd, path in ((FunctionalDependency(("a0",), ("a1",)), "array"), (wide_fd, "tuple")):
            before = chunked_passes(path)
            chunked = compute_chunked(relation, fd, 50)
            assert chunked_passes(path) == before + 1, fd
            with kernel("python"):
                assert_identical(chunked, FdStatistics.compute(relation, fd))

    def test_early_collapse_of_buffered_partials_changes_nothing(self, monkeypatch):
        # Past _COLLAPSE_KEYS buffered keys the pending partials are merged
        # early.  A limit of 16 collapses them every few chunks on the R3
        # stand-in (a key, NULLs); statistics and discovery stay ==.
        from repro.core import chunked as core_chunked
        from repro.rwd.datasets import build_dataset

        relation = build_dataset("R3", num_rows=2_000, seed=0).relation
        fds = [
            FunctionalDependency(lhs, rhs)
            for lhs in relation.attributes
            for rhs in relation.attributes
            if lhs != rhs
        ]

        def statistics_and_discovery():
            # A new store each time: no cached full-tuple sum is reused.
            store = ChunkedRelation.from_relation(relation, chunk_size=7)
            statistics = [FdStatistics.compute(store, fd) for fd in fds]
            return statistics, discover_afds(store, threshold=0.0, max_lhs_size=2)

        expected = statistics_and_discovery()
        collapses = 0
        add = core_chunked._ArrayMergeAccumulator.add

        def counting_add(accumulator, partial):
            nonlocal collapses
            pending = len(accumulator._pending)
            add(accumulator, partial)
            # Without a collapse a non-empty partial lengthens the list.
            collapses += partial.num_rows > 0 and len(accumulator._pending) <= pending

        monkeypatch.setattr(core_chunked, "_COLLAPSE_KEYS", 16)
        monkeypatch.setattr(core_chunked._ArrayMergeAccumulator, "add", counting_add)
        assert statistics_and_discovery() == expected
        assert collapses > 100


@requires_numpy
class TestGrouped:
    """``grouped`` (every grouping of the packed pass) against ``Counter``.

    A key range of at most ``2 · len + 1024`` is tallied, a longer one
    sorted.  The ``sorts`` fixture tells which side ran: within
    ``repro.core.partial`` only the sort side calls ``run_starts``.
    """

    @pytest.fixture
    def sorts(self, monkeypatch):
        """Lengths of the arrays ``grouped`` sorted while the test ran."""
        # Imported first, repro.core.chunked keeps the unpatched run_starts.
        import repro.core.chunked  # noqa: F401
        import repro.core.partial as partial

        calls = []
        run_starts = partial.run_starts

        def recording(*ordered):
            calls.append(ordered[0].shape[0])
            return run_starts(*ordered)

        monkeypatch.setattr(partial, "run_starts", recording)
        return calls

    @staticmethod
    def group(values, bound, weights=None):
        """``grouped`` as ``[(key, total)]``."""
        import numpy as np

        from repro.core.partial import grouped

        keys, totals = grouped(
            np.asarray(values, dtype=np.int64),
            bound,
            None if weights is None else np.asarray(weights, dtype=np.int64),
        )
        assert totals.dtype == np.int64 and keys.dtype.kind == "i"
        return list(zip(keys.tolist(), totals.tolist()))

    @staticmethod
    def by_counter(values, weights=None):
        totals = Counter()
        for i, value in enumerate(values):
            totals[value] += 1 if weights is None else weights[i]
        return sorted(totals.items())

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("past_limit", [0, 1], ids=["limit", "limit+1"])
    def test_matches_counter_on_both_sides_of_the_limit(self, sorts, weighted, past_limit):
        rng = random.Random(past_limit * 2 + weighted)
        size = 300
        bound = 2 * size + 1024 + past_limit
        # Both ends of the key range, repeated keys, and gaps.
        values = [0, bound - 1] + [rng.randrange(bound // 4) * 4 for _ in range(size - 2)]
        weights = [rng.randrange(1, 1000) for _ in values] if weighted else None
        assert self.group(values, bound, weights) == self.by_counter(values, weights)
        assert sorts == ([size] if past_limit else [])

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("bound", [0, 1, 1024, 1025, 2**62])
    def test_empty_input(self, sorts, weighted, bound):
        assert self.group([], bound, [] if weighted else None) == []
        assert sorts == []

    @pytest.mark.parametrize("bound, expected_sorts", [(8, []), (2**40, [5])], ids=["tally", "sort"])
    def test_weighted_merge_passes_2_31(self, sorts, bound, expected_sorts):
        import numpy as np

        from repro.core.partial import ArrayFdCounts

        big = 2**31 - 1
        raw = [([1, 5], [big, big]), ([5, 7], [big, 3]), ([5], [2])]
        partials = [
            ArrayFdCounts(
                sum(counts), np.array(keys, dtype=np.int64), np.array(counts, dtype=np.int64)
            )
            for keys, counts in raw
        ]
        merged = ArrayFdCounts.merge_all(partials, bound)
        values = [key for keys, _ in raw for key in keys]
        weights = [count for _, counts in raw for count in counts]
        assert list(zip(merged.keys.tolist(), merged.counts.tolist())) == self.by_counter(
            values, weights
        )
        assert merged.counts.dtype == np.int64
        assert merged.counts.tolist() == [big, 2**32, 3]
        assert merged.num_rows == sum(weights)
        assert sorts == expected_sorts

    @pytest.mark.parametrize("kernel_name", ["numpy", "sorted"])
    def test_sorted_kernel_sorts_small_cases(self, sorts, kernel_name):
        # 1,000 rows of small domains (full-tuple radix product 13·7·21)
        # tally every grouping; the oracle's "sorted" kernel makes the
        # same pass sort them all.
        relation = random_relation(seed=4, num_rows=1000)
        with kernel(kernel_name):
            statistics = FdStatistics.compute(relation, FD)
        assert bool(sorts) is (kernel_name == "sorted")
        with kernel("python"):
            assert_identical(statistics, compute_chunked(relation, FD, 7))


# ----------------------------------------------------------------------
# Gzip magic-byte sniffing
# ----------------------------------------------------------------------
class TestGzipSniffing:
    def test_gzip_bytes_under_csv_extension(self, tmp_path):
        # A mislabeled file: gzip content, plain .csv name.
        path = tmp_path / "mislabeled.csv"
        path.write_bytes(gzip.compress(b"A,B\n1,x\n2,y\n"))
        relation = read_csv(path)
        assert relation.rows() == [(1, "x"), (2, "y")]
        store = ChunkedRelation.read_csv(path, chunk_size=1)
        assert list(store.iter_rows()) == relation.rows()

    def test_plain_text_under_gz_extension(self, tmp_path):
        # The opposite lie: plain CSV renamed to .gz.
        path = tmp_path / "mislabeled.csv.gz"
        path.write_text("A,B\n1,x\n")
        relation = read_csv(path)
        assert relation.rows() == [(1, "x")]

    def test_write_still_honours_gz_extension(self, tmp_path):
        path = tmp_path / "out.csv.gz"
        write_csv(Relation(("A",), [(1,), (2,)]), path)
        with gzip.open(path, "rt") as handle:
            assert handle.read().splitlines() == ["A", "1", "2"]
