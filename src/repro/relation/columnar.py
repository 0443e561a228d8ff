"""Columnar (dictionary-encoded) view of a relation.

The row-oriented :class:`~repro.relation.relation.Relation` stores a bag
of Python tuples — ideal for the paper's formal definitions, hopeless for
the runtime experiment (Table V), where one relation is scanned once per
candidate FD.  :class:`ColumnarRelation` dictionary-encodes each
attribute **once per relation** into an ``int32`` code array (NULL is the
reserved code ``-1``) so that every later scan becomes an array
operation: the statistics pass slices the code arrays into chunks
(:mod:`repro.core.chunked`), and discovery's key check reads each
attribute's cardinality and null count from the same view.

Crucially for the statistics kernels (:mod:`repro.core.chunked`),
codes are assigned in **first-occurrence order**, the same order as the
streaming chunked ingest, so both kinds of chunk source feed the kernels
identical codes.

The view is cached on the relation (see :meth:`Relation.columnar`) and
requires numpy; :func:`numpy_available` gates every caller so the pure
Python paths keep working when numpy is absent.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

#: Reserved code for NULL cells in every encoded column.
NULL_CODE = -1


def numpy_available() -> bool:
    """True when the columnar substrate can be used at all."""
    return np is not None


class _EncodedColumn:
    """One dictionary-encoded attribute: codes, decode table, null count."""

    __slots__ = ("codes", "values", "null_count")

    def __init__(self, codes: "np.ndarray", values: List[object], null_count: int):
        self.codes = codes
        self.values = values
        self.null_count = null_count

    @property
    def cardinality(self) -> int:
        """Number of distinct non-NULL values."""
        return len(self.values)


class ColumnarRelation:
    """Dictionary-encoded columns of one relation.

    Build via :meth:`encode` (or, preferably, :meth:`Relation.columnar`,
    which caches the view on the relation).
    """

    def __init__(
        self,
        attributes: Tuple[str, ...],
        num_rows: int,
        columns: Dict[str, _EncodedColumn],
    ):
        self.attributes = attributes
        self._columns = columns
        self.num_rows = num_rows
        #: ``Σ_w R(w)²`` per set of attributes the rows must be non-NULL
        #: on, filled by :func:`repro.core.chunked.tuple_square_sum`.
        self.tuple_square_sums: Dict[Tuple[str, ...], int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def encode(cls, relation) -> "ColumnarRelation":
        """Dictionary-encode every attribute of ``relation``.

        This is the only O(rows x attributes) Python pass of the columnar
        substrate; everything downstream operates on the code arrays.
        """
        if np is None:  # pragma: no cover - guarded by numpy_available()
            raise ImportError("the columnar relation view requires numpy")
        rows = relation._rows
        num_rows = len(rows)
        columns: Dict[str, _EncodedColumn] = {}
        for position, attribute in enumerate(relation.attributes):
            codes = np.empty(num_rows, dtype=np.int32)
            mapping: Dict[object, int] = {}
            values: List[object] = []
            null_count = 0
            for index, row in enumerate(rows):
                value = row[position]
                if value is None:
                    codes[index] = NULL_CODE
                    null_count += 1
                    continue
                code = mapping.get(value)
                if code is None:
                    code = len(values)
                    mapping[value] = code
                    values.append(value)
                codes[index] = code
            columns[attribute] = _EncodedColumn(codes, values, null_count)
        return cls(tuple(relation.attributes), num_rows, columns)

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def codes(self, attribute: str) -> "np.ndarray":
        """The int32 code array of one attribute (``-1`` marks NULL)."""
        return self._column(attribute).codes

    def cardinality(self, attribute: str) -> int:
        """Number of distinct non-NULL values of one attribute."""
        return self._column(attribute).cardinality

    def null_count(self, attribute: str) -> int:
        return self._column(attribute).null_count

    def _column(self, attribute: str) -> _EncodedColumn:
        try:
            return self._columns[attribute]
        except KeyError:
            raise KeyError(
                f"unknown attribute {attribute!r}; available: {list(self.attributes)}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<ColumnarRelation: {self.num_rows} rows x "
            f"{len(self.attributes)} encoded attributes>"
        )
