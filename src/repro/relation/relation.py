"""Bag-based relations.

A relation over a schema ``W`` is a bag (multiset) of tuples over ``W``
(Section III of the paper).  The implementation stores the bag as a list
of value tuples — duplicates are kept — together with the ordered list of
attribute names.  All derived quantities (frequencies, projections,
active domains) are computed lazily and cached where it pays off.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.relation.attribute import canonical_attributes, validate_attributes
from repro.relation.fd import FunctionalDependency
from repro.relation.nulls import has_null

Row = Tuple[object, ...]


class Relation:
    """A finite bag-based relation ``R(W)``.

    Parameters
    ----------
    attributes:
        Ordered attribute names of the schema ``W``.
    rows:
        Iterable of tuples; each tuple must have the same arity as
        ``attributes``.  Duplicates are preserved (bag semantics).
    name:
        Optional human-readable name used in reports.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        rows: Iterable[Sequence[object]] = (),
        name: str = "",
    ):
        self._attributes: Tuple[str, ...] = tuple(attributes)
        if len(set(self._attributes)) != len(self._attributes):
            raise ValueError(f"duplicate attribute names in schema {self._attributes}")
        self.name = name
        self._rows: List[Row] = []
        arity = len(self._attributes)
        for row in rows:
            value_tuple = tuple(row)
            if len(value_tuple) != arity:
                raise ValueError(
                    f"row {value_tuple!r} has arity {len(value_tuple)}, "
                    f"expected {arity} for schema {self._attributes}"
                )
            self._rows.append(value_tuple)
        self._index_cache: Dict[Tuple[str, ...], Tuple[int, ...]] = {}
        self._frequency_cache: Dict[Tuple[str, ...], Counter] = {}
        self._encoding: Optional[object] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> Tuple[str, ...]:
        """Ordered schema of the relation."""
        return self._attributes

    @property
    def num_attributes(self) -> int:
        return len(self._attributes)

    @property
    def num_rows(self) -> int:
        """Total number of tuples ``|R|`` (counting multiplicity)."""
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __iter__(self) -> Iterator[Row]:
        """Iterate over rows, including duplicates."""
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema and same tuple multiplicities."""
        if not isinstance(other, Relation):
            return NotImplemented
        return self._attributes == other._attributes and Counter(self._rows) == Counter(
            other._rows
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        label = self.name or "Relation"
        return f"<{label}: {self.num_rows} rows x {self.num_attributes} attributes>"

    def rows(self) -> List[Row]:
        """A copy of the underlying row list."""
        return list(self._rows)

    def column(self, attribute: str) -> List[object]:
        """All values (with multiplicity) of a single attribute."""
        index = self._attribute_index(attribute)
        return [row[index] for row in self._rows]

    # ------------------------------------------------------------------
    # Cache invalidation
    # ------------------------------------------------------------------
    def invalidate_caches(self) -> None:
        """Drop every derived cache: frequencies, attribute indices, the encoding.

        The public API never mutates a relation, so the caches are
        normally valid for the relation's lifetime.  Anything that *does*
        change the row store in place — external code reaching into
        ``_rows``, or future mutable wrappers — must call this before the
        next read, or cached frequencies and the cached encoding keep
        answering for the old rows (``repro.stream`` sidesteps the
        problem entirely: :class:`~repro.stream.dynamic.DynamicRelation`
        copies the rows it wraps and re-snapshots instead of mutating).
        """
        self._index_cache.clear()
        self._frequency_cache.clear()
        self._encoding = None

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def columnar(self):
        """The relation's one dictionary encoding, a cached ``ChunkedRelation``.

        :meth:`ChunkedRelation.from_relation
        <repro.relation.chunked.ChunkedRelation.from_relation>` builds it
        on first request and it is kept for the relation's lifetime, so
        the encoding cost is paid once and amortised over every candidate
        FD scored on the relation (the cost discipline of the paper's
        runtime experiment).  Every statistics pass and key check on the
        relation reads its chunks: ``int32`` numpy arrays, or
        ``array.array("i")`` without numpy.
        """
        if self._encoding is None:
            from repro.relation.chunked import ChunkedRelation

            self._encoding = ChunkedRelation.from_relation(self)
        return self._encoding

    # ------------------------------------------------------------------
    # Frequencies and active domains
    # ------------------------------------------------------------------
    def frequencies(self, attributes: Optional[Iterable[str] | str] = None) -> Counter:
        """Multiplicity of each distinct tuple of ``attributes``.

        With ``attributes=None`` the multiplicities of full tuples over the
        whole schema are returned, i.e. the map ``w -> R(w)``.
        """
        key = (
            self._attributes
            if attributes is None
            else validate_attributes(
                canonical_attributes(attributes), self._attributes, "projection"
            )
        )
        cached = self._frequency_cache.get(key)
        if cached is not None:
            return Counter(cached)
        indices = self._attribute_indices(key)
        counter: Counter = Counter(tuple(row[i] for i in indices) for row in self._rows)
        self._frequency_cache[key] = Counter(counter)
        return counter

    def distinct_count(self, attributes: Iterable[str] | str) -> int:
        """``|dom_R(attributes)|``."""
        return len(self.frequencies(attributes))

    # ------------------------------------------------------------------
    # Relational operations (bag semantics)
    # ------------------------------------------------------------------
    def drop_nulls(self, attributes: Optional[Iterable[str] | str] = None) -> "Relation":
        """Subrelation of tuples with no NULL on any of ``attributes``.

        This implements the NULL semantics of Section VI-A of the paper.
        With ``attributes=None`` all attributes are required non-NULL.
        """
        key = (
            self._attributes
            if attributes is None
            else validate_attributes(
                canonical_attributes(attributes), self._attributes, "drop_nulls"
            )
        )
        indices = self._attribute_indices(key)
        rows = [
            row for row in self._rows if not has_null(tuple(row[i] for i in indices))
        ]
        return Relation(self._attributes, rows, name=self.name)

    def with_rows(self, rows: Iterable[Sequence[object]], name: Optional[str] = None) -> "Relation":
        """A new relation over the same schema with different rows."""
        return Relation(self._attributes, rows, name=self.name if name is None else name)

    # ------------------------------------------------------------------
    # Functional dependencies
    # ------------------------------------------------------------------
    def satisfies(self, fd: FunctionalDependency, ignore_nulls: bool = True) -> bool:
        """Check whether the relation satisfies ``fd``.

        With ``ignore_nulls=True`` (the paper's convention) tuples with a
        NULL in ``lhs ∪ rhs`` are ignored.
        """
        validate_attributes(fd.lhs, self._attributes, "FD LHS")
        validate_attributes(fd.rhs, self._attributes, "FD RHS")
        relation = self.drop_nulls(fd.attributes) if ignore_nulls else self
        lhs_indices = relation._attribute_indices(fd.lhs)
        rhs_indices = relation._attribute_indices(fd.rhs)
        seen: Dict[Row, Row] = {}
        for row in relation._rows:
            lhs_value = tuple(row[i] for i in lhs_indices)
            rhs_value = tuple(row[i] for i in rhs_indices)
            previous = seen.get(lhs_value)
            if previous is None:
                seen[lhs_value] = rhs_value
            elif previous != rhs_value:
                return False
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _attribute_index(self, attribute: str) -> int:
        try:
            return self._attributes.index(attribute)
        except ValueError:
            raise KeyError(
                f"unknown attribute {attribute!r}; available: {list(self._attributes)}"
            ) from None

    def _attribute_indices(self, attributes: Sequence[str]) -> Tuple[int, ...]:
        cached = self._index_cache.get(tuple(attributes))
        if cached is not None:
            return cached
        indices = tuple(self._attribute_index(attribute) for attribute in attributes)
        self._index_cache[tuple(attributes)] = indices
        return indices
