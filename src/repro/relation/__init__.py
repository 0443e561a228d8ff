"""Bag-based relation substrate.

This subpackage implements the relational machinery the paper relies on:
bag-based relations (Section III of the paper), attribute handling,
functional dependencies and their satisfaction, bag projection and
selection, NULL handling (Section VI-A), dictionary-encoded chunked
storage (the one encoding of every relation: :meth:`Relation.columnar`
caches a :class:`ChunkedRelation` of its rows), and CSV input/output.
"""

from repro.relation.attribute import canonical_attributes, validate_attributes
from repro.relation.chunked import ChunkedRelation, CodeChunk
from repro.relation.fd import FunctionalDependency
from repro.relation.nulls import NULL, is_null
from repro.relation.relation import Relation

__all__ = [
    "ChunkedRelation",
    "CodeChunk",
    "FunctionalDependency",
    "NULL",
    "Relation",
    "canonical_attributes",
    "is_null",
    "validate_attributes",
]
