"""Design schemas and annotated benchmark relations.

The *design schema* ``∆(R)`` of a relation is the set of semantically
meaningful FDs a database designer would declare.  On a concrete instance
it splits into the *perfect* design FDs ``PFD(R)`` (satisfied by the
instance) and the *approximate* design FDs ``AFD(R)`` (violated because
of errors) — the latter form the ground truth for AFD discovery
(Section VI-A of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.relation.fd import FunctionalDependency
from repro.relation.relation import Relation


@dataclass(frozen=True)
class DesignSchema:
    """A set of design FDs ``∆(R)``."""

    fds: FrozenSet[FunctionalDependency]

    def __init__(self, fds: Iterable[FunctionalDependency]):
        object.__setattr__(self, "fds", frozenset(fds))

    def __iter__(self):
        return iter(sorted(self.fds))

    def __len__(self) -> int:
        return len(self.fds)

    def __contains__(self, fd: FunctionalDependency) -> bool:
        return fd in self.fds

    def partition(
        self, relation: Relation
    ) -> Tuple[List[FunctionalDependency], List[FunctionalDependency]]:
        """Split into ``(PFD(R), AFD(R))`` by satisfaction on ``relation``."""
        perfect: List[FunctionalDependency] = []
        approximate: List[FunctionalDependency] = []
        for fd in sorted(self.fds):
            if relation.satisfies(fd):
                perfect.append(fd)
            else:
                approximate.append(fd)
        return perfect, approximate

    def union(self, other: "DesignSchema") -> "DesignSchema":
        return DesignSchema(self.fds | other.fds)


@dataclass
class RwdRelation:
    """A benchmark relation with its planted design schema."""

    key: str
    title: str
    relation: Relation
    design_schema: DesignSchema
    description: str = ""
    _pfd_cache: Optional[List[FunctionalDependency]] = field(default=None, repr=False)
    _afd_cache: Optional[List[FunctionalDependency]] = field(default=None, repr=False)

    def _ensure_partition(self) -> None:
        if self._pfd_cache is None or self._afd_cache is None:
            perfect, approximate = self.design_schema.partition(self.relation)
            self._pfd_cache = perfect
            self._afd_cache = approximate

    @property
    def perfect_fds(self) -> List[FunctionalDependency]:
        """``PFD(R)``: design FDs satisfied by the instance."""
        self._ensure_partition()
        return list(self._pfd_cache or [])

    @property
    def approximate_fds(self) -> List[FunctionalDependency]:
        """``AFD(R)``: design FDs violated by the instance (the ground truth)."""
        self._ensure_partition()
        return list(self._afd_cache or [])

    @property
    def num_rows(self) -> int:
        return self.relation.num_rows

    @property
    def num_attributes(self) -> int:
        return self.relation.num_attributes

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<RwdRelation {self.key}: {self.num_rows} rows, "
            f"{self.num_attributes} attrs, {len(self.design_schema)} design FDs>"
        )
