"""Annotation support: ranking linear FD candidates for manual inspection.

The paper's RWD ground truth was produced by manually annotating a design
schema per relation.  This module reproduces the tooling side of that
process: enumerate every linear candidate ``A -> B``, attach a cheap
``g3`` score (computed from stripped partitions, no full statistics pass)
and the exact-satisfaction flag, and order the list so a human annotator
reviews the most FD-like candidates first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.core.statistics import FdStatistics
from repro.relation.fd import FunctionalDependency
from repro.relation.nulls import is_null
from repro.relation.partition import StrippedPartition
from repro.relation.relation import Relation
from repro.rwd.schema import RwdRelation


@dataclass(frozen=True)
class InspectionCandidate:
    """One linear candidate with the evidence shown to the annotator."""

    fd: FunctionalDependency
    g3_score: float
    satisfied: bool
    in_design_schema: Optional[bool] = None


def enumerate_inspection_candidates(
    source: Union[Relation, RwdRelation],
    max_candidates: Optional[int] = None,
    include_satisfied: bool = True,
) -> List[InspectionCandidate]:
    """All linear candidates of ``source``, most FD-like first.

    Accepts a plain :class:`Relation` or an :class:`RwdRelation`; in the
    latter case each candidate is additionally flagged with whether it is
    already part of the annotated design schema.  ``g3`` is computed via
    partition algebra (one stripped partition per attribute plus one
    product per pair), the same shortcut TANE-style discovery uses.
    """
    if isinstance(source, RwdRelation):
        relation = source.relation
        schema_fds = set(source.design_schema.fds)
    else:
        relation = source
        schema_fds = None
    partitions: Dict[str, StrippedPartition] = {
        attribute: StrippedPartition.from_relation(relation, attribute)
        for attribute in relation.attributes
    }
    has_nulls = {
        attribute: any(is_null(value) for value in relation.column(attribute))
        for attribute in relation.attributes
    }
    candidates: List[InspectionCandidate] = []
    for lhs in relation.attributes:
        for rhs in relation.attributes:
            if lhs == rhs:
                continue
            fd = FunctionalDependency(lhs, rhs)
            if has_nulls[lhs] or has_nulls[rhs]:
                # Partitions treat NULL as an ordinary value; the paper's
                # semantics (Section VI-A) drop NULL tuples, so fall back
                # to the statistics path every measure uses.
                statistics = FdStatistics.compute(relation, fd)
                satisfied = statistics.is_empty or statistics.satisfied
                g3_error = (
                    0.0
                    if satisfied
                    else 1.0 - statistics.max_subrelation / statistics.num_rows
                )
            else:
                joint = partitions[lhs].intersect(partitions[rhs])
                g3_error = partitions[lhs].g3_error(joint)
                satisfied = g3_error == 0.0
            if satisfied and not include_satisfied:
                continue
            candidates.append(
                InspectionCandidate(
                    fd=fd,
                    g3_score=1.0 - g3_error,
                    satisfied=satisfied,
                    in_design_schema=None if schema_fds is None else fd in schema_fds,
                )
            )
    candidates.sort(key=lambda candidate: (-candidate.g3_score, str(candidate.fd)))
    if max_candidates is not None:
        candidates = candidates[:max_candidates]
    return candidates
