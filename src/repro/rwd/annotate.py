"""Annotation support: ranking linear FD candidates for manual inspection.

The paper's RWD ground truth was produced by manually annotating a design
schema per relation.  This module reproduces the tooling side of that
process: enumerate every linear candidate ``A -> B``, attach its ``g3``
score and the exact-satisfaction flag (both read from the candidate's
:class:`FdStatistics`, so ``g3`` is the number ``/score`` reports), and
order the list so a human annotator reviews the most FD-like candidates
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.core.registry import get_measure
from repro.core.statistics import FdStatistics
from repro.relation.fd import FunctionalDependency
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
    already part of the annotated design schema.  Every candidate costs
    one statistics pass on the NULL-restricted rows (Section VI-A).
    """
    if isinstance(source, RwdRelation):
        relation = source.relation
        schema_fds = set(source.design_schema.fds)
    else:
        relation = source
        schema_fds = None
    g3 = get_measure("g3")
    candidates: List[InspectionCandidate] = []
    for lhs in relation.attributes:
        for rhs in relation.attributes:
            if lhs == rhs:
                continue
            fd = FunctionalDependency(lhs, rhs)
            statistics = FdStatistics.compute(relation, fd)
            satisfied = statistics.satisfied or statistics.is_empty
            if satisfied and not include_satisfied:
                continue
            candidates.append(
                InspectionCandidate(
                    fd=fd,
                    g3_score=g3.score_from_statistics(statistics),
                    satisfied=satisfied,
                    in_design_schema=None if schema_fds is None else fd in schema_fds,
                )
            )
    candidates.sort(key=lambda candidate: (-candidate.g3_score, str(candidate.fd)))
    if max_candidates is not None:
        candidates = candidates[:max_candidates]
    return candidates
