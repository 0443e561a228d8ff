"""Measure-based AFD discovery: result model and the unified facade.

:func:`discover_afds` is the single entry point for measure-based AFD
search.  With the default ``max_lhs_size=1`` it performs the exhaustive
linear-candidate search ``A -> B`` of the paper's Section VII discussion;
with ``max_lhs_size > 1`` it extends the search to multi-attribute LHS
candidates.  Every configuration and every source (a
:class:`~repro.relation.relation.Relation`, a
:class:`~repro.relation.chunked.ChunkedRelation` or a dynamic snapshot)
runs the one level-wise engine of :mod:`repro.discovery.lattice`: one
:class:`FdStatistics` per candidate that is not already known to be
exact, shared across all measures (the same discipline as the evaluation
harness), with exact supersets and keys scored 1.0 without a pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.core.base import AfdMeasure
from repro.relation.fd import FunctionalDependency

Thresholds = Union[float, Mapping[str, float]]


@dataclass
class CandidateScore:
    """One candidate FD with its scores under all measures."""

    fd: FunctionalDependency
    scores: Dict[str, float]
    exact: bool

    def accepted_by(self, measure: str, threshold: float) -> bool:
        return self.scores[measure] >= threshold


@dataclass
class DiscoveryResult:
    """All scored candidates of one relation plus the acceptance view.

    The pruning counters report how much work the lattice traversal
    avoided: ``pruned_exact`` candidates contained a known exact LHS,
    ``pruned_key`` candidates had a key LHS, and ``statistics_computed``
    counts the :meth:`FdStatistics.compute` passes actually performed
    (brute force needs one per candidate).
    """

    relation_name: str
    measure_names: List[str]
    thresholds: Dict[str, float]
    candidates: List[CandidateScore] = field(default_factory=list)
    pruned_exact: int = 0
    pruned_key: int = 0
    statistics_computed: int = 0
    max_lhs_size: int = 1
    #: Candidates removed by :func:`repro.discovery.cover.minimal_cover`
    #: (0 until a minimal-cover reduction has been applied).
    dropped_non_minimal: int = 0

    def accepted(self, measure: str) -> List[CandidateScore]:
        """Candidates meeting the measure's threshold, best score first."""
        threshold = self.thresholds[measure]
        hits = [c for c in self.candidates if c.accepted_by(measure, threshold)]
        return sorted(hits, key=lambda c: -c.scores[measure])

    def accepted_fds(self, measure: str) -> List[FunctionalDependency]:
        return [candidate.fd for candidate in self.accepted(measure)]

    def exact_fds(self) -> List[FunctionalDependency]:
        return [candidate.fd for candidate in self.candidates if candidate.exact]

    def counters(self) -> Dict[str, int]:
        """The pruning/work counters as one report-friendly mapping."""
        return {
            "candidates": len(self.candidates),
            "pruned_exact": self.pruned_exact,
            "pruned_key": self.pruned_key,
            "statistics_computed": self.statistics_computed,
            "dropped_non_minimal": self.dropped_non_minimal,
        }

    def __len__(self) -> int:
        return len(self.candidates)


def _resolve_thresholds(
    threshold: Thresholds, measure_names: Sequence[str]
) -> Dict[str, float]:
    if isinstance(threshold, Mapping):
        missing = [name for name in measure_names if name not in threshold]
        if missing:
            raise KeyError(f"no threshold given for measures {missing}")
        return {name: float(threshold[name]) for name in measure_names}
    return {name: float(threshold) for name in measure_names}


def discover_afds(
    relation,
    measures: Optional[Mapping[str, AfdMeasure]] = None,
    threshold: Thresholds = 0.9,
    lhs_attributes: Optional[Sequence[str]] = None,
    rhs_attributes: Optional[Sequence[str]] = None,
    max_lhs_size: int = 1,
) -> DiscoveryResult:
    """Score all candidates ``X -> A`` of ``relation`` with ``|X| <= max_lhs_size``.

    ``relation`` is a :class:`Relation` or a
    :class:`~repro.relation.chunked.ChunkedRelation`; a chunked store is
    never materialised, and every chunking of the same rows gives ``==``
    results.  ``threshold`` is either one global acceptance level or a
    per-measure mapping.  ``lhs_attributes`` / ``rhs_attributes`` restrict
    the candidate grid (defaults: every attribute on both sides; naming an
    attribute twice is a ``ValueError``); multi-attribute LHS nodes are
    built from ``lhs_attributes`` only.

    Scores are bit-identical to brute-force :meth:`FdStatistics.compute`
    scoring of the same candidates for every ``max_lhs_size``.
    """
    from repro.discovery.lattice import lattice_discover

    return lattice_discover(
        relation,
        measures=measures,
        threshold=threshold,
        max_lhs_size=max_lhs_size,
        lhs_attributes=lhs_attributes,
        rhs_attributes=rhs_attributes,
    )
