"""Level-wise discovery of AFDs ``X -> A`` over any statistics source.

:func:`discover_afds` is the one entry point for measure-based AFD
search.  With the default ``max_lhs_size=1`` it performs the exhaustive
linear-candidate search ``A -> B`` of the paper's Section VII
discussion; larger values extend it to multi-attribute LHS candidates.

The candidate space of AFDs ``X -> A`` (LHS attribute set ``X``, one
RHS attribute ``A``) forms a lattice over LHS attribute sets.  This
module traverses it breadth-first up to ``max_lhs_size``: level-``k``
nodes are generated from surviving level-``(k-1)`` nodes by TANE's prefix
join (Huhtala et al., The Computer Journal 42(2), 1999), and every
candidate is answered from the same :class:`FdStatistics` the measures
read.  The source is a :class:`~repro.relation.relation.Relation`, a
:class:`~repro.relation.chunked.ChunkedRelation` or a dynamic
snapshot; nothing else is built from it.  The result is the service
model's :class:`~repro.service.model.DiscoveryResult`: one
:class:`~repro.service.model.ScoredFd` per candidate plus the work
counters.

Every measure scores a satisfied FD 1.0 (Section IV of the paper), so two
rules skip the expensive part (one statistics pass plus scoring every
measure) whenever the outcome is already known:

* **exact supersets** — once ``X -> A`` is satisfied on its
  NULL-restricted rows (or none are left), every candidate whose LHS
  contains ``X`` is too (Armstrong augmentation; enlarging the LHS only
  drops more rows).  Those candidates are exact and score 1.0 without
  statistics (``pruned_exact``);
* **keys** — when no two rows agree on ``X`` (NULL counted as a value,
  :func:`repro.core.chunked.is_key`), ``X -> A`` holds for every ``A``
  and every superset of ``X`` is a key again.  The node's candidates are
  exact and score 1.0 (``pruned_key``), and the node leaves the lattice.

Every other candidate costs one statistics pass (``statistics_computed``)
and joins the exact LHSs of ``A`` when the statistics say it is
``satisfied or is_empty``.  Scores are therefore bit-identical to
:func:`brute_force_afds`, which computes statistics for every candidate.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.base import AfdMeasure
from repro.core.chunked import is_key
from repro.core.registry import all_measures
from repro.core.statistics import FdStatistics
from repro.obs.metrics import get_registry
from repro.relation.fd import FunctionalDependency
from repro.relation.relation import Relation
from repro.service.model import DiscoveryResult, ScoredFd

Thresholds = Union[float, Mapping[str, float]]

#: The keys of :attr:`DiscoveryResult.counters`, in report order.
_COUNTERS = (
    "candidates",
    "pruned_exact",
    "pruned_key",
    "statistics_computed",
    "dropped_non_minimal",
)


def _resolve_thresholds(
    threshold: Thresholds, measure_names: Sequence[str]
) -> Dict[str, float]:
    if isinstance(threshold, Mapping):
        missing = [name for name in measure_names if name not in threshold]
        if missing:
            raise KeyError(f"no threshold given for measures {missing}")
        return {name: float(threshold[name]) for name in measure_names}
    return {name: float(threshold) for name in measure_names}


def _generate_next_level(survivors: List[Tuple[str, ...]]) -> List[Tuple[str, ...]]:
    """Prefix-join candidate generation (TANE's ``GENERATE_NEXT_LEVEL``).

    Two surviving size-``k`` nodes sharing their first ``k - 1``
    attributes join into a size-``(k+1)`` node; the node is kept only if
    *all* of its size-``k`` subsets survived, so descendants of pruned
    (key) nodes are never generated.
    """
    survivor_set = set(survivors)
    by_prefix: Dict[Tuple[str, ...], List[str]] = {}
    for node in survivors:
        by_prefix.setdefault(node[:-1], []).append(node[-1])
    next_level: List[Tuple[str, ...]] = []
    for prefix, tails in by_prefix.items():
        for i in range(len(tails)):
            for j in range(i + 1, len(tails)):
                joined = prefix + (tails[i], tails[j])
                subsets_survive = all(
                    joined[:drop] + joined[drop + 1 :] in survivor_set
                    for drop in range(len(joined))
                )
                if subsets_survive:
                    next_level.append(joined)
    return next_level


def _attribute_pool(
    source, attributes: Optional[Sequence[str]], side: str
) -> List[str]:
    """The LHS or RHS pool: known attributes, each named once."""
    if attributes is None:
        return list(source.attributes)
    pool = list(attributes)
    repeated = [name for name, count in Counter(pool).items() if count > 1]
    if repeated:
        raise ValueError(f"{side}_attributes repeats {repeated}")
    unknown = [name for name in pool if name not in source.attributes]
    if unknown:
        raise KeyError(
            f"unknown attribute {unknown[0]!r}; available: {list(source.attributes)}"
        )
    return pool


def _scored(
    fd: FunctionalDependency, measures: Mapping[str, AfdMeasure], statistics: FdStatistics
) -> ScoredFd:
    """``fd`` scored by every measure on one shared statistics object."""
    scores = {
        name: measure.score_from_statistics(statistics)
        for name, measure in measures.items()
    }
    return ScoredFd(fd.lhs, fd.rhs, scores, statistics.satisfied or statistics.is_empty)


def discover_afds(
    source,
    measures: Optional[Mapping[str, AfdMeasure]] = None,
    threshold: Thresholds = 0.9,
    lhs_attributes: Optional[Sequence[str]] = None,
    rhs_attributes: Optional[Sequence[str]] = None,
    max_lhs_size: int = 1,
    statistics_provider=None,
) -> DiscoveryResult:
    """Score every lattice candidate ``X -> A`` with ``|X| <= max_lhs_size``.

    ``source`` is a :class:`Relation` or a
    :class:`~repro.relation.chunked.ChunkedRelation`; a chunked store is
    never materialised, and every chunking of the same rows gives ``==``
    results.  ``threshold`` is either one global acceptance level or a
    per-measure mapping.  ``lhs_attributes`` / ``rhs_attributes`` restrict
    the candidate grid (defaults: every attribute on both sides; naming an
    attribute twice is a ``ValueError``); multi-attribute LHS nodes are
    built from ``lhs_attributes`` only.

    Candidates come level by level, LHS nodes in prefix-join order, RHS
    pool inner.  Every candidate that reaches the statistics path is
    scored by every measure on one shared :class:`FdStatistics`; pruned
    candidates are the ones whose scores are provably 1.0.

    ``statistics_provider`` is the artifact-sharing hook of
    :class:`repro.service.AfdSession`: ``(source, fd) -> (FdStatistics,
    computed)`` replaces the direct :meth:`FdStatistics.compute` call, and
    ``computed`` is False when the provider served a cache hit, keeping
    ``statistics_computed`` an honest count of the passes performed.  Its
    statistics must be exactly what ``compute`` would return.
    """
    if max_lhs_size < 1:
        raise ValueError(f"max_lhs_size must be >= 1, got {max_lhs_size}")
    measures = measures if measures is not None else all_measures()
    thresholds = _resolve_thresholds(threshold, list(measures))
    lhs_pool = _attribute_pool(source, lhs_attributes, "lhs")
    rhs_pool = _attribute_pool(source, rhs_attributes, "rhs")
    candidates: List[ScoredFd] = []
    counters = dict.fromkeys(_COUNTERS, 0)
    # Minimal exact LHS sets seen so far, per RHS attribute: any candidate
    # whose LHS contains one of them is exact by Armstrong augmentation.
    exact_lhs_by_rhs: Dict[str, List[FrozenSet[str]]] = {rhs: [] for rhs in rhs_pool}
    level: List[Tuple[str, ...]] = [(attribute,) for attribute in lhs_pool]
    for depth in range(1, max_lhs_size + 1):
        survivors: List[Tuple[str, ...]] = []
        for lhs in level:
            lhs_set = frozenset(lhs)
            lhs_is_key = is_key(source, lhs)
            for rhs in rhs_pool:
                if rhs in lhs_set:
                    continue
                fd = FunctionalDependency(lhs, rhs)
                if any(exact <= lhs_set for exact in exact_lhs_by_rhs[rhs]):
                    counters["pruned_exact"] += 1
                    scores = {name: 1.0 for name in measures}
                    candidates.append(ScoredFd(fd.lhs, fd.rhs, scores, True))
                    continue
                if lhs_is_key:
                    counters["pruned_key"] += 1
                    scores = {name: 1.0 for name in measures}
                    candidates.append(ScoredFd(fd.lhs, fd.rhs, scores, True))
                    continue
                if statistics_provider is None:
                    statistics = FdStatistics.compute(source, fd)
                    counters["statistics_computed"] += 1
                else:
                    statistics, computed = statistics_provider(source, fd)
                    if computed:
                        counters["statistics_computed"] += 1
                scored = _scored(fd, measures, statistics)
                if scored.exact:
                    exact_lhs_by_rhs[rhs].append(lhs_set)
                candidates.append(scored)
            if not lhs_is_key:
                survivors.append(lhs)
        if depth == max_lhs_size:
            break
        level = _generate_next_level(survivors)
        if not level:
            break
    counters["candidates"] = len(candidates)
    registry = get_registry()
    registry.inc("discovery_statistics_computed_total", counters["statistics_computed"])
    for rule, count in (("exact", counters["pruned_exact"]), ("key", counters["pruned_key"])):
        if count:
            registry.inc("discovery_pruned_total", count, rule=rule)
    return DiscoveryResult(
        relation=getattr(source, "name", ""),
        measure_names=list(measures),
        thresholds=thresholds,
        candidates=candidates,
        counters=counters,
        max_lhs_size=max_lhs_size,
    )


def brute_force_afds(
    relation: Relation,
    measures: Optional[Mapping[str, AfdMeasure]] = None,
    threshold: Thresholds = 0.9,
    max_lhs_size: int = 2,
    lhs_attributes: Optional[Sequence[str]] = None,
    rhs_attributes: Optional[Sequence[str]] = None,
) -> DiscoveryResult:
    """Reference implementation: one statistics pass per lattice candidate.

    Enumerates the *full* candidate lattice (no pruning, so it is a
    superset of what :func:`discover_afds` emits when keys cut the
    lattice short) and scores every candidate through
    :meth:`FdStatistics.compute`.  Exists as the cross-validation oracle
    for :func:`discover_afds` — and as the baseline its
    ``statistics_computed`` counter is compared against.
    """
    if max_lhs_size < 1:
        raise ValueError(f"max_lhs_size must be >= 1, got {max_lhs_size}")
    measures = measures if measures is not None else all_measures()
    thresholds = _resolve_thresholds(threshold, list(measures))
    lhs_pool = _attribute_pool(relation, lhs_attributes, "lhs")
    rhs_pool = _attribute_pool(relation, rhs_attributes, "rhs")
    candidates: List[ScoredFd] = []
    level: List[Tuple[str, ...]] = [(attribute,) for attribute in lhs_pool]
    for depth in range(1, max_lhs_size + 1):
        for lhs in level:
            for rhs in rhs_pool:
                if rhs not in lhs:
                    fd = FunctionalDependency(lhs, rhs)
                    candidates.append(_scored(fd, measures, FdStatistics.compute(relation, fd)))
        if depth == max_lhs_size:
            break
        level = _generate_next_level(level)
    counters = dict.fromkeys(_COUNTERS, 0)
    counters["candidates"] = counters["statistics_computed"] = len(candidates)
    return DiscoveryResult(
        relation=relation.name,
        measure_names=list(measures),
        thresholds=thresholds,
        candidates=candidates,
        counters=counters,
        max_lhs_size=max_lhs_size,
    )
