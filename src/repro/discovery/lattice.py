"""TANE-style level-wise discovery of multi-attribute AFDs.

The candidate space of non-linear AFDs ``X -> A`` (multi-attribute LHS,
single-attribute RHS) forms a lattice over LHS attribute sets.  This
module traverses it breadth-first up to a configurable ``max_lhs_size``:
level-``k`` nodes are generated from surviving level-``(k-1)`` nodes by
the classical prefix join, and their stripped partitions are built as
cached :meth:`StrippedPartition.intersect` products of two parent
partitions — a level-``k`` partition never rescans the relation.

Three pruning rules skip the expensive part (one :class:`FdStatistics`
pass plus scoring every registered measure) whenever the outcome is
already known:

* **exact-FD refinement** — ``π_X`` refining ``π_A`` proves ``X -> A``
  holds exactly; the candidate and every superset-LHS candidate for the
  same RHS are scored 1.0 by convention (the score every measure assigns
  to satisfied FDs) without computing statistics (``pruned_exact``);
* **key pruning** — ``π_X.error() == 0`` makes ``X`` a key, so ``X -> A``
  holds for every ``A`` and every superset of ``X`` is again a key; the
  node's candidates are scored 1.0 and the node is removed from lattice
  expansion (``pruned_key``);
* **g3 bound** (optional) — with ``g3_bound`` set, the exact partition
  ``g3`` score ``1 - π_X.g3_error(π_XA)`` is computed first and the
  candidate is dropped entirely when it falls below the bound
  (``pruned_bound``).  The ``g3`` error is monotonically non-increasing
  along the LHS lattice, so a bound-pruned node's supersets may still
  qualify and expansion is unaffected.

Partition-based shortcuts treat NULL as an ordinary value while the
paper's semantics (Section VI-A) drop NULL tuples, so the refinement and
g3-bound rules only apply to NULL-free candidates; the rest fall through
to the statistics path.  Key pruning and exactness propagation to
superset LHSs remain sound under NULLs: dropping tuples and enlarging
the LHS both preserve FD satisfaction.

A :class:`PartitionCache` can outlive one traversal: an
:class:`~repro.service.AfdSession` keeps one per relation snapshot, so a
dynamic relation's partitions are rebuilt from its latest snapshot on
the next discovery rather than maintained row by row.  Cache lookups
are counted by the ``partitions_total{result}`` metric.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.backends import resolve_backend
from repro.core.base import AfdMeasure
from repro.core.registry import all_measures
from repro.core.statistics import FdStatistics
from repro.obs.metrics import get_registry
from repro.relation.attribute import canonical_attributes
from repro.relation.fd import FunctionalDependency
from repro.relation.nulls import is_null
from repro.relation.partition import StrippedPartition
from repro.relation.relation import Relation

from repro.discovery.single import (
    CandidateScore,
    DiscoveryResult,
    Thresholds,
    _resolve_thresholds,
)


class PartitionCache:
    """Stripped partitions keyed by canonical attribute set.

    Singleton partitions are computed from the relation; larger sets are
    partition products of cached parents.  The level-wise traversal
    guarantees that both size-``(k-1)`` parents of a level-``k`` node are
    already cached, so products combine two maximally refined partitions
    (whose cached probe tables are reused across all the products they
    participate in) instead of rebuilding from column scans.  Lookups
    are counted by the ``partitions_total{result}`` metric.
    """

    def __init__(self, relation: Relation):
        self._relation = relation
        self._partitions: Dict[Tuple[str, ...], StrippedPartition] = {}
        self._null_flags: Dict[str, bool] = {}

    @property
    def relation(self) -> Relation:
        """The relation this cache's partitions were built from."""
        return self._relation

    def has_nulls(self, attribute: str) -> bool:
        cached = self._null_flags.get(attribute)
        if cached is None:
            cached = any(is_null(value) for value in self._relation.column(attribute))
            self._null_flags[attribute] = cached
        return cached

    def any_nulls(self, attributes: Sequence[str]) -> bool:
        return any(self.has_nulls(attribute) for attribute in attributes)

    def partition(self, attributes: Union[Sequence[str], str]) -> StrippedPartition:
        key = canonical_attributes(attributes)
        cached = self._partitions.get(key)
        if cached is not None:
            get_registry().inc("partitions_total", result="hit")
            return cached
        get_registry().inc("partitions_total", result="miss")
        if len(key) == 1:
            computed = StrippedPartition.from_relation(self._relation, key)
        else:
            parents: List[Tuple[StrippedPartition, int]] = []
            for index in range(len(key)):
                subset = key[:index] + key[index + 1 :]
                parent = self._partitions.get(subset)
                if parent is not None:
                    parents.append((parent, index))
                    if len(parents) == 2:
                        break
            if len(parents) == 2:
                computed = parents[0][0].intersect(parents[1][0])
            elif len(parents) == 1:
                parent, missing = parents[0]
                computed = parent.intersect(self.partition((key[missing],)))
            else:
                computed = self.partition(key[:-1]).intersect(self.partition((key[-1],)))
        self._partitions[key] = computed
        return computed

    def __len__(self) -> int:
        return len(self._partitions)


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


def lattice_discover(
    relation: Relation,
    measures: Optional[Mapping[str, AfdMeasure]] = None,
    threshold: Thresholds = 0.9,
    max_lhs_size: int = 2,
    lhs_attributes: Optional[Sequence[str]] = None,
    rhs_attributes: Optional[Sequence[str]] = None,
    g3_bound: Optional[float] = None,
    backend: Optional[str] = None,
    partition_cache: Optional[PartitionCache] = None,
    statistics_provider=None,
) -> DiscoveryResult:
    """Score every lattice candidate ``X -> A`` with ``|X| <= max_lhs_size``.

    Every candidate that reaches the statistics path is scored by every
    measure on one shared :class:`FdStatistics` object, exactly as the
    brute-force path would — pruned candidates are the ones whose scores
    are provably 1.0 (or, with ``g3_bound``, provably uninteresting), so
    reported scores are bit-identical to brute-force scoring.

    ``DiscoveryResult.statistics_computed`` counts the statistics passes
    actually performed; brute force would need one per candidate.

    ``partition_cache`` / ``statistics_provider`` are the artifact-sharing
    hooks of :class:`repro.service.AfdSession`: a supplied cache (built on
    the *same* relation) contributes and retains partitions across calls,
    and a provider ``(relation, fd) -> (FdStatistics, computed)`` replaces
    the direct :meth:`FdStatistics.compute` call so the session can serve
    and keep statistics — ``computed`` is False when the provider served a
    cache hit, keeping ``statistics_computed`` an honest count of the
    passes actually performed.  Both hooks must be bit-identical to the
    defaults: the provider's statistics must be exactly what ``compute``
    would return.
    """
    if max_lhs_size < 1:
        raise ValueError(f"max_lhs_size must be >= 1, got {max_lhs_size}")
    if g3_bound is not None and not 0.0 <= g3_bound <= 1.0:
        raise ValueError(f"g3_bound must be in [0, 1], got {g3_bound}")
    measures = measures if measures is not None else all_measures()
    measure_names = list(measures)
    thresholds = _resolve_thresholds(threshold, measure_names)
    lhs_pool = list(lhs_attributes) if lhs_attributes is not None else list(relation.attributes)
    rhs_pool = list(rhs_attributes) if rhs_attributes is not None else list(relation.attributes)
    backend_name = resolve_backend(backend).name
    if backend_name == "numpy":
        # Build the columnar view up front: the statistics backend needs
        # it anyway, and once it exists the partition layer derives every
        # level-1 partition from the cached code arrays too.
        relation.columnar()
    if partition_cache is not None and partition_cache.relation is not relation:
        raise ValueError(
            "the supplied partition_cache was built on a different relation"
        )
    cache = partition_cache if partition_cache is not None else PartitionCache(relation)
    result = DiscoveryResult(
        relation_name=relation.name,
        measure_names=measure_names,
        thresholds=thresholds,
        max_lhs_size=max_lhs_size,
    )
    # Minimal exact LHS sets seen so far, per RHS attribute: any candidate
    # whose LHS contains one of them is exact by Armstrong augmentation.
    exact_lhs_by_rhs: Dict[str, List[FrozenSet[str]]] = {rhs: [] for rhs in rhs_pool}
    level: List[Tuple[str, ...]] = [(attribute,) for attribute in lhs_pool]
    for depth in range(1, max_lhs_size + 1):
        survivors: List[Tuple[str, ...]] = []
        for lhs in level:
            lhs_partition = cache.partition(lhs)
            lhs_set = frozenset(lhs)
            lhs_is_key = lhs_partition.is_key()
            for rhs in rhs_pool:
                if rhs in lhs_set:
                    continue
                fd = FunctionalDependency(lhs, rhs)
                if any(exact <= lhs_set for exact in exact_lhs_by_rhs[rhs]):
                    result.pruned_exact += 1
                    scores = {name: 1.0 for name in measure_names}
                    result.candidates.append(CandidateScore(fd, scores, exact=True))
                    continue
                if lhs_is_key:
                    result.pruned_key += 1
                    scores = {name: 1.0 for name in measure_names}
                    result.candidates.append(CandidateScore(fd, scores, exact=True))
                    continue
                if not cache.any_nulls(fd.attributes):
                    if lhs_partition.refines(cache.partition((rhs,))):
                        exact_lhs_by_rhs[rhs].append(lhs_set)
                        result.pruned_exact += 1
                        scores = {name: 1.0 for name in measure_names}
                        result.candidates.append(CandidateScore(fd, scores, exact=True))
                        continue
                    if g3_bound is not None:
                        joint = cache.partition(lhs + (rhs,))
                        if 1.0 - lhs_partition.g3_error(joint) < g3_bound:
                            result.pruned_bound += 1
                            continue
                if statistics_provider is None:
                    statistics = FdStatistics.compute(relation, fd, backend=backend_name)
                    result.statistics_computed += 1
                else:
                    statistics, computed = statistics_provider(relation, fd)
                    if computed:
                        result.statistics_computed += 1
                scores = {
                    name: measure.score_from_statistics(statistics)
                    for name, measure in measures.items()
                }
                exact = statistics.satisfied or statistics.is_empty
                if exact:
                    exact_lhs_by_rhs[rhs].append(lhs_set)
                result.candidates.append(CandidateScore(fd, scores, exact=exact))
            if not lhs_is_key:
                survivors.append(lhs)
        if depth == max_lhs_size:
            break
        level = _generate_next_level(survivors)
        if not level:
            break
    registry = get_registry()
    registry.inc("discovery_statistics_computed_total", result.statistics_computed)
    for rule, count in (
        ("exact", result.pruned_exact),
        ("key", result.pruned_key),
        ("bound", result.pruned_bound),
    ):
        if count:
            registry.inc("discovery_pruned_total", count, rule=rule)
    return result


def brute_force_afds(
    relation: Relation,
    measures: Optional[Mapping[str, AfdMeasure]] = None,
    threshold: Thresholds = 0.9,
    max_lhs_size: int = 2,
    lhs_attributes: Optional[Sequence[str]] = None,
    rhs_attributes: Optional[Sequence[str]] = None,
    backend: Optional[str] = None,
) -> DiscoveryResult:
    """Reference implementation: one statistics pass per lattice candidate.

    Enumerates the *full* candidate lattice (no pruning, so it is a
    superset of what :func:`lattice_discover` emits when keys cut the
    lattice short) and scores every candidate through
    :meth:`FdStatistics.compute`.  Exists as the cross-validation oracle
    for :func:`lattice_discover` — and as the baseline its
    ``statistics_computed`` counter is compared against.
    """
    if max_lhs_size < 1:
        raise ValueError(f"max_lhs_size must be >= 1, got {max_lhs_size}")
    measures = measures if measures is not None else all_measures()
    measure_names = list(measures)
    thresholds = _resolve_thresholds(threshold, measure_names)
    lhs_pool = list(lhs_attributes) if lhs_attributes is not None else list(relation.attributes)
    rhs_pool = list(rhs_attributes) if rhs_attributes is not None else list(relation.attributes)
    result = DiscoveryResult(
        relation_name=relation.name,
        measure_names=measure_names,
        thresholds=thresholds,
        max_lhs_size=max_lhs_size,
    )
    level: List[Tuple[str, ...]] = [(attribute,) for attribute in lhs_pool]
    for depth in range(1, max_lhs_size + 1):
        for lhs in level:
            lhs_set = frozenset(lhs)
            for rhs in rhs_pool:
                if rhs in lhs_set:
                    continue
                fd = FunctionalDependency(lhs, rhs)
                statistics = FdStatistics.compute(relation, fd, backend=backend)
                result.statistics_computed += 1
                scores = {
                    name: measure.score_from_statistics(statistics)
                    for name, measure in measures.items()
                }
                exact = statistics.satisfied or statistics.is_empty
                result.candidates.append(CandidateScore(fd, scores, exact=exact))
        if depth == max_lhs_size:
            break
        level = _generate_next_level(level)
    return result
