"""Partition-free AFD discovery over chunked statistics.

The lattice engine of :mod:`repro.discovery.lattice` leans on
:class:`~repro.relation.partition.StrippedPartition` for its pruning —
which requires materialised row indices and therefore an in-memory
:class:`Relation`.  At the scale the chunked layer exists for (millions
of rows, no row list) that is exactly what must not happen, so
:func:`chunked_discover` runs the **single-LHS** candidate screen from
chunked statistics alone: one :meth:`FdStatistics.compute` pass per
candidate ``A -> B``, every measure scored from that one shared
:class:`FdStatistics`, no partitions, no row list, peak memory bounded
by the chunk size and the merged distinct counts.

Parity is a hard contract, not an approximation: for ``max_lhs_size=1``
the scores, exactness flags and candidate order are identical (``==``)
to :func:`~repro.discovery.lattice.lattice_discover` /
:func:`~repro.discovery.lattice.brute_force_afds` on the materialised
relation, because statistics are bit-identical across chunkings and
the lattice's partition prunes only replace scores that are exactly 1.0
by the repo's satisfied-FD convention.  The two deliberate
non-features:

* ``max_lhs_size > 1`` is rejected — multi-attribute LHS traversal
  needs the partition lattice; materialise explicitly
  (``.to_relation()``) for small data, or widen the screen's RHS/LHS
  pools instead;
* ``g3_bound`` is rejected — the bound is computed from partitions,
  whose NULL semantics (NULL as ordinary value) differ from the
  statistics path (NULL rows dropped), so a chunked emulation could
  silently prune different candidates.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.core.base import AfdMeasure
from repro.core.registry import all_measures
from repro.core.statistics import FdStatistics
from repro.discovery.single import (
    CandidateScore,
    DiscoveryResult,
    Thresholds,
    _resolve_thresholds,
)
from repro.relation.fd import FunctionalDependency


def chunked_discover(
    source,
    measures: Optional[Mapping[str, AfdMeasure]] = None,
    threshold: Thresholds = 0.9,
    lhs_attributes: Optional[Sequence[str]] = None,
    rhs_attributes: Optional[Sequence[str]] = None,
    max_lhs_size: int = 1,
    g3_bound: Optional[float] = None,
    backend: Optional[str] = None,
    statistics_provider=None,
) -> DiscoveryResult:
    """Score every single-LHS candidate ``A -> B`` from chunked statistics.

    ``source`` is a :class:`~repro.relation.chunked.ChunkedRelation`
    (the intended caller) or a :class:`Relation` (chunked on the fly).
    Candidates are enumerated in the lattice's level-1 order — LHS pool
    outer, RHS pool inner, ``rhs == lhs`` skipped — and every candidate
    is scored by every measure on one shared statistics object;
    ``exact`` is the statistics-level check (``satisfied or is_empty``),
    identical to the lattice's statistics path.

    ``backend`` forwards to :meth:`FdStatistics.compute`.
    ``statistics_provider`` is the session's artifact-sharing hook,
    ``(source, fd) -> (FdStatistics, computed)``, replacing the direct
    compute; ``max_lhs_size`` must be 1 and ``g3_bound`` must be
    ``None`` (see the module docstring for why both are rejected rather
    than emulated).
    """
    if max_lhs_size != 1:
        raise ValueError(
            "chunked discovery is a single-LHS screen (partition-free); "
            f"max_lhs_size must be 1, got {max_lhs_size} — materialise "
            "the relation (.to_relation()) to search multi-attribute LHS"
        )
    if g3_bound is not None:
        raise ValueError(
            "g3_bound needs partition semantics (NULL as ordinary value) "
            "that chunked statistics deliberately do not reproduce; "
            "filter on the scored g3 column instead"
        )
    measures = measures if measures is not None else all_measures()
    measure_names = list(measures)
    thresholds = _resolve_thresholds(threshold, measure_names)
    attributes = list(source.attributes)
    lhs_pool = list(lhs_attributes) if lhs_attributes is not None else attributes
    rhs_pool = list(rhs_attributes) if rhs_attributes is not None else attributes
    for attribute in dict.fromkeys(lhs_pool + rhs_pool):
        if attribute not in source.attributes:
            raise KeyError(
                f"unknown attribute {attribute!r}; available: {attributes}"
            )
    result = DiscoveryResult(
        relation_name=getattr(source, "name", ""),
        measure_names=measure_names,
        thresholds=thresholds,
        max_lhs_size=1,
    )
    for lhs in lhs_pool:
        for rhs in rhs_pool:
            if rhs == lhs:
                continue
            fd = FunctionalDependency(lhs, rhs)
            if statistics_provider is None:
                statistics = FdStatistics.compute(source, fd, backend=backend)
                result.statistics_computed += 1
            else:
                statistics, computed = statistics_provider(source, fd)
                if computed:
                    result.statistics_computed += 1
            scores = {
                name: measure.score_from_statistics(statistics)
                for name, measure in measures.items()
            }
            exact = statistics.satisfied or statistics.is_empty
            result.candidates.append(CandidateScore(fd, scores, exact=exact))
    return result
