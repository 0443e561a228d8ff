"""Minimal-cover reduction of discovered AFD sets.

The lattice traversal reports *every* candidate ``X -> A`` it scores —
including candidates that carry no information of their own because a
smaller LHS already determines the same RHS **exactly**: once ``Z -> A``
holds exactly, every superset ``X ⊃ Z`` satisfies ``X -> A`` by
Armstrong augmentation, and the traversal indeed emits all of them with
score 1.0 (that is what the ``pruned_exact`` shortcut proves).  For
reporting and for downstream schema work those implied candidates are
noise; the classical remedy is a minimal cover.

:func:`minimal_cover` drops exactly the implied candidates: a candidate
``X -> A`` is removed when some *accepted exact* FD ``Z -> A`` with
``Z ⊊ X`` exists among the result's candidates.  Approximate (non-exact)
candidates are never implied this way — a proper superset of an exact
LHS is itself exact — so the reduction only ever removes provably
redundant 1.0-scored candidates, and the surviving exact FDs are
precisely the minimal-LHS generators of the exact set.  Scores are
untouched; the result is the same
:class:`~repro.service.model.DiscoveryResult` that
:func:`~repro.discovery.discover_afds` returns, its ``candidates``
counter set to the kept candidates and ``dropped_non_minimal``
recording the reduction.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, FrozenSet, List, Tuple

from repro.service.model import DiscoveryResult, ScoredFd


def minimal_exact_lhs_sets(
    candidates: List[ScoredFd],
) -> Dict[Tuple[str, ...], List[FrozenSet[str]]]:
    """Per RHS, the inclusion-minimal LHS sets among the exact candidates."""
    by_rhs: Dict[Tuple[str, ...], List[FrozenSet[str]]] = {}
    for candidate in candidates:
        if not candidate.exact:
            continue
        lhs = frozenset(candidate.lhs)
        kept = by_rhs.setdefault(candidate.rhs, [])
        if any(existing <= lhs for existing in kept):
            continue
        kept[:] = [existing for existing in kept if not lhs < existing]
        kept.append(lhs)
    return by_rhs


def is_implied(
    candidate: ScoredFd, minimal_exact: Dict[Tuple[str, ...], List[FrozenSet[str]]]
) -> bool:
    """True when an exact FD with a *proper-subset* LHS covers the candidate."""
    lhs = frozenset(candidate.lhs)
    return any(exact < lhs for exact in minimal_exact.get(candidate.rhs, ()))


def minimal_cover(result: DiscoveryResult) -> DiscoveryResult:
    """A copy of ``result`` without candidates implied by smaller exact FDs.

    Candidate order, scores and the pruning counters are preserved;
    ``counters["candidates"]`` becomes the number kept and
    ``counters["dropped_non_minimal"]`` grows by the number removed.
    Idempotent: reducing an already-minimal result drops nothing.
    """
    minimal_exact = minimal_exact_lhs_sets(result.candidates)
    kept = [
        candidate
        for candidate in result.candidates
        if not is_implied(candidate, minimal_exact)
    ]
    counters = dict(result.counters, candidates=len(kept))
    counters["dropped_non_minimal"] = counters.get("dropped_non_minimal", 0) + (
        len(result.candidates) - len(kept)
    )
    return replace(result, candidates=kept, counters=counters)
