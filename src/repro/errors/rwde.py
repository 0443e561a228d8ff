"""Construction of the RWDe benchmark (Appendix G).

RWDe is obtained by passing RWD relations through an error channel so
that some perfect design FDs become approximate; existing AFDs are always
maintained.  The corrupted FDs are selected under the paper's
interference-avoidance rules:

* at most one FD ``X -> Y`` per unique RHS attribute ``Y`` per relation;
* ``Y`` must not appear in an existing design AFD;
* no previously selected FD may have ``Y`` as (part of) its LHS.

For every error type ``t`` and error level ``η`` this yields a benchmark
``RWDe[t, η]`` whose ground truth is ``AFD(R)`` plus the newly corrupted
FDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors.channels import ErrorType, apply_error_channel
from repro.relation.fd import FunctionalDependency
from repro.rwd.schema import RwdRelation


@dataclass
class RwdeRelation:
    """One corrupted relation of RWDe together with its ground truth."""

    base: RwdRelation
    error_type: ErrorType
    error_level: float
    corrupted: "RwdRelation"
    corrupted_fds: List[FunctionalDependency]

    @property
    def ground_truth(self) -> List[FunctionalDependency]:
        """All AFDs of the corrupted relation (original AFDs plus new ones)."""
        return self.corrupted.approximate_fds


@dataclass
class RwdeBenchmark:
    """The RWDe benchmark for one (error type, error level) combination."""

    error_type: ErrorType
    error_level: float
    relations: List[RwdeRelation]

    def __iter__(self):
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)


def _select_corruptible_fds(rwd_relation: RwdRelation) -> List[FunctionalDependency]:
    """Perfect design FDs eligible for corruption under the interference rules."""
    existing_afd_attributes = set()
    for fd in rwd_relation.approximate_fds:
        existing_afd_attributes.update(fd.attributes)
    selected: List[FunctionalDependency] = []
    used_rhs: set = set()
    for fd in rwd_relation.perfect_fds:
        if len(fd.rhs) != 1:
            continue
        rhs_attribute = fd.rhs[0]
        if rhs_attribute in used_rhs:
            continue
        if rhs_attribute in existing_afd_attributes:
            continue
        if any(rhs_attribute in earlier.lhs for earlier in selected):
            continue
        selected.append(fd)
        used_rhs.add(rhs_attribute)
    return selected


def build_rwde_relation(
    rwd_relation: RwdRelation,
    error_type: ErrorType,
    error_level: float,
    rng: Optional[np.random.Generator] = None,
) -> Optional[RwdeRelation]:
    """Corrupt one RWD relation; returns ``None`` if it has no corruptible PFD.

    Relations without perfect design FDs (R8 and R9 in the paper) are
    excluded from RWDe.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    candidates = _select_corruptible_fds(rwd_relation)
    if not candidates:
        return None
    relation = rwd_relation.relation
    corrupted_fds: List[FunctionalDependency] = []
    for fd in candidates:
        result = apply_error_channel(relation, fd, error_level, error_type, rng)
        if result is None:
            # The per-group cap cannot absorb this many errors; omit the FD.
            continue
        relation = result
        corrupted_fds.append(fd)
    corrupted = RwdRelation(
        key=f"{rwd_relation.key}[{error_type},{error_level:g}]",
        title=rwd_relation.title,
        relation=relation,
        design_schema=rwd_relation.design_schema,
        description=rwd_relation.description,
    )
    return RwdeRelation(
        base=rwd_relation,
        error_type=error_type,
        error_level=error_level,
        corrupted=corrupted,
        corrupted_fds=corrupted_fds,
    )


def build_rwde_benchmark(
    rwd_relations: Sequence[RwdRelation],
    error_type: ErrorType,
    error_level: float,
    seed: int = 0,
) -> RwdeBenchmark:
    """Build ``RWDe[error_type, error_level]`` from a list of RWD relations."""
    relations: List[RwdeRelation] = []
    for index, rwd_relation in enumerate(rwd_relations):
        rng = np.random.default_rng(seed + 1000 * index)
        corrupted = build_rwde_relation(rwd_relation, error_type, error_level, rng)
        if corrupted is not None:
            relations.append(corrupted)
    return RwdeBenchmark(error_type=error_type, error_level=error_level, relations=relations)


def build_rwde_grid(
    rwd_relations: Sequence[RwdRelation],
    error_types: Sequence[ErrorType] = (ErrorType.COPY, ErrorType.BOGUS, ErrorType.TYPO),
    error_levels: Sequence[float] = (0.01, 0.02, 0.05, 0.10),
    seed: int = 0,
) -> Dict[Tuple[ErrorType, float], RwdeBenchmark]:
    """All RWDe benchmarks for a grid of error types and levels (Table VIII)."""
    grid: Dict[Tuple[ErrorType, float], RwdeBenchmark] = {}
    for error_type in error_types:
        for error_level in error_levels:
            grid[(error_type, error_level)] = build_rwde_benchmark(
                rwd_relations, error_type, error_level, seed=seed
            )
    return grid
