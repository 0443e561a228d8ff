"""Scoring one labelled table with every registered measure.

The central cost discipline of the harness (and of the paper's runtime
experiment, Table V): the sufficient statistics of a candidate FD are
computed *once* per ``(table, FD)`` and shared by all fourteen measures
via :meth:`AfdMeasure.score_from_statistics`; per-measure wall-clock
times therefore exclude the shared statistics pass, which is reported
separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.base import AfdMeasure
from repro.core.registry import iter_measures


@dataclass(frozen=True)
class MeasureConfig:
    """Picklable recipe for building the measure set inside a worker.

    Measure instances are rebuilt from this config in every worker
    process, so the harness never ships live objects across the pool.
    """

    sfi_alpha: float = 0.5

    def build(self) -> Dict[str, AfdMeasure]:
        return dict(iter_measures(sfi_alpha=self.sfi_alpha))


@dataclass
class TableScore:
    """All measure scores (and runtimes) of one labelled table."""

    table: str
    benchmark: str
    step: int
    index: int
    positive: bool
    parameter_value: float
    num_rows: int
    statistics_seconds: float
    scores: Dict[str, float] = field(default_factory=dict)
    runtimes: Dict[str, float] = field(default_factory=dict)

    @property
    def label(self) -> int:
        return 1 if self.positive else 0
