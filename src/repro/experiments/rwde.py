"""Driver for the RWDe error-sensitivity sweep (Appendix G, Table VIII).

For every ``(error type, error level)`` grid cell: corrupt the RWD
stand-in relations, score all linear candidates per relation via
:func:`repro.discovery.discover_afds` (shared statistics, exact and
key pruning), label candidates by membership in the ground truth (design
AFDs plus the newly corrupted FDs), and aggregate PR-AUC per measure.
Grid cells are independent, so they shard across a process pool.

Exactly satisfied candidates (key FDs, uncorrupted perfect design FDs,
exact spurious derivations) are excluded from the ranking pool: every
measure scores them 1.0 by convention, so keeping them as negatives
would saturate the top of every ranking identically and the comparison
would measure the benchmark's key count rather than the measures.  The
ground truth itself is never exactly satisfied (AFDs are violated by
construction), so the exclusion only removes trivial negatives.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.discovery import discover_afds
from repro.errors.channels import ErrorType
from repro.errors.rwde import build_rwde_benchmark
from repro.evaluation.metrics import pr_auc, rank_at_max_recall, separation
from repro.evaluation.scoring import MeasureConfig
from repro.experiments.io import ensure_directory, write_csv, write_json
from repro.rwd.benchmark import build_rwd_benchmark


@dataclass(frozen=True)
class RwdeConfig:
    """Configuration of one RWDe sweep."""

    error_types: Tuple[str, ...] = ("copy", "typo", "bogus")
    error_levels: Tuple[float, ...] = (0.01, 0.02, 0.05)
    num_rows: int = 400
    seed: int = 0
    jobs: int = 1
    sfi_alpha: float = 0.5

    def measure_config(self) -> MeasureConfig:
        return MeasureConfig(sfi_alpha=self.sfi_alpha)


@lru_cache(maxsize=4)
def _cached_rwd_relations(num_rows: int, seed: int) -> tuple:
    """The uncorrupted base benchmark, built once per process.

    Every grid cell starts from the identical base relations; the
    per-process cache avoids regenerating them error_types x error_levels
    times (corruption itself copies rows, so sharing the base is safe).
    """
    return tuple(build_rwd_benchmark(num_rows=num_rows, seed=seed))


def _run_cell(task: Tuple[str, float, RwdeConfig]) -> Dict[str, object]:
    """One grid cell, self-contained so it can run in a worker process."""
    error_type_name, error_level, config = task
    error_type = ErrorType(error_type_name)
    rwd = _cached_rwd_relations(config.num_rows, config.seed)
    rwde = build_rwde_benchmark(list(rwd), error_type, error_level, seed=config.seed)
    measures = config.measure_config().build()
    measure_names = list(measures)
    labels: List[int] = []
    scores_per_measure: Dict[str, List[float]] = {name: [] for name in measure_names}
    candidate_count = 0
    excluded_exact = 0
    for corrupted in rwde:
        relation = corrupted.corrupted.relation
        ground_truth = set(corrupted.ground_truth)
        discovered = discover_afds(relation, measures=measures, threshold=0.0)
        for candidate in discovered.candidates:
            if candidate.exact:
                excluded_exact += 1
                continue
            labels.append(1 if candidate.fd in ground_truth else 0)
            for name in measure_names:
                scores_per_measure[name].append(candidate.scores[name])
            candidate_count += 1
    per_measure: Dict[str, Dict[str, float]] = {}
    for name in measure_names:
        per_measure[name] = {
            "pr_auc": pr_auc(labels, scores_per_measure[name]),
            "rank_at_max_recall": float(rank_at_max_recall(labels, scores_per_measure[name])),
            "separation": separation(labels, scores_per_measure[name]),
        }
    return {
        "error_type": error_type_name,
        "error_level": error_level,
        "relations": len(rwde),
        "candidates": candidate_count,
        "excluded_exact": excluded_exact,
        "positives": sum(labels),
        "measures": per_measure,
    }


def run_rwde(
    config: RwdeConfig = RwdeConfig(),
    output_dir: Optional[str] = "results",
) -> Dict[str, object]:
    """Run the full ``error type x error level`` grid.

    Returns the JSON payload; with ``output_dir`` set, writes
    ``summary.json`` and ``summary.csv`` under ``<output_dir>/rwde/``.
    """
    tasks = [
        (error_type, float(error_level), config)
        for error_type in config.error_types
        for error_level in config.error_levels
    ]
    if config.jobs <= 1:
        cells = [_run_cell(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=config.jobs) as executor:
            cells = list(executor.map(_run_cell, tasks))
    payload: Dict[str, object] = {
        "experiment": "rwde",
        "config": asdict(config),
        "cells": cells,
    }
    if output_dir is not None:
        directory = ensure_directory(Path(output_dir) / "rwde")
        write_json(directory / "summary.json", payload)
        fields = [
            "error_type",
            "error_level",
            "measure",
            "pr_auc",
            "rank_at_max_recall",
            "separation",
            "candidates",
            "excluded_exact",
            "positives",
        ]
        write_csv(
            directory / "summary.csv",
            fields,
            (
                {
                    "error_type": cell["error_type"],
                    "error_level": cell["error_level"],
                    "measure": name,
                    "candidates": cell["candidates"],
                    "excluded_exact": cell["excluded_exact"],
                    "positives": cell["positives"],
                    **metrics,
                }
                for cell in cells
                for name, metrics in cell["measures"].items()  # type: ignore[union-attr]
            ),
        )
    return payload
