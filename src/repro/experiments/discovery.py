"""Driver for the lattice-discovery experiment over the RWD benchmark.

For every RWD stand-in relation: run the level-wise lattice discovery of
:func:`repro.discovery.discover_afds` up to ``max_lhs_size``, rank the
non-exact candidates against the relation's design-schema ground truth
(``AFD(R)``, the approximate design FDs), and report per-measure ranking
metrics together with the lattice's pruning counters — how many
statistics passes the traversal performed versus the one pass per
candidate of the unpruned lattice that brute force pays.

Multi-attribute candidates enlarge the negative pool (the planted design
schemas are linear), so this experiment probes how well each measure
keeps ranking the true AFDs on top when the candidate space grows
beyond linear FDs.  Exactly satisfied candidates are excluded from the
ranking pool for the same reason as in the RWDe sweep: every measure
scores them 1.0 by convention.  Relations whose candidate pool ends up
degenerate (no positives) report ``NaN`` ranking metrics.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.discovery import discover_afds
from repro.evaluation.metrics import ranking_summary
from repro.evaluation.scoring import MeasureConfig
from repro.experiments.io import ensure_directory, write_csv, write_json
from repro.rwd.benchmark import build_rwd_benchmark
from repro.rwd.datasets import dataset_keys


@dataclass(frozen=True)
class DiscoveryConfig:
    """Configuration of one lattice-discovery run."""

    datasets: Tuple[str, ...] = tuple(dataset_keys())
    num_rows: int = 400
    seed: int = 0
    max_lhs_size: int = 2
    threshold: float = 0.9
    sfi_alpha: float = 0.5

    def measure_config(self) -> MeasureConfig:
        return MeasureConfig(sfi_alpha=self.sfi_alpha)


def brute_force_statistics(num_attributes: int, max_lhs_size: int) -> int:
    """Statistics passes :func:`~repro.discovery.brute_force_afds` runs on full pools.

    Brute force scores every candidate of the unpruned lattice, key
    supersets included: ``Σ_{k ≤ max_lhs_size} C(n, k)·(n − k)`` for
    ``n`` attributes.
    """
    n = num_attributes
    return sum(math.comb(n, k) * (n - k) for k in range(1, max_lhs_size + 1))


def _run_relation(rwd, config: DiscoveryConfig, measures) -> Dict[str, object]:
    """Lattice discovery + ground-truth ranking for one RWD relation."""
    relation = rwd.relation
    ground_truth = set(rwd.approximate_fds)
    result = discover_afds(
        relation,
        measures=measures,
        threshold=config.threshold,
        max_lhs_size=config.max_lhs_size,
    )
    measure_names = result.measure_names
    labels: List[int] = []
    scores_per_measure: Dict[str, List[float]] = {name: [] for name in measure_names}
    excluded_exact = 0
    for candidate in result.candidates:
        if candidate.exact:
            excluded_exact += 1
            continue
        labels.append(1 if candidate.fd in ground_truth else 0)
        for name in measure_names:
            scores_per_measure[name].append(candidate.scores[name])
    per_measure: Dict[str, Dict[str, float]] = {}
    for name in measure_names:
        entry = ranking_summary(labels, scores_per_measure[name])
        entry["accepted"] = float(len(result.accepted(name)))
        per_measure[name] = entry
    return {
        "key": rwd.key,
        "title": rwd.title,
        "num_rows": relation.num_rows,
        "num_attributes": relation.num_attributes,
        "ground_truth_fds": len(ground_truth),
        "ranked_candidates": len(labels),
        "positives": sum(labels),
        "excluded_exact": excluded_exact,
        "brute_force_statistics": brute_force_statistics(
            relation.num_attributes, config.max_lhs_size
        ),
        **result.counters,
        "measures": per_measure,
    }


def run_discovery(
    config: DiscoveryConfig = DiscoveryConfig(),
    output_dir: Optional[str] = "results",
) -> Dict[str, object]:
    """Run lattice discovery over the configured RWD relations.

    Returns the JSON payload; with ``output_dir`` set, writes
    ``summary.json`` and ``summary.csv`` under ``<output_dir>/discovery/``.
    """
    benchmark = build_rwd_benchmark(
        num_rows=config.num_rows, seed=config.seed, keys=list(config.datasets)
    )
    measures = config.measure_config().build()
    relations = [_run_relation(rwd, config, measures) for rwd in benchmark]
    payload: Dict[str, object] = {
        "experiment": "discovery",
        "config": asdict(config),
        "relations": relations,
    }
    if output_dir is not None:
        directory = ensure_directory(Path(output_dir) / "discovery")
        write_json(directory / "summary.json", payload)
        fields = [
            "key",
            "measure",
            "pr_auc",
            "rank_at_max_recall",
            "normalized_rank_at_max_recall",
            "separation",
            "accepted",
            "ranked_candidates",
            "positives",
            "candidates",
            "pruned_exact",
            "pruned_key",
            "statistics_computed",
            "brute_force_statistics",
        ]
        write_csv(
            directory / "summary.csv",
            fields,
            (
                {
                    "key": entry["key"],
                    "measure": name,
                    "ranked_candidates": entry["ranked_candidates"],
                    "positives": entry["positives"],
                    "candidates": entry["candidates"],
                    "pruned_exact": entry["pruned_exact"],
                    "pruned_key": entry["pruned_key"],
                    "statistics_computed": entry["statistics_computed"],
                    "brute_force_statistics": entry["brute_force_statistics"],
                    **metrics,
                }
                for entry in relations
                for name, metrics in entry["measures"].items()  # type: ignore[union-attr]
            ),
        )
    return payload
