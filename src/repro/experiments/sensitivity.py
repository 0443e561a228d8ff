"""Driver for the ERR / UNIQ / SKEW sensitivity experiments (Section V).

One call runs a full benchmark sweep: build the table specs, score every
registered measure in parallel, aggregate PR-AUC / rank-at-max-recall /
separation / runtimes, derive the per-step sensitivity curves behind the
Section V figures, and persist everything as JSON + CSV under
``results/<benchmark>/``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.evaluation.harness import EvaluationResult, evaluate_specs
from repro.evaluation.scoring import MeasureConfig
from repro.experiments.io import ensure_directory, write_csv, write_json
from repro.synthetic.benchmarks import benchmark_specs


@dataclass(frozen=True)
class SensitivityConfig:
    """Everything that determines one sensitivity run (and its cache key).

    The defaults are laptop-scale; ``steps=50, tables_per_step=50,
    max_rows=10_000`` is the full-paper configuration on the identical
    code path.
    """

    benchmark: str = "err"
    steps: int = 5
    tables_per_step: int = 3
    jobs: int = 1
    seed: Optional[int] = None
    min_rows: int = 100
    max_rows: int = 1000
    sfi_alpha: float = 0.5

    def measure_config(self) -> MeasureConfig:
        return MeasureConfig(sfi_alpha=self.sfi_alpha)


def run_sensitivity(
    config: SensitivityConfig = SensitivityConfig(),
    output_dir: Optional[str] = "results",
) -> Dict[str, object]:
    """Run one synthetic sensitivity benchmark end to end.

    Returns the JSON payload; with ``output_dir`` set, also writes
    ``summary.json`` plus ``summary.csv`` / ``scores.csv`` / ``curves.csv``
    under ``<output_dir>/<benchmark>/``.
    """
    specs = benchmark_specs(
        config.benchmark,
        steps=config.steps,
        tables_per_step=config.tables_per_step,
        seed=config.seed,
        min_rows=config.min_rows,
        max_rows=config.max_rows,
    )
    result = evaluate_specs(specs, config.measure_config(), jobs=config.jobs)
    payload = build_payload(config, result)
    if output_dir is not None:
        write_artifacts(Path(output_dir) / config.benchmark.lower(), payload, result)
    return payload


def build_payload(config: SensitivityConfig, result: EvaluationResult) -> Dict[str, object]:
    return {
        "experiment": "sensitivity",
        "benchmark": result.benchmark,
        "parameter_name": result.parameter_name,
        "config": asdict(config),
        "num_tables": len(result.rows),
        "measures": result.measure_names,
        "summary": result.summary(),
        "curves": result.step_curves(),
    }


def write_artifacts(
    directory: Path, payload: Dict[str, object], result: EvaluationResult
) -> Dict[str, Path]:
    """Persist the JSON payload and the three flat CSV views."""
    ensure_directory(directory)
    summary = payload["summary"]
    paths = {"summary_json": write_json(directory / "summary.json", payload)}

    summary_fields = [
        "measure",
        "pr_auc",
        "rank_at_max_recall",
        "normalized_rank_at_max_recall",
        "separation",
        "total_seconds",
        "mean_seconds",
        "max_seconds",
    ]
    paths["summary_csv"] = write_csv(
        directory / "summary.csv",
        summary_fields,
        (
            {"measure": name, **metrics}
            for name, metrics in summary.items()  # type: ignore[union-attr]
        ),
    )

    score_fields = [
        "table",
        "step",
        "index",
        "positive",
        "parameter_value",
        "num_rows",
        "statistics_seconds",
    ] + result.measure_names
    paths["scores_csv"] = write_csv(
        directory / "scores.csv",
        score_fields,
        (
            {
                "table": row.table,
                "step": row.step,
                "index": row.index,
                "positive": int(row.positive),
                "parameter_value": row.parameter_value,
                "num_rows": row.num_rows,
                "statistics_seconds": row.statistics_seconds,
                **row.scores,
            }
            for row in result.rows
        ),
    )

    curve_fields = [
        "measure",
        "step",
        "parameter_value",
        "mean_positive_score",
        "mean_negative_score",
    ]
    curves = payload["curves"]
    paths["curves_csv"] = write_csv(
        directory / "curves.csv",
        curve_fields,
        (
            {"measure": name, **point}
            for name, points in curves.items()  # type: ignore[union-attr]
            for point in points
        ),
    )
    return paths
