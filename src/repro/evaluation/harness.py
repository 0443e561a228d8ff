"""Parallel evaluation of a synthetic benchmark.

The runner shards :class:`TableSpec` descriptions — not materialised
relations — across a :class:`~concurrent.futures.ProcessPoolExecutor`:
each worker regenerates its table from the spec's own seed, computes the
shared :class:`FdStatistics` once, and scores every registered measure.
Because every spec is self-seeded, the results are bit-identical for any
worker count (``jobs=2`` reproduces ``jobs=1`` exactly), and the laptop
5x3 grid and the paper's 50x50 grid are the same code path.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import registry

from repro.evaluation.metrics import ranking_summary, runtime_stats
from repro.evaluation.scoring import MeasureConfig, TableScore
from repro.synthetic.benchmarks import TableSpec
from repro.synthetic.generator import SYNTHETIC_FD


def _init_worker(extra_measures: Dict[str, Callable]) -> None:
    """Re-register extension measures inside a pool worker.

    Under the ``fork`` start method workers inherit the registry, but
    under ``spawn``/``forkserver`` they re-import it empty — without this
    initializer, measures added via :func:`repro.core.registry.register_measure`
    would silently vanish from parallel runs.  Factories must therefore be
    picklable (module-level callables) to participate in ``jobs > 1``.
    """
    for name, factory in extra_measures.items():
        registry.register_measure(name, factory, overwrite=True)


def _score_spec(task: Tuple[TableSpec, MeasureConfig]) -> TableScore:
    """Worker entry point: materialise one spec and score all measures.

    Routed through a one-shot :class:`~repro.service.AfdSession` — the
    same front door every other caller uses — so the statistics pass,
    per-measure runtimes and scores follow the service cost discipline
    (and stay bit-identical to the legacy direct-call path).
    """
    from repro.service.session import AfdSession

    spec, config = task
    relation = spec.materialize()
    session = AfdSession(relation, measures=config.build())
    profile = session.score(SYNTHETIC_FD)
    return TableScore(
        table=spec.name,
        benchmark=spec.benchmark,
        step=spec.step,
        index=spec.index,
        positive=spec.positive,
        parameter_value=spec.parameter_value,
        num_rows=relation.num_rows,
        statistics_seconds=profile.statistics_seconds,
        scores=profile.scores,
        runtimes=profile.runtimes,
    )


@dataclass
class EvaluationResult:
    """Per-table scores of one benchmark plus the derived rank metrics."""

    benchmark: str
    parameter_name: str
    measure_names: List[str]
    rows: List[TableScore] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def labels(self) -> List[int]:
        return [row.label for row in self.rows]

    def scores(self, measure: str) -> List[float]:
        return [row.scores[measure] for row in self.rows]

    def runtimes(self, measure: str) -> List[float]:
        return [row.runtimes[measure] for row in self.rows]

    def steps(self) -> List[int]:
        return sorted({row.step for row in self.rows})

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-measure PR-AUC, rank-at-max-recall, separation and runtimes.

        Metrics that a degenerate benchmark leaves undefined (no
        positives, or no negatives for the separation) are reported as
        ``float("nan")`` rather than raising.
        """
        labels = self.labels()
        result: Dict[str, Dict[str, float]] = {}
        for name in self.measure_names:
            entry: Dict[str, float] = ranking_summary(labels, self.scores(name))
            entry.update(runtime_stats(self.runtimes(name)))
            result[name] = entry
        return result

    def step_curves(self) -> Dict[str, List[Dict[str, float]]]:
        """Per-measure sensitivity curves: mean B+/B- score per step.

        These are the per-step aggregates behind the Section V figures —
        how a measure's score on planted-FD tables (and on independent
        tables) moves as the controlled parameter is swept.
        """
        curves: Dict[str, List[Dict[str, float]]] = {name: [] for name in self.measure_names}
        by_step: Dict[int, List[TableScore]] = {}
        for row in self.rows:
            by_step.setdefault(row.step, []).append(row)
        for step in sorted(by_step):
            rows = by_step[step]
            parameter_value = rows[0].parameter_value
            for name in self.measure_names:
                positive = [row.scores[name] for row in rows if row.positive]
                negative = [row.scores[name] for row in rows if not row.positive]
                curves[name].append(
                    {
                        "step": float(step),
                        "parameter_value": parameter_value,
                        "mean_positive_score": (
                            sum(positive) / len(positive) if positive else float("nan")
                        ),
                        "mean_negative_score": (
                            sum(negative) / len(negative) if negative else float("nan")
                        ),
                    }
                )
        return curves


def evaluate_specs(
    specs: Sequence[TableSpec],
    config: Optional[MeasureConfig] = None,
    jobs: int = 1,
    chunksize: Optional[int] = None,
) -> EvaluationResult:
    """Score every registered measure on every spec'd table.

    ``jobs > 1`` shards the specs across a process pool; output order and
    every floating-point score are independent of ``jobs``.
    """
    if not specs:
        raise ValueError("cannot evaluate an empty spec list")
    config = config if config is not None else MeasureConfig()
    tasks = [(spec, config) for spec in specs]
    if jobs <= 1:
        rows = [_score_spec(task) for task in tasks]
    else:
        if chunksize is None:
            chunksize = max(1, len(tasks) // (4 * jobs))
        extras = registry.extra_measure_factories()
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(extras,)
        ) as executor:
            rows = list(executor.map(_score_spec, tasks, chunksize=chunksize))
    measure_names = list(rows[0].scores)
    return EvaluationResult(
        benchmark=specs[0].benchmark,
        parameter_name=specs[0].parameter_name,
        measure_names=measure_names,
        rows=rows,
    )
