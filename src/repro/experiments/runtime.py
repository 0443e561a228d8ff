"""Driver for the runtime experiment (Table V).

The paper's Table V reports per-measure runtimes on fixed relations,
under the cost discipline the whole study is built on: one sufficient-
statistics pass per candidate FD, shared by all fourteen measures.  This
driver reproduces that protocol and times the statistics kernel the
process runs (:mod:`repro.core.chunked`; the fixed relations are built
with numpy, so at these sizes that is the packed ``int64`` kernel):

* **fixed relations** — one deterministic B+ relation per configured
  size (fixed generation parameters, fixed seed), so runs are comparable
  across machines and across PRs;
* **warm-up discipline** — per relation the full statistics+scoring pass
  runs untimed ``warmup_runs`` times first; the warm-up also pays
  one-off costs (the relation's dictionary encoding, the cached
  full-tuple pass, allocator warm-up) exactly once, outside the timed
  window;
* **medians** — each timed quantity (the statistics pass, every
  measure's scoring time, their total) is the median over ``repeats``
  timed runs, the robust choice for wall-clock on shared hardware.  A
  sub-millisecond pass needs many runs before its median settles, so
  the default is 31, and the statistics pass and the total also record
  their 25th and 75th percentiles, whose spread says what change the
  record can resolve.

Artifacts: ``summary.json`` + ``summary.csv`` under
``<output_dir>/runtime/`` and a compact ``BENCH_runtime.json`` at the
repository root recording one cell of medians per relation, so the
performance trajectory of the statistics substrate is tracked in-repo.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.evaluation.scoring import MeasureConfig
from repro.service.session import AfdSession
from repro.experiments.io import ensure_directory, write_csv, write_json
from repro.synthetic.generator import (
    SYNTHETIC_FD,
    GenerationParameters,
    generate_positive_relation,
)


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything that determines one runtime benchmark run.

    ``sizes`` are the row counts of the fixed relations (ascending).
    """

    sizes: Tuple[int, ...] = (1_000, 5_000, 20_000)
    repeats: int = 31
    warmup_runs: int = 1
    seed: int = 97
    sfi_alpha: float = 0.5

    def measure_config(self) -> MeasureConfig:
        return MeasureConfig(sfi_alpha=self.sfi_alpha)


def fixed_relation_parameters(num_rows: int) -> GenerationParameters:
    """The fixed generation parameters of the size-``num_rows`` relation.

    Low-cardinality LHS/RHS domains (the RWD regime) with mild skew and a
    1% error channel: the FD is approximate, every measure takes its
    violated code path, and the group structure is rich enough that the
    statistics pass dominates.
    """
    domain_x = max(20, num_rows // 20)
    return GenerationParameters(
        num_rows=num_rows,
        domain_x_size=domain_x,
        domain_y_size=min(50, max(5, domain_x // 2)),
        alpha_x=2.0,
        beta_x=5.0,
        alpha_y=2.0,
        beta_y=5.0,
        error_rate=0.01,
    )


def build_fixed_relation(num_rows: int, seed: int):
    """Materialise one fixed benchmark relation (deterministic per size)."""
    import numpy as np

    rng = np.random.default_rng(seed + num_rows)
    relation = generate_positive_relation(
        fixed_relation_parameters(num_rows), rng, name=f"runtime[{num_rows}]"
    )
    return relation


def _quartiles(runs: List[float]) -> Tuple[float, float]:
    """The 25th and 75th percentiles of ``runs`` by rank, rounded outward,
    so ``p25 <= median <= p75`` holds exactly (one run is all three)."""
    ordered = sorted(runs)
    offset = (len(ordered) - 1) // 4
    return ordered[offset], ordered[-1 - offset]


def _time_relation(relation, config: RuntimeConfig) -> Dict[str, object]:
    """Timed statistics+scoring passes of one relation.

    Each pass uses a fresh one-shot :class:`AfdSession` so the shared
    statistics are recomputed every run (the quantity being timed).
    """
    measures = config.measure_config().build()

    def one_pass():
        session = AfdSession(relation, measures=dict(measures))
        return session.score(SYNTHETIC_FD)

    for _ in range(config.warmup_runs):
        one_pass()
    statistics_runs: List[float] = []
    total_runs: List[float] = []
    measure_runs: Dict[str, List[float]] = {name: [] for name in measures}
    for _ in range(config.repeats):
        started = time.perf_counter()
        result = one_pass()
        total_runs.append(time.perf_counter() - started)
        statistics_runs.append(result.statistics_seconds)
        for name, seconds in result.runtimes.items():
            measure_runs[name].append(seconds)
    statistics_p25, statistics_p75 = _quartiles(statistics_runs)
    total_p25, total_p75 = _quartiles(total_runs)
    return {
        "statistics_seconds_median": median(statistics_runs),
        "statistics_seconds_p25": statistics_p25,
        "statistics_seconds_p75": statistics_p75,
        "total_seconds_median": median(total_runs),
        "total_seconds_p25": total_p25,
        "total_seconds_p75": total_p75,
        "measure_seconds_median": {
            name: median(runs) for name, runs in measure_runs.items()
        },
        "statistics_seconds_runs": statistics_runs,
        "total_seconds_runs": total_runs,
    }


def run_runtime(
    config: RuntimeConfig = RuntimeConfig(),
    output_dir: Optional[str] = "results",
    bench_path: Optional[str] = "BENCH_runtime.json",
) -> Dict[str, object]:
    """Run the full runtime benchmark and persist its artifacts.

    Returns the JSON payload; with ``output_dir`` set, writes
    ``summary.json`` / ``summary.csv`` under ``<output_dir>/runtime/``;
    with ``bench_path`` set, writes the compact benchmark record there
    (the repo-root ``BENCH_runtime.json`` by default).
    """
    relations: List[Dict[str, object]] = []
    for num_rows in config.sizes:
        relation = build_fixed_relation(num_rows, config.seed)
        relations.append(
            {
                "name": relation.name,
                "num_rows": relation.num_rows,
                "parameters": asdict(fixed_relation_parameters(num_rows)),
                **_time_relation(relation, config),
            }
        )
    payload: Dict[str, object] = {
        "experiment": "runtime",
        "config": asdict(config),
        "metadata": {"cpu_count": os.cpu_count()},
        "relations": relations,
    }
    if output_dir is not None:
        _write_artifacts(Path(output_dir) / "runtime", payload)
    if bench_path is not None:
        write_json(bench_path, payload)
    return payload


def _write_artifacts(directory: Path, payload: Dict[str, object]) -> None:
    ensure_directory(directory)
    write_json(directory / "summary.json", payload)
    fields = ["relation", "num_rows", "metric", "median_seconds"]

    def rows():
        for entry in payload["relations"]:  # type: ignore[union-attr]
            medians = {
                "statistics": entry["statistics_seconds_median"],
                "total": entry["total_seconds_median"],
                **entry["measure_seconds_median"],
            }
            for metric, seconds in medians.items():
                yield {
                    "relation": entry["name"],
                    "num_rows": entry["num_rows"],
                    "metric": metric,
                    "median_seconds": seconds,
                }

    write_csv(directory / "summary.csv", fields, rows())
