"""Driver for the streaming (incremental-vs-recompute) benchmark.

The runtime experiment (Table V) prices the *static* cost discipline:
one sufficient-statistics pass per candidate FD.  This driver prices the
*streaming* discipline of :mod:`repro.stream`: a relation under a
synthetic insert/delete workload, re-scored after every batch, once
through the incremental path (apply Δ deltas, re-assemble statistics)
and once through a full recompute (snapshot + statistics pass), with all
fourteen measures scored on both results and the scores asserted
bit-identical per batch.

Protocol, mirroring the runtime driver where it applies:

* **fixed relations** — the Table V fixed B+ relations (same sizes, same
  seed discipline) are the stream's initial state;
* **fixed workload** — one deterministic insert/delete workload per
  relation size (appends drawn from the relation's generation domains,
  plus a fraction of *novel* values that grow the dynamic code tables
  past the initial dictionary; deletes drawn uniformly from the live
  rows);
* **medians** — per-batch wall-clock is summarised by the median over
  batches, separately for the statistics phase (incremental: delta
  application + re-assembly; recompute: snapshot + ``compute``) and for
  per-measure scoring on each path.

Artifacts: ``summary.json`` + ``summary.csv`` under
``<output_dir>/streaming/`` and a compact ``BENCH_streaming.json`` at
the repository root whose ``speedup`` headline is the recompute-over-
incremental statistics-phase median ratio on the largest fixed relation.
The recompute uses whichever statistics kernel the process picks
(:mod:`repro.core.chunked`).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.core.statistics import FdStatistics
from repro.experiments.io import ensure_directory, write_csv, write_json
from repro.experiments.runtime import build_fixed_relation, fixed_relation_parameters
from repro.relation.relation import Relation
from repro.stream.dynamic import DynamicRelation
from repro.stream.statistics import assert_scores_identical
from repro.synthetic.generator import SYNTHETIC_FD


@dataclass(frozen=True)
class StreamingConfig:
    """Everything that determines one streaming benchmark run.

    ``batch_size`` appends and ``int(batch_size * delete_fraction)``
    deletes form one batch (the small-Δ regime the incremental path is
    built for); ``novel_fraction`` of appended LHS values are brand new,
    so the dynamic dictionary encoding must grow its code tables
    mid-stream.
    """

    sizes: Tuple[int, ...] = (1_000, 5_000, 20_000)
    batches: int = 12
    batch_size: int = 16
    delete_fraction: float = 0.25
    novel_fraction: float = 0.1
    seed: int = 97
    sfi_alpha: float = 0.5

    def build_measures(self):
        from repro.core.registry import all_measures

        return all_measures(sfi_alpha=self.sfi_alpha)


#: Smoke-scale override used by ``--smoke`` (CI): small fixed relations,
#: fewer batches — same code path, same artifact schema.
SMOKE_SIZES: Tuple[int, ...] = (500, 2_000)
SMOKE_BATCHES = 4

Batch = Tuple[List[Tuple[int, int]], List[int]]


def build_workload(num_rows: int, config: StreamingConfig) -> List[Batch]:
    """The deterministic insert/delete batches for one relation size.

    Returned deletes are *row ids* under the id assignment a
    :class:`DynamicRelation` seeded with the fixed relation performs
    (initial rows take ids ``0 .. num_rows - 1``, appends continue from
    there), so the same workload replays identically on every run.
    """
    import numpy as np

    parameters = fixed_relation_parameters(num_rows)
    rng = np.random.default_rng(config.seed + num_rows + 1)
    live_ids = list(range(num_rows))
    next_id = num_rows
    novel = 0
    batches: List[Batch] = []
    for _ in range(config.batches):
        appends: List[Tuple[int, int]] = []
        for _ in range(config.batch_size):
            if float(rng.random()) < config.novel_fraction:
                # A value outside the initial domain: the dynamic code
                # table must grow to admit it.
                x = parameters.domain_x_size + novel
                novel += 1
            else:
                x = int(rng.integers(0, parameters.domain_x_size))
            y = int(rng.integers(0, parameters.domain_y_size))
            appends.append((x, y))
            live_ids.append(next_id)
            next_id += 1
        deletes: List[int] = []
        for _ in range(min(int(config.batch_size * config.delete_fraction), len(live_ids))):
            position = int(rng.integers(0, len(live_ids)))
            deletes.append(live_ids[position])
            live_ids[position] = live_ids[-1]
            live_ids.pop()
        batches.append((appends, deletes))
    return batches


def _replay(
    relation: Relation, workload: List[Batch], config: StreamingConfig
) -> Dict[str, object]:
    """Timed incremental-vs-recompute passes of one relation.

    Raises :class:`RuntimeError` on any score divergence — bit-identity
    of the incremental path is part of the benchmark's contract, not an
    aspiration.
    """
    measures = config.build_measures()
    # The workload's delete ids are precomputed against forever-stable
    # row ids, so history compaction (which re-bases ids) must stay off.
    dynamic = DynamicRelation.from_relation(relation, compact_threshold=None)
    tracker = dynamic.track(SYNTHETIC_FD)

    # Warm-up (untimed): both paths run once on the initial state, paying
    # one-off costs (allocator, columnar encoding) outside the timed window.
    for measure in measures.values():
        measure.score_from_statistics(tracker.statistics())
        measure.score_from_statistics(
            FdStatistics.compute(dynamic.snapshot(), SYNTHETIC_FD)
        )

    incremental_runs: List[float] = []
    recompute_runs: List[float] = []
    incremental_total_runs: List[float] = []
    recompute_total_runs: List[float] = []
    incremental_measure_runs: Dict[str, List[float]] = {name: [] for name in measures}
    recompute_measure_runs: Dict[str, List[float]] = {name: [] for name in measures}
    for appends, deletes in workload:
        started = time.perf_counter()
        dynamic.append(appends)
        dynamic.delete(deletes)
        incremental_statistics = tracker.statistics()
        incremental_seconds = time.perf_counter() - started
        incremental_scores = {}
        incremental_scoring = 0.0
        for name, measure in measures.items():
            started = time.perf_counter()
            incremental_scores[name] = measure.score_from_statistics(incremental_statistics)
            seconds = time.perf_counter() - started
            incremental_measure_runs[name].append(seconds)
            incremental_scoring += seconds

        started = time.perf_counter()
        snapshot = dynamic.snapshot()
        recomputed_statistics = FdStatistics.compute(snapshot, SYNTHETIC_FD)
        recompute_seconds = time.perf_counter() - started
        recompute_scores = {}
        recompute_scoring = 0.0
        for name, measure in measures.items():
            started = time.perf_counter()
            recompute_scores[name] = measure.score_from_statistics(recomputed_statistics)
            seconds = time.perf_counter() - started
            recompute_measure_runs[name].append(seconds)
            recompute_scoring += seconds

        assert_scores_identical(incremental_scores, recompute_scores, relation.name)
        incremental_runs.append(incremental_seconds)
        recompute_runs.append(recompute_seconds)
        incremental_total_runs.append(incremental_seconds + incremental_scoring)
        recompute_total_runs.append(recompute_seconds + recompute_scoring)

    incremental_median = median(incremental_runs)
    recompute_median = median(recompute_runs)
    return {
        "incremental_seconds_median": incremental_median,
        "recompute_seconds_median": recompute_median,
        "statistics_speedup": (
            recompute_median / incremental_median if incremental_median > 0.0 else None
        ),
        "incremental_total_seconds_median": median(incremental_total_runs),
        "recompute_total_seconds_median": median(recompute_total_runs),
        "total_speedup": (
            median(recompute_total_runs) / median(incremental_total_runs)
            if median(incremental_total_runs) > 0.0
            else None
        ),
        "incremental_measure_seconds_median": {
            name: median(runs) for name, runs in incremental_measure_runs.items()
        },
        "recompute_measure_seconds_median": {
            name: median(runs) for name, runs in recompute_measure_runs.items()
        },
        "final_live_rows": dynamic.num_rows,
        "incremental_seconds_runs": incremental_runs,
        "recompute_seconds_runs": recompute_runs,
    }


def run_streaming(
    config: StreamingConfig = StreamingConfig(),
    output_dir: Optional[str] = "results",
    bench_path: Optional[str] = "BENCH_streaming.json",
) -> Dict[str, object]:
    """Run the full streaming benchmark and persist its artifacts.

    Returns the JSON payload; with ``output_dir`` set, writes
    ``summary.json`` / ``summary.csv`` under ``<output_dir>/streaming/``;
    with ``bench_path`` set, writes the compact benchmark record there
    (the repo-root ``BENCH_streaming.json`` by default).
    """
    relations: List[Dict[str, object]] = []
    for num_rows in config.sizes:
        relation = build_fixed_relation(num_rows, config.seed)
        workload = build_workload(num_rows, config)
        relations.append(
            {
                "name": relation.name,
                "num_rows": relation.num_rows,
                "parameters": asdict(fixed_relation_parameters(num_rows)),
                "batches": config.batches,
                "batch_size": config.batch_size,
                "deletes_per_batch": int(config.batch_size * config.delete_fraction),
                **_replay(relation, workload, config),
            }
        )
    largest = max(relations, key=lambda entry: entry["num_rows"]) if relations else None
    payload: Dict[str, object] = {
        "experiment": "streaming",
        "config": asdict(config),
        "scores_verified": True,  # _replay raises on any divergence
        "relations": relations,
        "largest": None
        if largest is None
        else {
            "name": largest["name"],
            "num_rows": largest["num_rows"],
            "statistics_speedup": largest["statistics_speedup"],
            "total_speedup": largest["total_speedup"],
        },
        # The headline number: recompute-over-incremental median wall-clock
        # of the statistics phase on the largest fixed relation.
        "speedup": None if largest is None else largest["statistics_speedup"],
    }
    if output_dir is not None:
        _write_artifacts(Path(output_dir) / "streaming", payload)
    if bench_path is not None:
        write_json(bench_path, payload)
    return payload


def _write_artifacts(directory: Path, payload: Dict[str, object]) -> None:
    ensure_directory(directory)
    write_json(directory / "summary.json", payload)
    fields = ["relation", "num_rows", "metric", "median_seconds"]

    def rows():
        for entry in payload["relations"]:  # type: ignore[union-attr]
            for metric in (
                "incremental_seconds_median",
                "recompute_seconds_median",
                "incremental_total_seconds_median",
                "recompute_total_seconds_median",
            ):
                yield {
                    "relation": entry["name"],
                    "num_rows": entry["num_rows"],
                    "metric": metric.replace("_seconds_median", ""),
                    "median_seconds": entry[metric],
                }
            for path in ("incremental", "recompute"):
                for measure, seconds in entry[f"{path}_measure_seconds_median"].items():
                    yield {
                        "relation": entry["name"],
                        "num_rows": entry["num_rows"],
                        "metric": f"{path}:{measure}",
                        "median_seconds": seconds,
                    }

    write_csv(directory / "summary.csv", fields, rows())
