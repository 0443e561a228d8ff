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
from typing import Dict, Iterator, List, Optional, Tuple

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
    #: Row count of the chunked-discovery parity section (0 disables
    #: it): discovery on the R3 stand-in stored as a
    #: :class:`ChunkedRelation` of at least two chunks, asserted ``==``
    #: brute force on the materialised relation.
    chunked_discovery_rows: int = 20_000
    #: Rows per stored chunk of the ChunkedRelations the discovery
    #: sections build.
    chunk_size: int = 8_192
    #: Row count of the out-of-core chunked-discovery smoke (0 disables
    #: it; CLI-gated via ``--runtime-discovery-rows``).  The smoke
    #: streams a block-generated synthetic relation straight into a
    #: :class:`ChunkedRelation`, discovers on it, and
    #: asserts — under tracemalloc — that no row list was materialised.
    discovery_rows: int = 0

    def measure_config(self) -> MeasureConfig:
        return MeasureConfig(sfi_alpha=self.sfi_alpha)


#: Smoke-scale override used by ``--smoke`` (CI): small fixed relations,
#: fewer repeats — same code path, same artifact schema.
SMOKE_SIZES: Tuple[int, ...] = (500, 2_000)
SMOKE_REPEATS = 2
SMOKE_CHUNKED_DISCOVERY_ROWS = 5_000
SMOKE_CHUNK_SIZE = 1_024


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


def _run_chunked_discovery_section(config: RuntimeConfig) -> Optional[Dict[str, object]]:
    """Discovery on a chunked relation, timed and checked against brute force.

    The relation is the R3 stand-in (six attributes, so 30
    single-attribute candidates; the key ``encounter_id``; NULLs in
    ``ward`` and ``clinic``), so the chunked pass runs the full-tuple
    pass of ``Σ_w R(w)²``, the NULL restriction and key pruning.  It is
    stored in at least two chunks: the configured chunk size, capped at
    half the rows.  :func:`discover_afds` runs on that
    :class:`ChunkedRelation` while :func:`brute_force_afds`
    (``max_lhs_size=1``) scores the same candidates monolithically on
    the row-list form — candidate order, all fourteen scores and
    exactness flags are asserted identical in-run, so the recorded
    seconds time a verified result.
    """
    from repro.discovery import brute_force_afds, discover_afds
    from repro.relation.chunked import ChunkedRelation
    from repro.rwd.datasets import build_dataset

    if not config.chunked_discovery_rows:
        return None
    num_rows = config.chunked_discovery_rows
    relation = build_dataset("R3", num_rows, seed=config.seed).relation
    chunk_size = min(config.chunk_size, -(-num_rows // 2))
    chunked_relation = ChunkedRelation.from_relation(relation, chunk_size=chunk_size)
    measures = config.measure_config().build()
    started = time.perf_counter()
    result = discover_afds(chunked_relation, measures=dict(measures))
    seconds = time.perf_counter() - started
    oracle = brute_force_afds(relation, measures=dict(measures), max_lhs_size=1)
    if [str(c.fd) for c in result.candidates] != [str(c.fd) for c in oracle.candidates]:
        raise AssertionError(
            f"chunked discovery candidate order differs from brute force on {relation.name}"
        )
    for chunked_candidate, oracle_candidate in zip(result.candidates, oracle.candidates):
        if (
            chunked_candidate.scores != oracle_candidate.scores
            or chunked_candidate.exact != oracle_candidate.exact
        ):
            raise AssertionError(
                f"chunked discovery scores (fd={chunked_candidate.fd}) differ from "
                f"brute force on {relation.name}"
            )
    return {
        "name": relation.name,
        "num_rows": num_rows,
        "chunk_size": chunk_size,
        "num_chunks": chunked_relation.num_chunks,
        "seconds": seconds,
        "candidates": len(result.candidates),
        "statistics_computed": result.counters["statistics_computed"],
        "identical_to_brute_force": True,
    }


#: Rows generated per block in the streamed synthetic generator: big
#: enough for vectorised sampling to amortise, small enough that one
#: block's transient Python ints stay far under the smoke's memory bar.
_STREAM_BLOCK_ROWS = 200_000


def _stream_synthetic_rows(
    num_rows: int, seed: int, block_rows: int = _STREAM_BLOCK_ROWS
) -> Iterator[Tuple[int, int]]:
    """Block-wise streamed ``(X, Y)`` rows of the fixed benchmark family.

    The same planted-FD-plus-error-channel shape as
    :func:`build_fixed_relation` (Beta-skewed X, dictionary Y, ~1%
    corrupted Y), generated one block at a time and yielded row by row —
    the full row list never exists, which is the point of the smoke this
    feeds.  The *domains* are capped at the 1M-relation family's
    (``domain_x`` 50k): the smoke scales rows, not cardinality, so the
    statistics' O(distinct) structures stay bounded and the memory
    budget isolates exactly the thing under test — whether a row list
    was materialised.
    """
    import numpy as np

    from repro.synthetic.beta import sample_domain_values

    parameters = fixed_relation_parameters(min(num_rows, 1_000_000))
    rng = np.random.default_rng(seed + num_rows)
    dictionary = sample_domain_values(
        rng,
        parameters.domain_y_size,
        parameters.domain_x_size,
        parameters.alpha_y,
        parameters.beta_y,
    )
    remaining = num_rows
    while remaining > 0:
        block = min(block_rows, remaining)
        x_values = sample_domain_values(
            rng, parameters.domain_x_size, block, parameters.alpha_x, parameters.beta_x
        )
        y_values = dictionary[x_values].copy()
        errors = rng.random(block) < parameters.error_rate
        error_count = int(errors.sum())
        if error_count:
            y_values[errors] = rng.integers(
                0, parameters.domain_y_size, error_count
            )
        yield from zip(x_values.tolist(), y_values.tolist())
        remaining -= block


#: Fixed allowance on top of the 48 bytes/row budget: one generator
#: block of transient Python ints plus interpreter noise.  Sized so it
#: cannot hide a 10M-row list (>= 500 MB) while letting small CLI
#: sanity runs pass.
_SMOKE_FIXED_ALLOWANCE = 64 * 1024 * 1024


def run_discovery_smoke(
    num_rows: int,
    seed: int = 97,
    chunk_size: int = 100_000,
    measures=None,
) -> Dict[str, object]:
    """Out-of-core chunked-discovery smoke: ingest + discover, row-list free.

    Streams ``num_rows`` synthetic rows straight into a
    :class:`ChunkedRelation` and runs :func:`discover_afds` on it, all
    under ``tracemalloc``; the traced peak must stay
    under 48 bytes/row (plus a fixed block-transient allowance) — a
    ceiling a materialised list of 10M row tuples (≥ 500 MB of tuple+int
    overhead alone) cannot fit, so passing proves the pipeline never
    built one.  Scoring uses all fourteen measures by default.  Returns
    the timings, peak and discovery counters for the bench payload.
    """
    import tracemalloc

    from repro.core.registry import all_measures
    from repro.discovery import discover_afds
    from repro.relation.chunked import ChunkedRelation

    if num_rows < 1:
        raise ValueError(f"discovery smoke needs num_rows >= 1, got {num_rows}")
    if measures is None:
        measures = all_measures()
    budget_bytes = num_rows * 48 + _SMOKE_FIXED_ALLOWANCE
    tracemalloc.start()
    try:
        started = time.perf_counter()
        relation = ChunkedRelation(
            ("X", "Y"),
            _stream_synthetic_rows(num_rows, seed),
            name=f"runtime-stream[{num_rows}]",
            chunk_size=chunk_size,
        )
        ingest_seconds = time.perf_counter() - started
        started = time.perf_counter()
        result = discover_afds(relation, measures=dict(measures))
        discover_seconds = time.perf_counter() - started
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if peak_bytes >= budget_bytes:
        raise AssertionError(
            f"chunked-discovery smoke peaked at {peak_bytes} bytes "
            f"(budget {budget_bytes} = {num_rows} rows x 48); a row list "
            f"has been materialised somewhere in the pipeline"
        )
    return {
        "num_rows": num_rows,
        "chunk_size": chunk_size,
        "ingest_seconds": ingest_seconds,
        "discover_seconds": discover_seconds,
        "measures": list(measures),
        "candidates": len(result.candidates),
        "statistics_computed": result.counters["statistics_computed"],
        "peak_bytes": peak_bytes,
        "budget_bytes": budget_bytes,
        "row_list_free": True,
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
    chunked_discovery = _run_chunked_discovery_section(config)
    if config.discovery_rows:
        smoke = run_discovery_smoke(
            config.discovery_rows, seed=config.seed, chunk_size=config.chunk_size
        )
        if chunked_discovery is None:
            chunked_discovery = {"smoke": smoke}
        else:
            chunked_discovery["smoke"] = smoke
    payload: Dict[str, object] = {
        "experiment": "runtime",
        "config": asdict(config),
        "metadata": {"cpu_count": os.cpu_count()},
        "relations": relations,
        # Partition-free discovery on a chunked relation (parity-asserted
        # against brute force), plus the optional out-of-core smoke when
        # ``discovery_rows`` is set.
        "chunked_discovery": chunked_discovery,
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
