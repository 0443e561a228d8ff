"""Driver for the service benchmark: warm speedup + serving throughput.

Quantifies what the ``repro.service`` front door buys over per-request
recomputation, on the same deterministic fixed relations as the runtime
benchmark (Table V protocol):

* **cold** — a fresh :class:`~repro.service.AfdSession` per request, so
  every request pays the full sufficient-statistics pass plus scoring
  (today's direct-call discipline; the columnar encoding is paid once,
  untimed, exactly like the runtime driver's warm-up);
* **warm** — one long-lived session serving every request, so the
  statistics object and every derived quantity cached on it (including
  the permutation expectation) are computed once and shared; the
  headline ``warm_speedup`` is cold-median over warm-median on the
  largest fixed relation;
* **throughput** — the real HTTP server on a loopback ephemeral port,
  hammered by 1/4/8/16 client threads (each holding one persistent
  HTTP/1.1 connection) issuing ``POST /v1/relations/<name>/score``
  requests, in both serving modes: **serial** (in-process, the
  ``--workers 0`` deployment) and **sharded** (``--workers N`` worker
  processes behind the async front end, same-relation requests
  coalesced into batched passes).  Requests/sec per thread count and
  the sharded-over-serial / 8-over-1-thread scaling ratios are
  recorded; sharded responses are asserted bit-identical to serial
  ones (:func:`~repro.service.model.stable_view` strips the volatile
  timing fields first).

Warm scores are asserted ``==``-identical to cold scores on every
relation.  Artifacts: ``summary.json`` + ``summary.csv`` under
``<output_dir>/service/`` and the compact repo-root
``BENCH_service.json`` perf record.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.experiments.io import ensure_directory, write_csv, write_json
from repro.obs.metrics import set_enabled as obs_set_enabled
from repro.experiments.runtime import build_fixed_relation
from repro.service.model import stable_view
from repro.service.server import ServiceState, make_server, make_sharded_server
from repro.service.session import AfdSession
from repro.synthetic.generator import SYNTHETIC_FD


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that determines one service benchmark run."""

    sizes: Tuple[int, ...] = (1_000, 5_000, 20_000)
    client_threads: Tuple[int, ...] = (1, 4, 8, 16)
    requests_per_thread: int = 25
    repeats: int = 7
    workers: int = 4
    seed: int = 97
    sfi_alpha: float = 0.5

    def measure_options(self) -> Dict[str, object]:
        return {"sfi_alpha": self.sfi_alpha}

    def session(self, relation) -> AfdSession:
        return AfdSession(relation, **self.measure_options())


#: Smoke-scale override used by ``--smoke`` (CI): same code path and
#: artifact schema, laptop-friendly sizes.
SMOKE_SIZES: Tuple[int, ...] = (500, 2_000)
SMOKE_THREADS: Tuple[int, ...] = (1, 2)
SMOKE_REQUESTS = 5
SMOKE_REPEATS = 3
SMOKE_WORKERS = 2


def _time_cold(relation, config: ServiceConfig) -> Tuple[List[float], Dict[str, float]]:
    """Per-request sessions: every request recomputes the statistics."""
    config.session(relation).score(SYNTHETIC_FD)  # untimed: pays the columnar encode
    runs: List[float] = []
    scores: Dict[str, float] = {}
    for _ in range(config.repeats):
        session = config.session(relation)
        started = time.perf_counter()
        result = session.score(SYNTHETIC_FD)
        runs.append(time.perf_counter() - started)
        scores = result.scores
    return runs, scores


def _time_warm(relation, config: ServiceConfig) -> Tuple[List[float], Dict[str, float], AfdSession]:
    """One session for all requests: statistics computed once, then hits."""
    session = config.session(relation)
    session.score(SYNTHETIC_FD)  # untimed: populates the cache
    runs: List[float] = []
    scores: Dict[str, float] = {}
    for _ in range(config.repeats):
        started = time.perf_counter()
        result = session.score(SYNTHETIC_FD)
        runs.append(time.perf_counter() - started)
        if not result.cache_hit:
            raise RuntimeError("warm request missed the session cache")
        scores = result.scores
    return runs, scores, session


# ----------------------------------------------------------------------
# Throughput over the wire
# ----------------------------------------------------------------------
def _post_on(connection: http.client.HTTPConnection, path: str, body: bytes) -> bytes:
    connection.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    data = response.read()
    if response.status not in (200, 201):  # pragma: no cover - server contract
        raise RuntimeError(f"unexpected status {response.status}: {data[:200]!r}")
    return data


def _throughput_mode(
    relation, config: ServiceConfig, mode: str
) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """Requests/sec of ``POST /v1/relations/<name>/score`` in one mode.

    ``mode`` is ``"serial"`` (in-process serving) or ``"sharded"``
    (``config.workers`` worker processes).  Every client thread keeps one
    persistent HTTP/1.1 connection — both modes measured identically.
    Returns the per-thread-count cells plus one reference response body
    for the cross-mode bit-identity assertion.
    """
    if mode == "sharded":
        server, _pool = make_sharded_server(
            workers=config.workers,
            measure_options=config.measure_options(),
        )
    else:
        state = ServiceState(measure_options=config.measure_options())
        server, _ = make_server(state=state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    score_path = f"/v1/relations/{relation.name}/score"
    score_body = json.dumps({"fd": str(SYNTHETIC_FD)}).encode("utf-8")

    results: List[Dict[str, object]] = []
    try:
        setup = http.client.HTTPConnection(host, port)
        _post_on(
            setup,
            "/v1/relations",
            json.dumps(
                {
                    "name": relation.name,
                    "attributes": list(relation.attributes),
                    "rows": [list(row) for row in relation.rows()],
                }
            ).encode("utf-8"),
        )
        reference = json.loads(_post_on(setup, score_path, score_body))  # warm, untimed
        setup.close()
        for threads in config.client_threads:
            total = threads * config.requests_per_thread
            errors: List[BaseException] = []

            def worker() -> None:
                connection = http.client.HTTPConnection(host, port)
                try:
                    for _ in range(config.requests_per_thread):
                        _post_on(connection, score_path, score_body)
                except BaseException as error:  # pragma: no cover - rethrown below
                    errors.append(error)
                finally:
                    connection.close()

            workers = [threading.Thread(target=worker) for _ in range(threads)]
            started = time.perf_counter()
            for worker_thread in workers:
                worker_thread.start()
            for worker_thread in workers:
                worker_thread.join()
            elapsed = time.perf_counter() - started
            if errors:
                raise errors[0]
            results.append(
                {
                    "mode": mode,
                    "threads": threads,
                    "requests": total,
                    "seconds": elapsed,
                    "requests_per_second": total / elapsed if elapsed > 0 else 0.0,
                }
            )
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
    return results, reference


def _observability_overhead(relation, config: ServiceConfig) -> Dict[str, object]:
    """Sharded throughput with instrumentation on vs off, interleaved.

    ``repro.obs`` must be effectively free: the front end pays a few
    registry increments per request against a statistics-pass-sized
    request cost.  Measured on the given (smallest, most
    request-rate-bound) relation — the honest worst case for a
    per-request overhead.  Runs alternate disabled/enabled so clock
    drift and cache warmth bias neither mode; ``set_enabled`` flips the
    module flag *before* the pool forks, so workers inherit the state.
    """
    threads = config.client_threads[-1] if config.client_threads else 1
    # Longer runs than the scaling sweep: a 0.1s burst is dominated by
    # thread scheduling, not by the per-request instrumentation cost.
    requests = max(config.requests_per_thread, 600 // max(threads, 1))
    single = replace(
        config, client_threads=(threads,), requests_per_thread=requests
    )
    pairs = max(3, min(config.repeats, 5))
    runs: Dict[str, List[float]] = {"enabled": [], "disabled": []}
    try:
        for _ in range(pairs):
            obs_set_enabled(False)
            cells, _ = _throughput_mode(relation, single, "sharded")
            runs["disabled"].append(float(cells[0]["requests_per_second"]))
            obs_set_enabled(True)
            cells, _ = _throughput_mode(relation, single, "sharded")
            runs["enabled"].append(float(cells[0]["requests_per_second"]))
    finally:
        obs_set_enabled(True)
    # Best-of-runs: the least-interfered run of each mode.  Medians of
    # sub-second throughput bursts carry scheduler noise an order of
    # magnitude above the instrumentation cost being measured.
    enabled_rps = max(runs["enabled"])
    disabled_rps = max(runs["disabled"])
    overhead = 1.0 - enabled_rps / disabled_rps if disabled_rps > 0 else None
    return {
        "relation": relation.name,
        "num_rows": relation.num_rows,
        "threads": threads,
        "requests_per_thread": requests,
        "pairs": pairs,
        "runs": runs,
        "enabled_rps_best": enabled_rps,
        "disabled_rps_best": disabled_rps,
        # Fraction of sharded throughput lost with instrumentation on
        # (negative = measured faster than the disabled run; noise).
        "overhead_fraction": overhead,
    }


def _scaling(cells: List[Dict[str, object]], numerator: int, denominator: int):
    """Throughput ratio between two thread counts of one mode's cells."""
    by_threads = {cell["threads"]: cell["requests_per_second"] for cell in cells}
    high, low = by_threads.get(numerator), by_threads.get(denominator)
    if high is None or low is None or low <= 0:
        return None
    return high / low


def run_service(
    config: ServiceConfig = ServiceConfig(),
    output_dir: Optional[str] = "results",
    bench_path: Optional[str] = "BENCH_service.json",
) -> Dict[str, object]:
    """Run the full service benchmark and persist its artifacts."""
    relations: List[Dict[str, object]] = []
    for num_rows in config.sizes:
        relation = build_fixed_relation(num_rows, config.seed)
        cold_runs, cold_scores = _time_cold(relation, config)
        warm_runs, warm_scores, _ = _time_warm(relation, config)
        if warm_scores != cold_scores:
            raise RuntimeError(
                f"warm-session scores diverged from cold recompute on {relation.name}"
            )
        serial_cells, serial_reference = _throughput_mode(relation, config, "serial")
        sharded_cells, sharded_reference = _throughput_mode(relation, config, "sharded")
        if stable_view(serial_reference) != stable_view(sharded_reference):
            raise RuntimeError(
                f"sharded /score response diverged from serial serving on "
                f"{relation.name}"
            )
        cold_median = median(cold_runs)
        warm_median = median(warm_runs)
        peak = config.client_threads[-1] if config.client_threads else 1
        base = config.client_threads[0] if config.client_threads else 1
        relations.append(
            {
                "name": relation.name,
                "num_rows": relation.num_rows,
                "cold_seconds_median": cold_median,
                "warm_seconds_median": warm_median,
                "warm_speedup": cold_median / warm_median if warm_median > 0 else None,
                "cold_seconds_runs": cold_runs,
                "warm_seconds_runs": warm_runs,
                "throughput": {"serial": serial_cells, "sharded": sharded_cells},
                "sharded_matches_serial": True,
                # Thread-scaling ratios: peak-thread over single-thread
                # requests/sec within each serving mode.  >= 1.0 means
                # no collapse under concurrency.
                "serial_scaling": _scaling(serial_cells, peak, base),
                "sharded_scaling": _scaling(sharded_cells, peak, base),
                "sharded_scaling_8_over_1": _scaling(sharded_cells, 8, 1),
            }
        )
    largest = max(relations, key=lambda entry: entry["num_rows"]) if relations else None
    smallest = min(relations, key=lambda entry: entry["num_rows"]) if relations else None
    observability = None
    if smallest is not None:
        observability = _observability_overhead(
            build_fixed_relation(int(smallest["num_rows"]), config.seed), config
        )
    payload: Dict[str, object] = {
        "experiment": "service",
        "config": asdict(config),
        "client_threads": list(config.client_threads),
        "workers": config.workers,
        "scores_verified": True,
        "sharded_matches_serial": all(
            entry["sharded_matches_serial"] for entry in relations
        ),
        "relations": relations,
        "largest": None
        if largest is None
        else {
            "name": largest["name"],
            "num_rows": largest["num_rows"],
            "warm_speedup": largest["warm_speedup"],
        },
        # The headline number: warm-session over cold per-request median
        # wall-clock of one /score profile on the largest fixed relation.
        "speedup": None if largest is None else largest["warm_speedup"],
        # The sharding headline: peak-thread over single-thread sharded
        # requests/sec on the smallest (most request-rate-bound) relation.
        "sharded_scaling": None if smallest is None else smallest["sharded_scaling"],
        # Instrumentation cost: sharded requests/sec with repro.obs
        # enabled vs disabled on the smallest relation (worst case for a
        # per-request overhead).  Acceptance: overhead_fraction <= 0.05.
        "observability": observability,
    }
    if output_dir is not None:
        _write_artifacts(Path(output_dir) / "service", payload)
    if bench_path is not None:
        write_json(bench_path, payload)
    return payload


def _write_artifacts(directory: Path, payload: Dict[str, object]) -> None:
    ensure_directory(directory)
    write_json(directory / "summary.json", payload)
    fields = ["relation", "num_rows", "metric", "value"]

    def rows():
        for entry in payload["relations"]:  # type: ignore[union-attr]
            for metric in (
                "cold_seconds_median",
                "warm_seconds_median",
                "warm_speedup",
                "serial_scaling",
                "sharded_scaling",
            ):
                yield {
                    "relation": entry["name"],
                    "num_rows": entry["num_rows"],
                    "metric": metric,
                    "value": entry[metric],
                }
            for mode, cells in entry["throughput"].items():
                for cell in cells:
                    yield {
                        "relation": entry["name"],
                        "num_rows": entry["num_rows"],
                        "metric": f"requests_per_second[{mode},{cell['threads']}]",
                        "value": cell["requests_per_second"],
                    }
        observability = payload.get("observability")
        if observability is not None:
            for metric in (
                "enabled_rps_best",
                "disabled_rps_best",
                "overhead_fraction",
            ):
                yield {
                    "relation": observability["relation"],
                    "num_rows": observability["num_rows"],
                    "metric": f"observability[{metric}]",
                    "value": observability[metric],
                }

    write_csv(directory / "summary.csv", fields, rows())
