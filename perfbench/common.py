"""Shared helpers of the benchmark: paths, timing windows, percentiles, output.

Every workload module builds its inputs from ``--seed``, measures for
``--seconds``, verifies every answer, and hands :func:`emit` its metric
values; :func:`emit` prints a provenance record line and then the result
line (the last line of standard output).
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from reference import MEASURES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Unit of every metric the benchmark can print (BENCHMARK.json agrees).
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "write_latency_p50_ms": "ms",
    "write_latency_p90_ms": "ms",
    "ingest_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}

#: Unit of every per-layer metric of a traced run (BENCHMARK.json agrees).
#: A layer a workload never calls reports 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "relation.ingest_s": "s",
    "relation.encode_s": "s",
    "statistics.calls": "count",
    "statistics.s": "s",
    "statistics.p50_ms": "ms",
    "expectation.calls": "count",
    "expectation.s": "s",
    **{f"measure.{name}.s": "s" for name in MEASURES},
    "discovery.candidates": "count",
    "discovery.statistics_computed": "count",
    "discovery.overhead_s": "s",
    "stream.apply_delta_s": "s",
    "stream.incremental_refreshes": "count",
    "session.statistics_hits": "count",
    "session.statistics_misses": "count",
    "session.hit_ratio": "ratio",
    "service.parse_s": "s",
    "service.pipe_s": "s",
    "service.statistics_s": "s",
    "service.scoring_s": "s",
    "service.coalesced_requests": "count",
    "service.coalesced_batches": "count",
    "trace.ops": "count",
    "trace.overhead_pct": "%",
}

#: How many times each workload repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 5


#: Milliseconds one calibration unit takes on the 2-core reference runner
#: at its usual speed.  Times are reported at that speed (see HostSpeed).
CALIBRATION_REFERENCE_MS = 10.0


try:
    import numpy
except ImportError:  # the calibration then times only its pure-python half
    numpy = None

_CALIBRATION_CODES = None if numpy is None else numpy.arange(60_000) % 1009


def calibration_unit() -> float:
    """A fixed mix of interpreter work like the workloads': dict counting,
    float logs, and one numpy group-by when numpy is present.  It allocates
    no container objects, so garbage collection of the (large) benchmark
    heap cannot inflate it."""
    counts = dict.fromkeys(range(1009), 0)
    total = 0.0
    for i in range(30_000):
        key = i * 7919 % 1009
        counts[key] += 1
        total += math.log(counts[key] + 1.0)
    if numpy is not None:
        _, frequencies = numpy.unique(_CALIBRATION_CODES, return_counts=True)
        total += float(frequencies.sum())
    return total


class HostSpeed:
    """Samples the host's speed and scales measured times to reference speed.

    Shared runners change speed by up to half for seconds to minutes at a
    time, which moves every workload alike.  Between operations the
    benchmark times :func:`calibration_unit` (at most every ``interval``
    seconds); an operation's time is multiplied by the host speed sampled
    around it (1.0 = reference, below 1 = slower), so figures from a slow
    and a fast period compare.  Like a same-run ratio, this cancels host
    speed and keeps every change to the program.
    """

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.samples: List[tuple] = []
        self.sample()

    def sample(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            calibration_unit()
            elapsed = time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        self.samples.append((started + elapsed / 2, CALIBRATION_REFERENCE_MS / 1e3 / elapsed))

    def tick(self) -> None:
        """Sample if the last sample is older than ``interval``."""
        if time.perf_counter() - self.samples[-1][0] >= self.interval:
            self.sample()

    def over(self, start: float, end: float) -> float:
        """Mean speed sampled from just before ``start`` to just after ``end``."""
        near = [
            speed
            for at, speed in self.samples
            if start - self.interval <= at <= end + self.interval
        ]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - start))[1]]
        return sum(near) / len(near)

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` seconds at reference speed."""
        return (end - start) * self.over(start, end)

    def summary(self) -> Dict[str, float]:
        speeds = [speed for _, speed in self.samples]
        return {
            "samples": len(speeds),
            "min": min(speeds),
            "median": median(speeds),
            "max": max(speeds),
        }


def import_repro():
    """Put the checkout's ``src`` on the path and import the package.

    Raises ``ImportError`` when the checkout holds no ``src/repro`` — the
    benchmark then exits non-zero without printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    return repro


def nproc() -> int:
    """CPUs this process may run on (``nproc``), at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def timed_setup(build: Callable[[], object], speed: HostSpeed, repeats: int = SETUP_REPEATS):
    """Run ``build`` ``repeats`` times; return ``(last result, median seconds)``.

    Seconds are at reference speed.  Earlier results are released before
    the next build so repeated set-up never holds two copies of the inputs.
    """
    seconds: List[float] = []
    result = None
    for _ in range(repeats):
        result = None
        speed.sample()
        started = time.perf_counter()
        result = build()
        ended = time.perf_counter()
        speed.sample()
        seconds.append(speed.scaled(started, ended))
    return result, median(seconds)


class PassRun:
    """Whole passes of a workload's operations, timed at reference speed.

    Subclasses define :meth:`one_pass`, which times every read and write
    operation through :meth:`timed`; each operation runs once per pass.
    """

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        #: operation -> one ``(start, end)`` span per pass
        self.reads: Dict[object, List[tuple]] = defaultdict(list)
        self.writes: Dict[object, List[tuple]] = defaultdict(list)
        self.passes = 0

    def one_pass(self) -> None:
        raise NotImplementedError

    def timed(self, spans: Dict[object, List[tuple]], key: object, call: Callable[[], object]):
        self.speed.tick()
        started = time.perf_counter()
        result = call()
        spans[key].append((started, time.perf_counter()))
        return result

    def window(self, seconds: float) -> None:
        """Run whole passes until ``seconds`` have elapsed (at least one).

        Stopping only at pass boundaries keeps the operation mix of every
        run identical, so rates and percentiles compare across runs.
        """
        started = time.perf_counter()
        while True:
            self.one_pass()
            self.passes += 1
            if time.perf_counter() - started >= seconds:
                break
        self.speed.sample()

    def typical_ms(self, spans: Dict[object, List[tuple]]) -> List[float]:
        """One latency per distinct operation: its median over the passes."""
        return [
            median([self.speed.scaled(start, end) * 1e3 for start, end in values])
            for values in spans.values()
        ]

    def end_to_end(self, ops_per_pass: int, rows_per_write: int) -> Dict[str, float]:
        """Rate and latency metrics of a typical pass.

        Percentiles over per-operation medians, and a pass taken as the sum
        of those medians, do not depend on how many passes fit in the
        window, and a burst of host slowness during one pass does not move
        them.
        """
        read_ms = self.typical_ms(self.reads)
        write_ms = self.typical_ms(self.writes)
        return {
            "ops_per_s": ops_per_pass / ((sum(read_ms) + sum(write_ms)) / 1e3),
            "latency_p50_ms": percentile(read_ms, 50),
            "latency_p90_ms": percentile(read_ms, 90),
            "write_latency_p50_ms": percentile(write_ms, 50),
            "write_latency_p90_ms": percentile(write_ms, 90),
            "ingest_rows_per_s": rows_per_write / (median(write_ms) / 1e3),
        }


def peak_rss_mb_self() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> Optional[str]:
    """The checkout's commit, read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def provenance(workload: str, seed: int, trace: bool, counts: Mapping[str, object]) -> Dict:
    """The record every run prints before its result line."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": None if numpy is None else numpy.__version__,
        "git_sha": git_sha(),
        "counts": dict(counts),
    }


def end_to_end(values: Mapping[str, float]) -> Dict[str, Dict[str, object]]:
    """Attach units to a full set of end-to-end values (every metric required)."""
    missing = set(END_TO_END_UNITS) - set(values)
    if missing:
        raise KeyError(f"workload did not report {sorted(missing)}")
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }


def per_layer(values: Mapping[str, tuple]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric with its unit; layers not reported read 0."""
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics {sorted(unknown)}")
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        value, reported_unit = values.get(name, (0.0, unit))
        if reported_unit != unit:
            raise ValueError(f"{name} reported in {reported_unit}, expected {unit}")
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics


def emit(record: Mapping, correct: bool, attempted: int, failed: int, metrics: Mapping) -> Dict:
    """Print the provenance record, then the result as the last stdout line."""
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": dict(metrics),
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return result
