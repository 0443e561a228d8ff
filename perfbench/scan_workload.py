"""``scan``: out-of-core ranking of every single-attribute candidate.

Set-up writes seeded R1 and R5 stand-ins (key columns included) as gzip
CSV into a scratch directory inside the checkout.  Each pass streams each
file with ``ChunkedRelation.read_csv`` and ranks it with
``AfdSession(chunked).discover(threshold=0.0, measures=SCAN_MEASURES)`` —
the efficiently computable measures, so ingest and the statistics pass
do the work while the expectation and SFI are bypassed.

Read operations are ``discover`` calls; write operations are the
``read_csv`` ingests.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Dict, Tuple

from common import ROOT, HostSpeed, PassRun, peak_rss_mb_self, timed_setup
from reference import RelationColumns, mismatches

#: Rows per file.
ROWS = 12_000

#: The two stand-ins written to disk.
DATASETS = ("R1", "R5")

#: Measures ranked by the scan (no permutation expectation, no SFI).
SCAN_MEASURES = ("rho", "g3", "fi", "g1_prime", "pdep", "tau", "mu_plus")


def write_inputs(seed: int, rows: int, directory: str):
    """Write the files; returns ``[(name, path, attributes, rows)]``."""
    from repro.relation.io import write_csv
    from repro.rwd.datasets import build_dataset

    inputs = []
    for key in DATASETS:
        relation = build_dataset(key, rows, seed=seed).relation
        path = f"{directory}/{key}.csv.gz"
        write_csv(relation, path)
        inputs.append((key, path, tuple(relation.attributes), list(relation)))
    return inputs


class ScanRun(PassRun):
    def __init__(self, inputs, speed: HostSpeed):
        super().__init__(speed)
        self.inputs = inputs
        self.candidates = 0
        self.statistics_computed = 0
        self.scores: Dict[Tuple[str, str, str], Dict[str, float]] = {}
        self.inconsistent = 0

    def one_pass(self) -> None:
        from repro import AfdSession
        from repro.relation.chunked import ChunkedRelation

        for key, path, attributes, rows in self.inputs:
            chunked = self.timed(
                self.writes, key, lambda: ChunkedRelation.read_csv(path, name=key)
            )
            result = self.timed(
                self.reads,
                key,
                lambda: AfdSession(chunked).discover(threshold=0.0, measures=list(SCAN_MEASURES)),
            )
            self.candidates += len(result.candidates)
            self.statistics_computed += result.counters.get("statistics_computed", 0)
            for candidate in result.candidates:
                label = (key, ",".join(candidate.lhs), ",".join(candidate.rhs))
                if self.scores.setdefault(label, candidate.scores) != candidate.scores:
                    self.inconsistent += 1

    def discover_seconds(self) -> float:
        return sum(end - start for spans in self.reads.values() for start, end in spans)

    def failed(self) -> int:
        """Candidates ranked wrongly or missing, counted per pass."""
        failed = self.inconsistent
        for key, path, attributes, rows in self.inputs:
            reference = RelationColumns(attributes, rows)
            for lhs in attributes:
                for rhs in attributes:
                    if lhs == rhs:
                        continue
                    scores = self.scores.get((key, lhs, rhs))
                    expected = reference.scores(lhs, rhs, SCAN_MEASURES)
                    if scores is None or mismatches(scores, expected):
                        failed += self.passes
        return failed


def run(seed: int, seconds: float, trace: bool, scale: float = 1.0):
    rows = max(50, int(ROWS * scale))
    speed = HostSpeed()
    directory = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        inputs, setup_s = timed_setup(lambda: write_inputs(seed, rows, directory), speed)
        counts = {"files": len(inputs), "rows_per_file": rows}
        if trace:
            return traced(inputs, seconds, counts, speed)
        run_ = ScanRun(inputs, speed)
        run_.window(seconds)
        failed = run_.failed()
        counts.update(
            operations=run_.candidates, passes=run_.passes, host_speed=speed.summary()
        )
        metrics = run_.end_to_end(run_.candidates // run_.passes, rows)
        metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb_self())
        return counts, failed == 0, run_.candidates, failed, metrics
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def traced(inputs, seconds: float, counts, speed: HostSpeed):
    """Untraced half-window, then a traced half-window with per-layer spans."""
    from layers import LayerTracer, local_metrics, session_metrics
    from reference import MEASURES

    plain = ScanRun(inputs, speed)
    plain.window(seconds / 2)
    observed = ScanRun(inputs, speed)
    before = local_metrics()
    with LayerTracer() as tracer:
        observed.window(seconds / 2)
    layers = tracer.layer_metrics(MEASURES)
    layers.update(session_metrics(before, local_metrics()))
    layers["discovery.candidates"] = (observed.candidates, "count")
    layers["discovery.statistics_computed"] = (observed.statistics_computed, "count")
    layers["discovery.overhead_s"] = (
        observed.discover_seconds() - tracer.seconds["statistics"], "s"
    )
    untraced_rate = plain.end_to_end(plain.candidates // plain.passes, 1)["ops_per_s"]
    traced_rate = observed.end_to_end(observed.candidates // observed.passes, 1)["ops_per_s"]
    layers["trace.ops"] = (observed.candidates, "count")
    layers["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1.0) * 100.0, "%")
    failed = plain.failed() + observed.failed()
    attempted = plain.candidates + observed.candidates
    counts.update(operations=attempted, host_speed=speed.summary())
    return counts, failed == 0, attempted, failed, layers
