"""``profile``: the paper's Table V use, in process and single-threaded.

Each pass ingests the five RWD stand-ins R1-R5 afresh (``Relation`` +
its columnar encoding), opens one fresh ``AfdSession`` per relation, and
scores every ordered single-attribute candidate ``X -> Y`` with all
fourteen measures at the library defaults (exact RFI+ expectation).  All
candidates are cold, so the expectation and SFI dominate.

Read operations are ``score`` calls; write operations are the per-relation
ingests.
"""

from __future__ import annotations

from typing import Dict, Tuple

from common import HostSpeed, PassRun, peak_rss_mb_self, timed_setup
from reference import MEASURES, RelationColumns, mismatches

#: Rows per stand-in relation.  Candidates whose SFI grid or expectation
#: spans key x non-key domains cost seconds each, so the size stays modest.
ROWS = 1000


def build_inputs(seed: int, rows: int = ROWS):
    """``[(name, attributes, rows, candidates)]`` for R1-R5 at ``seed``."""
    from repro.rwd.datasets import build_dataset, dataset_keys

    inputs = []
    for key in dataset_keys():
        relation = build_dataset(key, rows, seed=seed).relation
        attributes = tuple(relation.attributes)
        candidates = [(x, y) for x in attributes for y in attributes if x != y]
        inputs.append((key, attributes, list(relation), candidates))
    return inputs


class ProfileRun(PassRun):
    """One window of profile passes and what it observed."""

    def __init__(self, inputs, speed: HostSpeed):
        super().__init__(speed)
        self.inputs = inputs
        self.operations = 0
        self.scores: Dict[Tuple[str, str, str], Dict[str, float]] = {}
        self.inconsistent = 0

    def one_pass(self) -> None:
        from repro import AfdSession, FunctionalDependency, Relation

        def ingest(key, attributes, rows):
            relation = Relation(attributes, rows, name=key)
            relation.columnar()
            return relation

        for key, attributes, rows, candidates in self.inputs:
            relation = self.timed(self.writes, key, lambda: ingest(key, attributes, rows))
            session = AfdSession(relation)
            for lhs, rhs in candidates:
                label = (key, lhs, rhs)
                fd = FunctionalDependency(lhs, rhs)
                result = self.timed(self.reads, label, lambda: session.score(fd))
                self.operations += 1
                if self.scores.setdefault(label, result.scores) != result.scores:
                    self.inconsistent += 1

    def failed(self) -> int:
        """Scores off the reference (every pass of a candidate counts)."""
        failed = self.inconsistent
        for key, attributes, rows, candidates in self.inputs:
            reference = RelationColumns(attributes, rows)
            for lhs, rhs in candidates:
                scores = self.scores.get((key, lhs, rhs))
                if scores is None or mismatches(scores, reference.scores(lhs, rhs)):
                    failed += self.passes
        return failed


def run(seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Returns ``(record counts, correct, attempted, failed, metrics)``."""
    rows = max(20, int(ROWS * scale))
    speed = HostSpeed()
    inputs, setup_s = timed_setup(lambda: build_inputs(seed, rows), speed)
    candidates = sum(len(entry[3]) for entry in inputs)
    counts = {"relations": len(inputs), "rows_per_relation": rows, "candidates_per_pass": candidates}
    if trace:
        return traced(inputs, seconds, counts, speed)
    run_ = ProfileRun(inputs, speed)
    run_.window(seconds)
    failed = run_.failed()
    counts.update(operations=run_.operations, passes=run_.passes, host_speed=speed.summary())
    metrics = run_.end_to_end(candidates, rows)
    metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb_self())
    return counts, failed == 0, run_.operations, failed, metrics


def traced(inputs, seconds: float, counts, speed: HostSpeed):
    """Untraced half-window, then a traced half-window with per-layer spans."""
    from layers import LayerTracer, local_metrics, session_metrics

    candidates = counts["candidates_per_pass"]
    plain = ProfileRun(inputs, speed)
    plain.window(seconds / 2)
    observed = ProfileRun(inputs, speed)
    before = local_metrics()
    with LayerTracer() as tracer:
        observed.window(seconds / 2)
    layers = tracer.layer_metrics(MEASURES)
    layers.update(session_metrics(before, local_metrics()))
    untraced_rate = plain.end_to_end(candidates, 1)["ops_per_s"]
    traced_rate = observed.end_to_end(candidates, 1)["ops_per_s"]
    layers["trace.ops"] = (observed.operations, "count")
    layers["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1.0) * 100.0, "%")
    failed = plain.failed() + observed.failed()
    attempted = plain.operations + observed.operations
    counts.update(operations=attempted, host_speed=speed.summary())
    return counts, failed == 0, attempted, failed, layers
