"""Tests for ``repro.obs``: metrics algebra, tracing, logs, and the
observability surface of the service.

* The registry is a **mergeable partial**: counters/gauges/histogram
  cells sum keywise, and :func:`merge_snapshots` is associative and
  commutative (up to help text) — the property that makes per-worker
  snapshots foldable into one fleet view in any order.
* :func:`render_prometheus` emits the text exposition format 0.0.4; a
  minimal parser here re-reads every sample and checks the histogram
  invariants (cumulative buckets, ``+Inf`` == count).
* Tracing: a ``trace_id`` sent as ``X-Trace-Id`` crosses the front end,
  the shard pipe, and the worker session, and comes back both as a
  response header and in the JSON request log with per-stage spans.
* **Observability is read-only**: scoring and discovery are
  bit-identical with instrumentation enabled and disabled, on both
  statistics kernels.
"""

import json
import os
import random
import re
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from oracle import KERNELS, kernel
from repro.obs import (
    RequestLogger,
    Trace,
    add_span,
    current_trace,
    format_line,
    merge_snapshots,
    new_trace_id,
    render_prometheus,
    span,
    use_trace,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    get_registry,
    set_enabled,
)
from repro.relation import Relation
from repro.service.server import make_server, make_sharded_server
from repro.service.session import AfdSession


def small_relation(name="obs"):
    return Relation(
        ["zip", "city", "street"],
        [
            ("1000", "Brussels", "a"),
            ("1000", "Brussels", "b"),
            ("1000", "Bruxelles", "a"),
            ("3590", "Diepenbeek", "c"),
            ("3590", "Diepenbeek", "c"),
            (None, "X", "d"),
        ],
        name=name,
    )


# ----------------------------------------------------------------------
# MetricsRegistry basics
# ----------------------------------------------------------------------
def test_counter_gauge_histogram_round_trip():
    registry = MetricsRegistry()
    registry.inc("requests_total", route="/x", code="200")
    registry.inc("requests_total", 2, route="/x", code="200")
    registry.inc("requests_total", route="/y", code="500")
    registry.set_gauge("depth", 7, worker="0")
    registry.set_gauge("depth", 3, worker="0")  # gauges overwrite
    registry.observe("latency", 0.004)
    registry.observe("latency", 99.0)  # beyond the last bucket: +Inf only
    assert registry.value("requests_total", route="/x", code="200") == 3
    assert registry.value("requests_total", route="/y", code="500") == 1
    assert registry.value("depth", worker="0") == 3
    assert registry.value("latency") == 2  # histogram value() is the count
    assert registry.value("never_written") == 0
    totals = registry.totals()
    assert totals["requests_total"] == 4 and totals["latency"] == 2


def test_label_names_are_fixed_at_first_use():
    registry = MetricsRegistry()
    registry.inc("c", route="/x")
    with pytest.raises(ValueError):
        registry.inc("c", verb="GET")
    with pytest.raises(ValueError):
        registry.inc("c")  # missing the label entirely
    with pytest.raises(ValueError):
        registry.observe("c", 1.0, route="/x")  # type conflict
    with pytest.raises(ValueError):
        registry.inc("c", -1, route="/x")  # counters are monotone
    with pytest.raises(ValueError):
        registry.inc("bad name!")
    # Keyword order must not matter (the canonical key is sorted).
    registry.inc("two", b="1", a="2")
    registry.inc("two", a="2", b="1")
    assert registry.value("two", a="2", b="1") == 2


def test_disabled_registry_is_a_noop():
    registry = MetricsRegistry(enabled=False)
    registry.inc("c", route="/x")
    registry.observe("h", 1.0)
    registry.set_gauge("g", 5)
    assert registry.to_dict()["metrics"] == {}
    registry.enabled = True
    registry.inc("c", route="/x")
    assert registry.value("c", route="/x") == 1


def _random_registry(seed: int) -> MetricsRegistry:
    rng = random.Random(seed)
    registry = MetricsRegistry()
    for _ in range(rng.randrange(2, 30)):
        kind = rng.choice(("counter", "gauge", "histogram"))
        name = f"{kind}_{rng.randrange(4)}"
        labels = {"route": rng.choice(("/a", "/b")), "code": str(rng.randrange(3))}
        if kind == "counter":
            registry.inc(name, rng.randrange(1, 5), **labels)
        elif kind == "gauge":
            # Quarters are exact in binary: keywise float sums then agree
            # regardless of merge order, so equality can stay exact.
            registry.set_gauge(name, rng.randrange(40) / 4, **labels)
        else:
            registry.observe(name, rng.randrange(48) / 4, **labels)
    return registry


@pytest.mark.parametrize("seed", range(6))
def test_merge_snapshots_is_associative_and_commutative(seed):
    a, b, c = (_random_registry(seed * 3 + i).to_dict() for i in range(3))
    left = merge_snapshots(merge_snapshots(a, b), c)
    right = merge_snapshots(a, merge_snapshots(b, c))
    flat = merge_snapshots(a, b, c)
    assert left == right == flat
    assert merge_snapshots(c, a, b) == flat
    # Merging is pure: the inputs are not mutated.
    assert a == _random_registry(seed * 3).to_dict()


def test_merge_snapshots_rejects_conflicts():
    counter, gauge = MetricsRegistry(), MetricsRegistry()
    counter.inc("m")
    gauge.set_gauge("m", 1)
    with pytest.raises(ValueError):
        merge_snapshots(counter.to_dict(), gauge.to_dict())
    narrow, wide = MetricsRegistry(), MetricsRegistry()
    narrow.declare_histogram("h", buckets=(1.0, 2.0))
    narrow.observe("h", 1.5)
    wide.observe("h", 1.5)  # DEFAULT_BUCKETS
    with pytest.raises(ValueError):
        merge_snapshots(narrow.to_dict(), wide.to_dict())
    with pytest.raises(ValueError):
        merge_snapshots({"not": "a snapshot"})


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})? (?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str):
    """Minimal exposition parser: {(name, labels-tuple): float} + types."""
    samples, types = {}, {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, type_ = line.split(" ", 3)
            types[name] = type_
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable exposition line: {line!r}"
        labels = tuple(
            sorted(
                (key, value.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\"))
                for key, value in _LABEL_PAIR_RE.findall(match.group("labels") or "")
            )
        )
        value = match.group("value")
        samples[(match.group("name"), labels)] = (
            float("inf") if value == "+Inf" else float(value)
        )
    return samples, types


def test_render_prometheus_round_trips_through_a_parser():
    registry = MetricsRegistry()
    registry.declare_counter(
        "requests_total", help="Requests served.", label_names=("route", "code")
    )
    registry.inc("requests_total", 3, route="/v1/x", code="200")
    registry.set_gauge("depth", 2.5, worker="0")
    for value in (0.002, 0.002, 0.3, 42.0):
        registry.observe("latency", value, stage="pipe")
    text = render_prometheus(registry.to_dict())
    samples, types = parse_prometheus(text)
    assert types == {"requests_total": "counter", "depth": "gauge", "latency": "histogram"}
    assert "# HELP requests_total Requests served." in text
    assert samples[("requests_total", (("code", "200"), ("route", "/v1/x")))] == 3
    assert samples[("depth", (("worker", "0"),))] == 2.5
    # Histogram invariants: cumulative buckets, +Inf == count.
    count = samples[("latency_count", (("stage", "pipe"),))]
    assert count == 4
    assert samples[("latency_sum", (("stage", "pipe"),))] == pytest.approx(42.304)
    cumulative = [
        samples[("latency_bucket", (("le", str(float(b)) if not float(b).is_integer() else str(int(b))), ("stage", "pipe")))]
        for b in DEFAULT_BUCKETS
    ]
    assert cumulative == sorted(cumulative)
    assert samples[("latency_bucket", (("le", "+Inf"), ("stage", "pipe")))] == count
    assert cumulative[0] == 0 and cumulative[1] == 2  # 2 x 0.002 <= 0.0025


def test_render_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    hostile = 'a"b\\c\nd'
    registry.inc("c", 1, route=hostile)
    samples, _ = parse_prometheus(render_prometheus(registry.to_dict()))
    assert samples[("c", (("route", hostile),))] == 1


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_spans_record_only_under_a_current_trace():
    registry = get_registry()
    before = registry.value("stage_seconds", stage="orphan")
    assert current_trace() is None
    add_span("orphan", 0.001)  # no trace: observed, not recorded anywhere
    assert registry.value("stage_seconds", stage="orphan") == before + 1
    trace = Trace()
    with use_trace(trace):
        assert current_trace() is trace
        add_span("statistics", 0.25, fd="a -> b")
        with span("scoring", relation="t"):
            pass
    assert current_trace() is None
    names = [entry["name"] for entry in trace.span_dicts()]
    assert names == ["statistics", "scoring"]
    assert trace.span_dicts()[0]["fd"] == "a -> b"
    assert trace.span_dicts()[1]["seconds"] >= 0


def test_rfi_plus_records_one_expectation_span_per_statistics():
    """The permutation expectation is a production stage, inside ``scoring``.

    It is computed once per statistics object, so re-scoring at the same
    epoch (a statistics cache hit) records no second span, and a
    satisfied FD never reaches it.
    """
    registry = get_registry()
    session = AfdSession(small_relation())

    def expectation_spans(fd):
        trace = Trace()
        with use_trace(trace):
            session.score(fd, measures=["rfi_plus"])
        return [entry for entry in trace.span_dicts() if entry["name"] == "expectation"]

    before = registry.value("stage_seconds", stage="expectation")
    first = expectation_spans("zip -> city")
    assert len(first) == 1 and first[0]["seconds"] > 0.0
    assert registry.value("stage_seconds", stage="expectation") == before + 1
    assert expectation_spans("zip -> city") == []
    assert expectation_spans("city -> zip") == []  # satisfied: scores 1.0 early
    assert registry.value("stage_seconds", stage="expectation") == before + 1


def test_apply_delta_records_one_delta_span_per_accepted_delta():
    """The store mutation and the trackers' maintenance are one ``delta``
    stage; each tracked FD's refresh keeps its own ``statistics`` span.
    A rejected delta mutates nothing and records no ``delta`` span."""
    from repro.stream import DynamicRelation

    registry = get_registry()
    session = AfdSession(DynamicRelation.from_relation(small_relation()))
    session.score("zip -> city", measures=["g3"])
    session.score("city -> zip", measures=["g3"])

    def spans(**delta):
        trace = Trace()
        with use_trace(trace):
            session.apply_delta(**delta)
        return [entry["name"] for entry in trace.span_dicts()]

    before = registry.value("stage_seconds", stage="delta")
    names = spans(inserts=[("1000", "Brussels", "e")], deletes=[0], measures=["g3"])
    assert names.count("delta") == 1 and names.count("statistics") == 2
    assert names.index("delta") < names.index("statistics")
    assert registry.value("stage_seconds", stage="delta") == before + 1
    for rejected in (
        {"deletes": [999]},
        {"inserts": [("1000",)]},
        {"inserts": [("1000", "Brussels", "f")], "measures": ["nope"]},
    ):
        trace = Trace()
        with use_trace(trace), pytest.raises((KeyError, ValueError)):
            session.apply_delta(**rejected)
        assert [entry["name"] for entry in trace.span_dicts()] == []
    assert registry.value("stage_seconds", stage="delta") == before + 1
    assert session.epoch == 1


def test_trace_extend_does_not_reobserve_histograms():
    registry = get_registry()
    trace = Trace("abc123")
    before = registry.value("stage_seconds", stage="remote")
    trace.extend([{"name": "remote", "seconds": 0.5}])
    assert registry.value("stage_seconds", stage="remote") == before
    assert trace.span_dicts() == [{"name": "remote", "seconds": 0.5}]
    assert len(new_trace_id()) == 16


# ----------------------------------------------------------------------
# Request log
# ----------------------------------------------------------------------
def test_request_logger_slow_flag_and_filtering():
    lines = []
    logger = RequestLogger(sink=lines.append, slow_ms=100.0, log_all=False)
    logger.log({"path": "/fast", "duration_ms": 3.0})
    logger.log({"path": "/slow", "duration_ms": 250.0})
    records = [json.loads(line) for line in lines]
    assert [record["path"] for record in records] == ["/slow"]
    assert records[0]["slow"] is True
    everything = []
    RequestLogger(sink=everything.append, slow_ms=100.0).log(
        {"path": "/fast", "duration_ms": 3.0}
    )
    assert json.loads(everything[0])["slow"] is False
    line = format_line({"b": 1, "a": {"nested": True}})
    assert json.loads(line) == {"a": {"nested": True}, "b": 1}
    assert line.index('"a"') < line.index('"b"')  # sorted keys, one line
    assert "\n" not in line


# ----------------------------------------------------------------------
# Bit-identity: instrumentation must never change a result
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_name", KERNELS)
def test_score_and_discover_identical_with_instrumentation_off(kernel_name):
    def run():
        session = AfdSession(small_relation())
        with kernel(kernel_name):
            result = session.score("zip -> city")
            discovered = session.discover(threshold=0.1, max_lhs_size=2)
        return result.scores, [scored.to_dict() for scored in discovered.candidates]

    assert get_registry().enabled
    enabled = run()
    set_enabled(False)
    try:
        assert os.environ.get("REPRO_OBS_DISABLED") == "1"
        disabled = run()
    finally:
        set_enabled(True)
    assert os.environ.get("REPRO_OBS_DISABLED") is None
    assert enabled == disabled


# ----------------------------------------------------------------------
# End to end over HTTP
# ----------------------------------------------------------------------
def _request(base, method, path, payload=None, headers=()):
    request = urllib.request.Request(
        base + path,
        data=None if payload is None else json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **dict(headers)},
        method=method,
    )
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.headers), response.read()


def _relation_payload(name):
    relation = small_relation(name)
    return {
        "name": name,
        "attributes": list(relation.attributes),
        "rows": [list(row) for row in relation.rows()],
    }


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@pytest.fixture()
def sharded_service():
    sink = []
    logger = RequestLogger(sink=lambda line: sink.append(json.loads(line)))
    server, pool = make_sharded_server(workers=2, logger=logger)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = "http://{0}:{1}".format(*server.server_address)
    yield base, pool, sink
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()


def test_sharded_trace_metrics_stats_and_healthz(sharded_service):
    base, pool, sink = sharded_service
    _request(base, "POST", "/v1/relations", _relation_payload("t"))
    trace_id = new_trace_id()
    status, headers, _ = _request(
        base,
        "POST",
        "/v1/relations/t/score",
        {"fd": "zip -> city"},
        headers=[("X-Trace-Id", trace_id)],
    )
    assert status == 200
    assert headers["X-Trace-Id"] == trace_id

    # The JSON log line for the score request carries the same trace id
    # and spans from both sides of the pipe.  The log record is appended
    # *after* the response bytes go out — poll, don't race.
    def scored_logged():
        return any(record.get("trace_id") == trace_id for record in sink)

    assert _wait_for(scored_logged)
    (record,) = [r for r in sink if r.get("trace_id") == trace_id]
    assert record["route"] == "/v1/relations/{name}/score"
    assert record["status"] == 200 and record["duration_ms"] >= 0
    stages = {span_["name"] for span_ in record["spans"]}
    assert "parse" in stages and "pipe" in stages
    assert "statistics" in stages  # recorded inside the worker process
    json.loads(format_line(record))  # the record is JSON-serialisable

    # /v1/metrics: aggregated exposition, worker-side families included.
    status, headers, body = _request(base, "GET", "/v1/metrics")
    assert status == 200
    assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
    samples, types = parse_prometheus(body.decode("utf-8"))
    assert types["requests_total"] == "counter"
    scores = samples[
        ("requests_total", (("code", "200"), ("route", "/v1/relations/{name}/score")))
    ]
    assert scores >= 1
    assert types["session_statistics_total"] == "counter"  # from a worker
    assert types["stage_seconds"] == "histogram"

    # /v1/stats: one entry per worker plus dispatcher and front-end state.
    status, _, body = _request(base, "GET", "/v1/stats")
    stats = json.loads(body)
    assert status == 200 and stats["mode"] == "sharded"
    assert len(stats["workers"]) == 2
    assert sorted(w["pid"] for w in stats["workers"]) == sorted(
        pid for pid in pool.pids()
    )
    assert len(stats["dispatcher"]["queue_depth"]) == 2
    assert stats["frontend"]["requests_total"] >= 2

    # /v1/healthz: per-worker liveness detail.
    status, _, body = _request(base, "GET", "/v1/healthz")
    health = json.loads(body)
    assert status == 200 and health["status"] == "ok"
    detail = health["worker_detail"]
    assert [entry["worker"] for entry in detail] == [0, 1]
    assert all(entry["alive"] for entry in detail)
    assert all(entry["responsive"] for entry in detail)
    assert sum(entry["relations"] is not None and "t" in entry["relations"] for entry in detail) == 1


def test_sharded_healthz_degrades_when_a_worker_dies(sharded_service):
    base, pool, _ = sharded_service
    orphan = next(name for name in map("r{}".format, range(64)) if pool.owner(name) == 0)
    _request(base, "POST", "/v1/relations", _relation_payload(orphan))
    victim = pool.pids()[0]
    os.kill(victim, signal.SIGKILL)
    assert _wait_for(lambda: pool.alive()[0] is False)
    # The dead worker's pipe leaves the event loop: no busy spin.
    started = time.process_time()
    time.sleep(1.0)
    assert time.process_time() - started < 0.25
    status, _, body = _request(base, "GET", "/v1/healthz")
    health = json.loads(body)
    assert status == 200
    assert health["status"] == "degraded"
    dead = health["worker_detail"][0]
    assert dead["alive"] is False and dead["responsive"] is False
    # Its relations answer the typed 503 envelope over HTTP.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _request(base, "POST", f"/v1/relations/{orphan}/score", {"fd": "zip -> city"})
    assert excinfo.value.code == 503
    assert json.loads(excinfo.value.read())["error"]["code"] == "worker_unavailable"


def test_inline_metrics_and_stats_endpoints():
    server, _state = make_server()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = "http://{0}:{1}".format(*server.server_address)
    try:
        _request(base, "POST", "/v1/relations", _relation_payload("inline"))
        _request(base, "POST", "/v1/relations/inline/score", {"fd": "zip -> city"})
        status, headers, body = _request(base, "GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        samples, _ = parse_prometheus(body.decode("utf-8"))
        assert any(name == "requests_total" for name, _ in samples)
        status, _, body = _request(base, "GET", "/v1/stats")
        stats = json.loads(body)
        assert status == 200 and stats["mode"] == "inline"
        assert len(stats["workers"]) == 1
        assert stats["workers"][0]["sessions"][0]["name"] == "inline"
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
