"""Thread-safe metrics: named counters, gauges and histograms with labels.

The registry is the mergeable-partial of observability: every process —
the serving front end and each forked shard worker — keeps one local
:class:`MetricsRegistry`, increments it from the hot paths (a dict probe
plus a lock, cheap enough to leave on in production), and exports a
plain-JSON snapshot via :meth:`MetricsRegistry.to_dict`.  Snapshots
merge associatively (:func:`merge_snapshots`), so the dispatcher folds
per-worker snapshots collected over the existing pipe protocol into one
fleet-wide view — the same discipline the chunked statistics pass
(:mod:`repro.core.chunked`) follows for its per-chunk counts.  :func:`render_prometheus` turns any snapshot (local or
merged) into the text exposition format ``GET /v1/metrics`` serves.

Metric vocabulary:

* **counter** — monotone float/int total (``requests_total``); merge
  sums sample values keywise;
* **gauge** — last-written level (``dispatcher_queue_depth``); merge
  *sums* across snapshots, which is the useful fleet semantics for the
  gauges this repo exports (per-worker queue depths and session counts
  add up to the fleet total);
* **histogram** — fixed cumulative buckets + sum + count
  (``stage_seconds``); merge adds bucket-wise (bucket layouts must
  match).

Metrics auto-register on first use: ``registry.inc("requests_total",
route="/v1/healthz", code="200")`` creates the counter with the label
names of the call.  Later calls must use the same label names (the
Prometheus consistency rule); :meth:`declare_counter` /
:meth:`declare_gauge` / :meth:`declare_histogram` pre-register with
help text.

**Observability is read-only.**  Nothing reads a metric to make a
decision; disabling the registry (:func:`set_enabled`, or the
``REPRO_OBS_DISABLED=1`` environment variable, inherited by forked
workers) turns every write into a no-op and must not change any result
— the bit-identity tests assert exactly that.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "SNAPSHOT_KIND",
    "SNAPSHOT_VERSION",
    "MetricsRegistry",
    "get_registry",
    "merge_snapshots",
    "render_prometheus",
    "set_enabled",
]

#: Default histogram buckets (seconds): spans sub-millisecond cache hits
#: through multi-second statistics passes.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

SNAPSHOT_KIND = "metrics_snapshot"
SNAPSHOT_VERSION = 1

#: Environment switch: set to ``1`` to start every process (including
#: forked/spawned workers) with the registry disabled.
DISABLED_ENV = "REPRO_OBS_DISABLED"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_TYPES = ("counter", "gauge", "histogram")


class _Metric:
    """One named metric family: fixed type/labels, per-label-set samples."""

    __slots__ = ("name", "type", "help", "label_names", "buckets", "samples")

    def __init__(
        self,
        name: str,
        type_: str,
        help_: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        self.name = name
        self.type = type_
        self.help = help_
        self.label_names = label_names
        self.buckets = buckets
        #: label-values tuple -> float (counter/gauge) or
        #: ``[bucket_counts, sum, count]`` (histogram).
        self.samples: Dict[Tuple[str, ...], object] = {}


def _label_key(metric: _Metric, labels: Dict[str, object]) -> Tuple[str, ...]:
    # Hot path: callers pass kwargs in the canonical (sorted) order, so
    # the insertion-order tuple usually matches without a sort.
    if tuple(labels) != metric.label_names and tuple(sorted(labels)) != metric.label_names:
        raise ValueError(
            f"metric {metric.name!r} has label names {list(metric.label_names)}, "
            f"got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in metric.label_names)


class MetricsRegistry:
    """A process-local, thread-safe collection of named metrics."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def _declare(
        self,
        name: str,
        type_: str,
        help_: str,
        label_names: Iterable[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> _Metric:
        """Register (or fetch, when identically typed) one metric family."""
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labels = tuple(sorted(label_names))
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.type != type_:
                raise ValueError(
                    f"metric {name!r} is a {existing.type}, not a {type_}"
                )
            if existing.label_names != labels:
                raise ValueError(
                    f"metric {name!r} has label names {list(existing.label_names)}, "
                    f"got {list(labels)}"
                )
            return existing
        metric = _Metric(
            name,
            type_,
            help_,
            labels,
            None if buckets is None else tuple(float(b) for b in buckets),
        )
        self._metrics[name] = metric
        return metric

    def declare_counter(self, name: str, help: str = "", label_names: Iterable[str] = ()):
        with self._lock:
            self._declare(name, "counter", help, label_names)

    def declare_gauge(self, name: str, help: str = "", label_names: Iterable[str] = ()):
        with self._lock:
            self._declare(name, "gauge", help, label_names)

    def declare_histogram(
        self,
        name: str,
        help: str = "",
        label_names: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        if not buckets or list(buckets) != sorted(float(b) for b in buckets):
            raise ValueError(f"histogram buckets must be sorted and non-empty: {buckets}")
        with self._lock:
            self._declare(name, "histogram", help, label_names, buckets)

    # ------------------------------------------------------------------
    # Writes (no-ops while disabled)
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1, **labels) -> None:
        """Add ``value`` to the counter ``name{**labels}`` (auto-registering)."""
        if not self.enabled:
            return
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease (value={value})")
        with self._lock:
            metric = self._metrics.get(name) or self._declare(name, "counter", "", labels)
            if metric.type != "counter":
                raise ValueError(f"metric {name!r} is a {metric.type}, not a counter")
            key = _label_key(metric, labels)
            metric.samples[key] = metric.samples.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge ``name{**labels}`` to ``value`` (auto-registering)."""
        if not self.enabled:
            return
        with self._lock:
            metric = self._metrics.get(name) or self._declare(name, "gauge", "", labels)
            if metric.type != "gauge":
                raise ValueError(f"metric {name!r} is a {metric.type}, not a gauge")
            metric.samples[_label_key(metric, labels)] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Record ``value`` into the histogram ``name{**labels}``."""
        if not self.enabled:
            return
        with self._lock:
            metric = self._metrics.get(name) or self._declare(
                name, "histogram", "", labels, DEFAULT_BUCKETS
            )
            if metric.type != "histogram":
                raise ValueError(f"metric {name!r} is a {metric.type}, not a histogram")
            key = _label_key(metric, labels)
            sample = metric.samples.get(key)
            if sample is None:
                sample = [[0] * len(metric.buckets), 0.0, 0]
                metric.samples[key] = sample
            buckets, _, _ = sample
            for index, bound in enumerate(metric.buckets):
                if value <= bound:
                    buckets[index] += 1
                    break
            sample[1] += value
            sample[2] += 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge sample (0 when never written).

        For histograms, returns the observation *count* of the sample.
        """
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                return 0
            key = _label_key(metric, labels)
            sample = metric.samples.get(key)
            if sample is None:
                return 0
            if metric.type == "histogram":
                return sample[2]  # type: ignore[index]
            return sample  # type: ignore[return-value]

    def totals(self) -> Dict[str, float]:
        """Per-metric totals summed over label sets (histograms: count)."""
        with self._lock:
            out: Dict[str, float] = {}
            for name, metric in self._metrics.items():
                if metric.type == "histogram":
                    out[name] = sum(s[2] for s in metric.samples.values())  # type: ignore[index]
                else:
                    out[name] = sum(metric.samples.values())  # type: ignore[arg-type]
            return out

    def to_dict(self) -> Dict[str, object]:
        """The versioned, JSON-ready, mergeable snapshot of every metric."""
        with self._lock:
            metrics: Dict[str, object] = {}
            for name, metric in self._metrics.items():
                samples: Dict[str, object] = {}
                for key, sample in metric.samples.items():
                    encoded = json.dumps(list(key))
                    if metric.type == "histogram":
                        samples[encoded] = {
                            "buckets": list(sample[0]),  # type: ignore[index]
                            "sum": sample[1],  # type: ignore[index]
                            "count": sample[2],  # type: ignore[index]
                        }
                    else:
                        samples[encoded] = sample
                entry: Dict[str, object] = {
                    "type": metric.type,
                    "help": metric.help,
                    "label_names": list(metric.label_names),
                    "samples": samples,
                }
                if metric.buckets is not None:
                    entry["buckets"] = list(metric.buckets)
                metrics[name] = entry
            return {
                "kind": SNAPSHOT_KIND,
                "version": SNAPSHOT_VERSION,
                "metrics": metrics,
            }

    def reset(self) -> None:
        """Drop every metric (tests, benchmark isolation)."""
        with self._lock:
            self._metrics.clear()


# ----------------------------------------------------------------------
# Snapshot algebra
# ----------------------------------------------------------------------
def _check_snapshot(snapshot: Dict[str, object]) -> Dict[str, Dict]:
    if (
        not isinstance(snapshot, dict)
        or snapshot.get("kind") != SNAPSHOT_KIND
        or not isinstance(snapshot.get("metrics"), dict)
    ):
        raise ValueError("not a metrics snapshot (expected to_dict() output)")
    return snapshot["metrics"]  # type: ignore[return-value]


def merge_snapshots(*snapshots: Dict[str, object]) -> Dict[str, object]:
    """Fold snapshots into one (associative and commutative up to help text).

    Counters, gauges and histogram cells sum keywise; a metric present in
    only some snapshots contributes its samples unchanged.  Conflicting
    types, label names or bucket layouts for the same metric name raise.
    """
    merged: Dict[str, Dict] = {}
    for snapshot in snapshots:
        for name, entry in _check_snapshot(snapshot).items():
            target = merged.get(name)
            if target is None:
                merged[name] = {
                    "type": entry["type"],
                    "help": entry["help"],
                    "label_names": list(entry["label_names"]),
                    "samples": {k: _copy_sample(v) for k, v in entry["samples"].items()},
                    **({"buckets": list(entry["buckets"])} if "buckets" in entry else {}),
                }
                continue
            if target["type"] != entry["type"] or target["label_names"] != list(
                entry["label_names"]
            ):
                raise ValueError(f"snapshot conflict on metric {name!r}")
            if target.get("buckets") != (
                list(entry["buckets"]) if "buckets" in entry else None
            ):
                raise ValueError(f"histogram bucket mismatch on metric {name!r}")
            if not target["help"] and entry["help"]:
                target["help"] = entry["help"]
            for key, sample in entry["samples"].items():
                existing = target["samples"].get(key)
                if existing is None:
                    target["samples"][key] = _copy_sample(sample)
                elif isinstance(sample, dict):
                    existing["buckets"] = [
                        a + b for a, b in zip(existing["buckets"], sample["buckets"])
                    ]
                    existing["sum"] += sample["sum"]
                    existing["count"] += sample["count"]
                else:
                    target["samples"][key] = existing + sample
    return {"kind": SNAPSHOT_KIND, "version": SNAPSHOT_VERSION, "metrics": merged}


def _copy_sample(sample):
    if isinstance(sample, dict):
        return {"buckets": list(sample["buckets"]), "sum": sample["sum"], "count": sample["count"]}
    return sample


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
#: The Content-Type of the text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _format_labels(names: Sequence[str], values: Sequence[str], extra: str = "") -> str:
    parts = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """A snapshot (local or merged) in Prometheus text exposition format."""
    metrics = _check_snapshot(snapshot)
    lines: List[str] = []
    for name in sorted(metrics):
        entry = metrics[name]
        if entry["help"]:
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['type']}")
        label_names = list(entry["label_names"])
        samples = sorted(entry["samples"].items())
        for key, sample in samples:
            values = [str(v) for v in json.loads(key)]
            if entry["type"] == "histogram":
                cumulative = 0
                for bound, count in zip(entry["buckets"], sample["buckets"]):
                    cumulative += count
                    labels = _format_labels(
                        label_names, values, f'le="{_format_value(float(bound))}"'
                    )
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                labels = _format_labels(label_names, values, 'le="+Inf"')
                lines.append(f"{name}_bucket{labels} {sample['count']}")
                labels = _format_labels(label_names, values)
                lines.append(f"{name}_sum{labels} {_format_value(sample['sum'])}")
                lines.append(f"{name}_count{labels} {sample['count']}")
            else:
                labels = _format_labels(label_names, values)
                lines.append(f"{name}{labels} {_format_value(sample)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The process-default registry
# ----------------------------------------------------------------------
REGISTRY = MetricsRegistry(enabled=os.environ.get(DISABLED_ENV, "") != "1")


def get_registry() -> MetricsRegistry:
    """The process-default registry every instrumentation hook writes to."""
    return REGISTRY


def set_enabled(enabled: bool) -> None:
    """Enable/disable the default registry, inherited by future workers.

    Also mirrors the choice into :data:`DISABLED_ENV` so processes
    started later (spawn-based pools, subprocess benchmarks) come up in
    the same state; fork-based workers inherit the flag directly.
    """
    REGISTRY.enabled = enabled
    if enabled:
        os.environ.pop(DISABLED_ENV, None)
    else:
        os.environ[DISABLED_ENV] = "1"
