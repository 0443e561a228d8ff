"""Per-layer timing for traced runs, recorded from outside the library.

:class:`LayerTracer` wraps the public entry point of each layer while it
is installed and restores the originals on exit:

==================  ==================================================
``relation.ingest``  ``ChunkedRelation.read_csv``
``relation.encode``  ``Relation.columnar``
``statistics``       ``FdStatistics.compute``
``expectation``      ``expected_fraction_of_information`` (every module
                     of the package that holds a reference to it)
``measure.<name>``   ``AfdMeasure.score_from_statistics``
==================  ==================================================

Spans nest: a layer's recorded time is its *self* time, the wall time of
the call minus the wrapped calls it made.  So the expectation is counted
once, under ``expectation``, and not again inside ``measure.rfi_plus``;
an encode triggered by a statistics pass counts under ``relation.encode``.
The tracer is single-threaded, like the in-process workloads that use it.
"""

from __future__ import annotations

import re
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from common import median

_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')

Samples = List[Tuple[str, Dict[str, str], float]]


def parse_prometheus(text: str) -> Samples:
    """``(name, labels, value)`` of every sample in a text exposition."""
    samples: Samples = []
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if match is None or line.startswith("#"):
            continue
        name, labels, value = match.groups()
        samples.append((name, dict(_LABEL.findall(labels or "")), float(value)))
    return samples


def metric_total(samples: Samples, name: str, **labels: str) -> float:
    """Sum of ``name`` over the samples whose labels include ``labels``."""
    return sum(
        value
        for sample_name, sample_labels, value in samples
        if sample_name == name
        and all(sample_labels.get(key) == wanted for key, wanted in labels.items())
    )


def local_metrics() -> Samples:
    """This process's ``repro.obs`` registry, as parsed samples."""
    from repro.obs.metrics import get_registry, render_prometheus

    return parse_prometheus(render_prometheus(get_registry().to_dict()))


def session_metrics(before: Samples, after: Samples) -> Dict[str, Tuple[float, str]]:
    """Session statistics-cache counters between two metric snapshots."""

    def delta(result: str) -> float:
        name = "session_statistics_total"
        return metric_total(after, name, result=result) - metric_total(before, name, result=result)

    hits, misses, incremental = delta("hit"), delta("miss"), delta("incremental")
    lookups = hits + misses + incremental
    return {
        "session.statistics_hits": (hits, "count"),
        "session.statistics_misses": (misses, "count"),
        "session.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "stream.incremental_refreshes": (incremental, "count"),
    }


class LayerTracer:
    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self._children: List[float] = []
        self._restore: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def _wrap(self, function: Callable, layer_of: Callable[[tuple], str]) -> Callable:
        def traced(*args, **kwargs):
            self._children.append(0.0)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                child = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                layer = layer_of(args)
                self.seconds[layer] += elapsed - child
                self.calls[layer] += 1
                self.durations[layer].append(elapsed - child)

        traced.__wrapped__ = function
        return traced

    def _patch_method(self, owner: type, name: str, layer_of) -> None:
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, layer_of))
        else:
            replacement = self._wrap(original, layer_of)
        setattr(owner, name, replacement)
        self._restore.append(lambda: setattr(owner, name, original))

    def _patch_function(self, function: Callable, layer: str) -> None:
        """Replace ``function`` in every loaded package module that holds it."""
        traced = self._wrap(function, lambda args: layer)
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, traced)
                    self._restore.append(
                        lambda module=module, attribute=attribute: setattr(
                            module, attribute, function
                        )
                    )

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        from repro.core.base import AfdMeasure
        from repro.core.expectations import expected_fraction_of_information
        from repro.core.statistics import FdStatistics
        from repro.relation.chunked import ChunkedRelation
        from repro.relation.relation import Relation

        self._patch_method(ChunkedRelation, "read_csv", lambda args: "relation.ingest")
        self._patch_method(Relation, "columnar", lambda args: "relation.encode")
        self._patch_method(FdStatistics, "compute", lambda args: "statistics")
        self._patch_method(
            AfdMeasure, "score_from_statistics", lambda args: "measure." + args[0].name
        )
        self._patch_function(expected_fraction_of_information, "expectation")
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reporting -----------------------------------------------------
    def layer_metrics(self, measure_names) -> Dict[str, Tuple[float, str]]:
        """The in-process per-layer metrics, as ``name -> (value, unit)``."""
        statistics = self.durations.get("statistics", [])
        metrics = {
            "relation.ingest_s": (self.seconds["relation.ingest"], "s"),
            "relation.encode_s": (self.seconds["relation.encode"], "s"),
            "statistics.calls": (self.calls["statistics"], "count"),
            "statistics.s": (self.seconds["statistics"], "s"),
            "statistics.p50_ms": (median(statistics) * 1e3 if statistics else 0.0, "ms"),
            "expectation.calls": (self.calls["expectation"], "count"),
            "expectation.s": (self.seconds["expectation"], "s"),
        }
        for name in measure_names:
            metrics[f"measure.{name}.s"] = (self.seconds["measure." + name], "s")
        return metrics
