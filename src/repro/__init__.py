"""repro — Measuring Approximate Functional Dependencies: a Comparative Study.

A complete reproduction library for the ICDE 2024 paper by Parciak et al.
It provides:

* a bag-based relation substrate (:mod:`repro.relation`);
* Shannon- and logical-entropy primitives (:mod:`repro.info`);
* all fourteen AFD measures in the paper's three classes (:mod:`repro.core`);
* the synthetic sensitivity benchmarks ERR / UNIQ / SKEW
  (:mod:`repro.synthetic`);
* error channels and the RWDe benchmark construction (:mod:`repro.errors`);
* synthetic stand-ins for the RWD real-world benchmark (:mod:`repro.rwd`);
* measure-based AFD discovery (:mod:`repro.discovery`);
* incremental AFD maintenance over changing relations (:mod:`repro.stream`);
* the unified session API and profiling server (:mod:`repro.service`,
  ``python -m repro.serve``);
* the evaluation harness: PR-AUC, rank-at-max-recall, separation, runtimes
  (:mod:`repro.evaluation`);
* one experiment driver per paper table and figure (:mod:`repro.experiments`).

Quickstart::

    from repro import FunctionalDependency, Relation, get_measure

    relation = Relation(["zip", "city"], [("1000", "Brussels"),
                                          ("1000", "Brussels"),
                                          ("1000", "Bruxelles"),
                                          ("3590", "Diepenbeek")])
    fd = FunctionalDependency("zip", "city")
    print(get_measure("mu_plus").score(relation, fd))
"""

import importlib

from repro.core import (
    AfdMeasure,
    FdStatistics,
    MeasureClass,
    all_measures,
    get_measure,
    measure_names,
    measures_by_class,
)
from repro.relation import FunctionalDependency, Relation, StrippedPartition

__version__ = "1.2.0"

#: Subpackages (and their headline callables) exposed lazily: importing
#: ``repro`` stays cheap while ``repro.evaluation`` / ``repro.discovery``
#: / ``repro.experiments`` remain reachable as plain attributes.
_LAZY_SUBMODULES = (
    "discovery",
    "errors",
    "evaluation",
    "experiments",
    "rwd",
    "service",
    "stream",
    "synthetic",
)
_LAZY_ATTRIBUTES = {
    "brute_force_afds": "repro.discovery",
    "discover_afds": "repro.discovery",
    "lattice_discover": "repro.discovery",
    "minimal_cover": "repro.discovery",
    "evaluate_benchmark": "repro.evaluation",
    "evaluate_specs": "repro.evaluation",
    "benchmark_specs": "repro.synthetic",
    "DynamicRelation": "repro.stream",
    "IncrementalFdStatistics": "repro.stream",
    "AfdSession": "repro.service",
    "ProfileRequest": "repro.service",
    "ProfileResult": "repro.service",
    "ScoredFd": "repro.service",
    "StreamUpdate": "repro.service",
}

__all__ = [
    "AfdMeasure",
    "AfdSession",
    "DynamicRelation",
    "FdStatistics",
    "FunctionalDependency",
    "IncrementalFdStatistics",
    "MeasureClass",
    "ProfileRequest",
    "ProfileResult",
    "Relation",
    "ScoredFd",
    "StreamUpdate",
    "StrippedPartition",
    "all_measures",
    "benchmark_specs",
    "brute_force_afds",
    "discover_afds",
    "lattice_discover",
    "minimal_cover",
    "evaluate_benchmark",
    "evaluate_specs",
    "get_measure",
    "measure_names",
    "measures_by_class",
    "__version__",
]


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        return importlib.import_module(f"repro.{name}")
    if name in _LAZY_ATTRIBUTES:
        module = importlib.import_module(_LAZY_ATTRIBUTES[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_SUBMODULES) | set(_LAZY_ATTRIBUTES))
