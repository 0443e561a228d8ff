"""Experiment drivers: one per paper artifact, emitting JSON + CSV.

* :mod:`repro.experiments.sensitivity` — the ERR / UNIQ / SKEW sweeps of
  Section V (PR-AUC summaries and per-step sensitivity curves);
* :mod:`repro.experiments.rwde` — the RWDe error-type x error-level grid
  of Appendix G / Table VIII;
* :mod:`repro.experiments.properties` — the Table III property catalogue
  check (static + empirical);
* :mod:`repro.experiments.discovery` — lattice (multi-attribute LHS)
  AFD discovery over the RWD benchmark, ranked against the design-schema
  ground truth (the paper's Section VII discovery discussion);
* :mod:`repro.experiments.runtime` — the Table V runtime protocol on
  the statistics kernel the process runs (``BENCH_runtime.json``);
* :mod:`repro.experiments.streaming` — the incremental-vs-recompute
  benchmark of :mod:`repro.stream` (``BENCH_streaming.json``);
* :mod:`repro.experiments.plotting` — figure generation from persisted
  ``curves.csv`` artifacts (matplotlib optional).

All drivers share the parallel evaluation harness and write their
artifacts under ``results/`` by default; ``python -m repro.experiments``
is the command-line front end.
"""

from repro.experiments.discovery import DiscoveryConfig, run_discovery
from repro.experiments.plotting import run_plot
from repro.experiments.properties import PropertiesConfig, run_properties
from repro.experiments.rwde import RwdeConfig, run_rwde
from repro.experiments.sensitivity import SensitivityConfig, run_sensitivity
from repro.experiments.streaming import StreamingConfig, run_streaming

__all__ = [
    "DiscoveryConfig",
    "PropertiesConfig",
    "RwdeConfig",
    "SensitivityConfig",
    "StreamingConfig",
    "run_discovery",
    "run_plot",
    "run_properties",
    "run_rwde",
    "run_sensitivity",
    "run_streaming",
]
