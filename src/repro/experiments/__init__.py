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
* :mod:`repro.experiments.plotting` — figure generation from persisted
  ``curves.csv`` artifacts (matplotlib optional).

The sensitivity sweeps and the property check score through the
parallel evaluation harness of :mod:`repro.evaluation`, and the RWDe
grid spreads its cells over a process pool (both sized by ``--jobs``);
discovery, the runtime protocol and plotting run in one process.  Every
driver writes its artifacts under ``results/`` by default; ``python -m
repro.experiments`` is the command-line front end.  The repository's
performance benchmark is ``perfbench/``, not these drivers.
"""

from repro.experiments.discovery import DiscoveryConfig, run_discovery
from repro.experiments.plotting import run_plot
from repro.experiments.properties import PropertiesConfig, run_properties
from repro.experiments.rwde import RwdeConfig, run_rwde
from repro.experiments.sensitivity import SensitivityConfig, run_sensitivity

__all__ = [
    "DiscoveryConfig",
    "PropertiesConfig",
    "RwdeConfig",
    "SensitivityConfig",
    "run_discovery",
    "run_plot",
    "run_properties",
    "run_rwde",
    "run_sensitivity",
]
