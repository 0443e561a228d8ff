"""Driver for the Table III property check.

Two layers of verification of the paper's qualitative property catalogue
(:mod:`repro.core.properties`):

* **static** — every registered measure instance must agree with the
  catalogue on its measure class, baseline possession and efficient
  computability (catching drift between implementation and catalogue);
* **empirical** — small ERR / UNIQ / SKEW sweeps are evaluated and the
  correlation between the swept parameter and the mean B+ score is
  compared against the catalogued sensitivity claims (inverse error
  proportionality; LHS-uniqueness / RHS-skew insensitivity).

The empirical layer is a smoke-level reproduction of Section V, not a
statistical test: correlations on laptop-scale grids are noisy, so
disagreements are reported, not raised.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.properties import PAPER_PROPERTIES
from repro.evaluation.harness import evaluate_specs
from repro.evaluation.scoring import MeasureConfig
from repro.experiments.io import ensure_directory, write_csv, write_json
from repro.synthetic.benchmarks import benchmark_specs

#: |correlation| below this counts as "insensitive" in the empirical check.
INSENSITIVITY_CUTOFF = 0.5


@dataclass(frozen=True)
class PropertiesConfig:
    """Configuration of the property-check run.

    ``seed`` is the root seed of each sensitivity sweep (``None`` keeps
    the classical per-family seeds 0/1/2).
    """

    steps: int = 5
    tables_per_step: int = 3
    jobs: int = 1
    seed: Optional[int] = None
    min_rows: int = 100
    max_rows: int = 1000
    sfi_alpha: float = 0.5

    def measure_config(self) -> MeasureConfig:
        return MeasureConfig(sfi_alpha=self.sfi_alpha)


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Plain Pearson correlation; 0.0 when either side is constant."""
    n = len(xs)
    if n < 2:
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0.0 or var_y <= 0.0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


Curves = Dict[str, List[Dict[str, float]]]


def _curve_correlations(curves: Curves) -> Dict[str, float]:
    """Correlation of the swept parameter with the mean B+ score, per measure."""
    correlations: Dict[str, float] = {}
    for name, points in curves.items():
        xs = [point["parameter_value"] for point in points]
        ys = [point["mean_positive_score"] for point in points]
        correlations[name] = _pearson(xs, ys)
    return correlations


def _sweep_curves(kind: str, config: PropertiesConfig) -> Curves:
    """Run one sensitivity sweep and return its per-measure step curves."""
    specs = benchmark_specs(
        kind,
        steps=config.steps,
        tables_per_step=config.tables_per_step,
        seed=config.seed,
        min_rows=config.min_rows,
        max_rows=config.max_rows,
    )
    return evaluate_specs(specs, config.measure_config(), jobs=config.jobs).step_curves()


def run_properties(
    config: PropertiesConfig = PropertiesConfig(),
    output_dir: Optional[str] = "results",
    precomputed_curves: Optional[Dict[str, Curves]] = None,
) -> Dict[str, object]:
    """Check the Table III catalogue statically and empirically.

    ``precomputed_curves`` maps a benchmark kind (``"err"``/``"uniq"``/
    ``"skew"``) to already-computed step curves (the ``"curves"`` entry
    of a sensitivity payload), so a caller that just ran the sweeps —
    e.g. ``--benchmark all`` — does not pay for them twice; missing
    kinds are evaluated here.  Returns the JSON payload; with
    ``output_dir`` set, writes ``table3.json`` and ``table3.csv`` under
    ``<output_dir>/properties/``.
    """
    precomputed_curves = precomputed_curves or {}

    def correlations(kind: str) -> Dict[str, float]:
        curves = precomputed_curves.get(kind)
        if curves is None:
            curves = _sweep_curves(kind, config)
        return _curve_correlations(curves)

    measures = config.measure_config().build()
    err = correlations("err")
    uniq = correlations("uniq")
    skew = correlations("skew")

    rows: List[Dict[str, object]] = []
    static_ok = True
    for name, measure in measures.items():
        # SFI renames itself under a non-default alpha ("sfi_1"); its
        # catalogue entry is keyed "sfi" regardless of the parameter.
        catalogue_key = "sfi" if name.startswith("sfi") else name
        catalogue = PAPER_PROPERTIES.get(catalogue_key)
        if catalogue is None:
            # Registered extension measures have no catalogue entry.
            continue
        class_ok = measure.measure_class == catalogue.measure_class
        baselines_ok = measure.has_baselines == catalogue.has_baselines
        efficiency_ok = measure.efficiently_computable == catalogue.efficiently_computable
        static_ok = static_ok and class_ok and baselines_ok and efficiency_ok

        error_correlation = err.get(name, 0.0)
        uniq_correlation = uniq.get(name, 0.0)
        skew_correlation = skew.get(name, 0.0)
        observed_inverse_error = error_correlation < -INSENSITIVITY_CUTOFF
        observed_uniq_insensitive = abs(uniq_correlation) < INSENSITIVITY_CUTOFF
        observed_skew_insensitive = abs(skew_correlation) < INSENSITIVITY_CUTOFF

        rows.append(
            {
                "measure": name,
                "label": catalogue.label,
                "measure_class": str(catalogue.measure_class),
                "static_class_ok": class_ok,
                "static_baselines_ok": baselines_ok,
                "static_efficiency_ok": efficiency_ok,
                "paper_inverse_error": catalogue.inversely_proportional_to_error,
                "observed_error_correlation": error_correlation,
                "observed_inverse_error": observed_inverse_error,
                "paper_uniq_insensitive": catalogue.insensitive_to_lhs_uniqueness,
                "observed_uniq_correlation": uniq_correlation,
                "observed_uniq_insensitive": observed_uniq_insensitive,
                "paper_skew_insensitive": catalogue.insensitive_to_rhs_skew,
                "observed_skew_correlation": skew_correlation,
                "observed_skew_insensitive": observed_skew_insensitive,
                "paper_auc_on_rwd": catalogue.auc_on_rwd_paper,
            }
        )

    payload: Dict[str, object] = {
        "experiment": "properties",
        "config": asdict(config),
        "static_catalogue_consistent": static_ok,
        "insensitivity_cutoff": INSENSITIVITY_CUTOFF,
        "rows": rows,
    }
    if output_dir is not None:
        directory = ensure_directory(Path(output_dir) / "properties")
        write_json(directory / "table3.json", payload)
        write_csv(directory / "table3.csv", list(rows[0].keys()) if rows else ["measure"], rows)
    return payload
