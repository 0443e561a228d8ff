"""Synthetic data generation for the sensitivity analysis (Section V).

Provides the Beta-distribution value sampler, the B+/B- relation
generation process, the controlled error channel, and the seeded table
specs of the three synthetic benchmarks ERR, UNIQ and SKEW.
"""

from repro.synthetic.beta import (
    beta_parameters_for_skewness,
    beta_skewness,
    sample_beta_parameters,
    sample_domain_values,
)
from repro.synthetic.generator import (
    GenerationParameters,
    generate_negative_relation,
    generate_positive_relation,
    sample_parameters,
)
from repro.synthetic.benchmarks import BENCHMARK_KINDS, TableSpec, benchmark_specs

__all__ = [
    "BENCHMARK_KINDS",
    "GenerationParameters",
    "TableSpec",
    "benchmark_specs",
    "beta_parameters_for_skewness",
    "beta_skewness",
    "generate_negative_relation",
    "generate_positive_relation",
    "sample_beta_parameters",
    "sample_domain_values",
    "sample_parameters",
]
