"""The three synthetic sensitivity benchmarks ERR, UNIQ and SKEW.

Each benchmark consists of B+ tables (generated with the planted FD
``X -> Y`` followed by the error channel) and B- tables (X and Y sampled
independently), organised in *steps*: per step one controlled parameter —
the error rate, the LHS-uniqueness, or the RHS-skew — is fixed while the
other generation parameters are drawn at random (Section V-A).

The paper uses 50 steps x 50 tables per subset; :func:`benchmark_specs`
accepts both values as parameters so laptop-scale runs can use smaller
grids while the full-paper configuration remains one call away.

A benchmark is never materialised as a whole:

1. :func:`benchmark_specs` deterministically samples lightweight, picklable
   :class:`TableSpec` descriptions (generation parameters plus a per-table
   seed) from a single root generator;
2. :meth:`TableSpec.materialize` turns one spec into its concrete
   :class:`~repro.relation.relation.Relation`, independently of every
   other spec.

Because each spec carries its own seed, materialisation order — and in
particular the number of worker processes sharding the specs — has no
effect on the generated relations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.relation.relation import Relation
from repro.synthetic.beta import beta_parameters_for_skewness
from repro.synthetic.generator import (
    GenerationParameters,
    generate_negative_relation,
    generate_positive_relation,
    sample_parameters,
)


@dataclass(frozen=True)
class TableSpec:
    """A lightweight, picklable description of one benchmark table.

    The spec fixes everything needed to regenerate the table — generation
    parameters and a dedicated seed — without holding any rows, so a
    50x50x2 benchmark is ~5000 small objects rather than ~25M tuples.
    Specs can be shipped to worker processes and materialised there.
    """

    benchmark: str
    parameter_name: str
    step: int
    index: int
    positive: bool
    parameter_value: float
    parameters: GenerationParameters
    seed: int

    @property
    def name(self) -> str:
        """The name of the materialised relation, e.g. ``ERR+[step=0,i=1]``."""
        sign = "+" if self.positive else "-"
        return f"{self.benchmark}{sign}[step={self.step},i={self.index}]"

    def materialize(self) -> Relation:
        """Generate the concrete relation (deterministic per spec)."""
        rng = np.random.default_rng(self.seed)
        if self.positive:
            return generate_positive_relation(self.parameters, rng, name=self.name)
        return generate_negative_relation(self.parameters, rng, name=self.name)


# ----------------------------------------------------------------------
# Benchmark kinds
# ----------------------------------------------------------------------
def _adjust_err(parameters: GenerationParameters, error_rate: float) -> GenerationParameters:
    return parameters.with_error_rate(error_rate)


def _adjust_uniq(parameters: GenerationParameters, uniqueness: float) -> GenerationParameters:
    domain_x = max(2, int(round(uniqueness * parameters.num_rows)))
    domain_y = min(parameters.domain_y_size, max(5, domain_x // 2))
    return replace(parameters, domain_x_size=domain_x, domain_y_size=max(domain_y, 2))


def _adjust_skew(parameters: GenerationParameters, skew: float) -> GenerationParameters:
    alpha_y, beta_y = beta_parameters_for_skewness(skew)
    return replace(parameters, alpha_y=alpha_y, beta_y=beta_y)


@dataclass(frozen=True)
class BenchmarkKind:
    """Static description of one benchmark family (sweep + adjustment)."""

    name: str
    parameter_name: str
    default_seed: int
    adjust: Callable[[GenerationParameters, float], GenerationParameters]
    values: Callable[[int, dict], Sequence[float]]


def _err_values(steps: int, options: dict) -> Sequence[float]:
    return np.linspace(0.0, options.get("max_error_rate", 0.10), steps)


def _uniq_values(steps: int, options: dict) -> Sequence[float]:
    return np.linspace(
        options.get("min_uniqueness", 0.2), options.get("max_uniqueness", 0.9), steps
    )


def _skew_values(steps: int, options: dict) -> Sequence[float]:
    return np.linspace(0.0, options.get("max_skew", 10.0), steps)


BENCHMARK_KINDS: Dict[str, BenchmarkKind] = {
    "err": BenchmarkKind("ERR", "error_rate", 0, _adjust_err, _err_values),
    "uniq": BenchmarkKind("UNIQ", "lhs_uniqueness", 1, _adjust_uniq, _uniq_values),
    "skew": BenchmarkKind("SKEW", "rhs_skew", 2, _adjust_skew, _skew_values),
}


def benchmark_kind(kind: str) -> BenchmarkKind:
    """Look up a benchmark family by its lower-case key (``err``/``uniq``/``skew``)."""
    key = kind.lower()
    if key not in BENCHMARK_KINDS:
        raise KeyError(
            f"unknown benchmark kind {kind!r}; known kinds: {sorted(BENCHMARK_KINDS)}"
        )
    return BENCHMARK_KINDS[key]


# ----------------------------------------------------------------------
# Spec construction
# ----------------------------------------------------------------------
def _build_specs(
    kind: BenchmarkKind,
    parameter_values: Sequence[float],
    tables_per_step: int,
    rng: np.random.Generator,
    min_rows: int,
    max_rows: int,
) -> List[TableSpec]:
    """Sample all table specs from one root generator (cheap: no rows yet)."""
    specs: List[TableSpec] = []
    for step, value in enumerate(parameter_values):
        for index in range(tables_per_step):
            for positive in (True, False):
                base = sample_parameters(rng, min_rows=min_rows, max_rows=max_rows)
                parameters = kind.adjust(base, float(value))
                seed = int(rng.integers(0, 2**63))
                specs.append(
                    TableSpec(
                        benchmark=kind.name,
                        parameter_name=kind.parameter_name,
                        step=step,
                        index=index,
                        positive=positive,
                        parameter_value=float(value),
                        parameters=parameters,
                        seed=seed,
                    )
                )
    return specs


def benchmark_specs(
    kind: str,
    steps: int = 50,
    tables_per_step: int = 50,
    seed: Optional[int] = None,
    min_rows: int = 100,
    max_rows: int = 10_000,
    **options,
) -> List[TableSpec]:
    """Deterministic table specs of the ``kind`` benchmark.

    ``seed`` defaults to the family's classical seed (0/1/2 for
    ERR/UNIQ/SKEW), so ``benchmark_specs("err")`` describes the paper's
    50x50 ERR grid.  ``options`` forwards the family-specific sweep
    bounds: ``max_error_rate`` (default 0.10), ``min_uniqueness`` and
    ``max_uniqueness`` (0.2 and 0.9), and ``max_skew`` (10.0).
    """
    family = benchmark_kind(kind)
    root_seed = family.default_seed if seed is None else seed
    rng = np.random.default_rng(root_seed)
    values = family.values(steps, options)
    return _build_specs(family, values, tables_per_step, rng, min_rows, max_rows)
