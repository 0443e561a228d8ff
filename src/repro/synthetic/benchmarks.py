"""The three synthetic sensitivity benchmarks ERR, UNIQ and SKEW.

Each benchmark consists of B+ tables (generated with the planted FD
``X -> Y`` followed by the error channel) and B- tables (X and Y sampled
independently), organised in *steps*: per step one controlled parameter —
the error rate, the LHS-uniqueness, or the RHS-skew — is fixed while the
other generation parameters are drawn at random (Section V-A).

The paper uses 50 steps x 50 tables per subset; the builders accept both
values as parameters so laptop-scale runs can use smaller grids while the
full-paper configuration remains one call away.

Construction is split into two phases so that large benchmarks never have
to be fully materialised:

1. :func:`benchmark_specs` deterministically samples lightweight, picklable
   :class:`TableSpec` descriptions (generation parameters plus a per-table
   seed) from a single root generator;
2. :meth:`TableSpec.materialize` turns one spec into a concrete
   :class:`BenchmarkTable`, independently of every other spec.

Because each spec carries its own seed, materialisation order — and in
particular the number of worker processes sharding the specs — has no
effect on the generated relations.  :func:`iter_benchmark_tables` streams
tables one at a time; the classical ``build_*_benchmark`` functions remain
as eager wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.relation.fd import FunctionalDependency
from repro.relation.relation import Relation
from repro.synthetic.beta import beta_parameters_for_skewness
from repro.synthetic.generator import (
    SYNTHETIC_FD,
    GenerationParameters,
    generate_negative_relation,
    generate_positive_relation,
    sample_parameters,
)


@dataclass(frozen=True)
class BenchmarkTable:
    """One synthetic relation together with its generation metadata."""

    relation: Relation
    positive: bool
    step: int
    parameter_value: float
    parameters: GenerationParameters


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
        """The relation name the eager builders have always used."""
        sign = "+" if self.positive else "-"
        return f"{self.benchmark}{sign}[step={self.step},i={self.index}]"

    def materialize(self) -> BenchmarkTable:
        """Generate the concrete table (deterministic per spec)."""
        rng = np.random.default_rng(self.seed)
        if self.positive:
            relation = generate_positive_relation(self.parameters, rng, name=self.name)
        else:
            relation = generate_negative_relation(self.parameters, rng, name=self.name)
        return BenchmarkTable(
            relation, self.positive, self.step, self.parameter_value, self.parameters
        )


@dataclass
class SyntheticBenchmark:
    """A full synthetic benchmark (ERR, UNIQ or SKEW)."""

    name: str
    parameter_name: str
    fd: FunctionalDependency
    tables: List[BenchmarkTable]

    def steps(self) -> List[int]:
        return sorted({table.step for table in self.tables})

    def parameter_values(self) -> Dict[int, float]:
        """Controlled parameter value per step."""
        return {table.step: table.parameter_value for table in self.tables}

    def __len__(self) -> int:
        return len(self.tables)


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
    ERR/UNIQ/SKEW), so ``benchmark_specs("err")`` describes exactly the
    benchmark that :func:`build_err_benchmark` materialises.  ``options``
    forwards the family-specific sweep bounds (``max_error_rate``,
    ``min_uniqueness``/``max_uniqueness``, ``max_skew``).
    """
    family = benchmark_kind(kind)
    root_seed = family.default_seed if seed is None else seed
    rng = np.random.default_rng(root_seed)
    values = family.values(steps, options)
    return _build_specs(family, values, tables_per_step, rng, min_rows, max_rows)


def iter_benchmark_tables(specs: Sequence[TableSpec]) -> Iterator[BenchmarkTable]:
    """Stream tables one at a time; only one relation is alive per iteration."""
    for spec in specs:
        yield spec.materialize()


def build_benchmark_from_specs(specs: Sequence[TableSpec]) -> SyntheticBenchmark:
    """Eagerly materialise a benchmark from its specs."""
    if not specs:
        raise ValueError("cannot build a benchmark from an empty spec list")
    first = specs[0]
    tables = [spec.materialize() for spec in specs]
    return SyntheticBenchmark(first.benchmark, first.parameter_name, SYNTHETIC_FD, tables)


def _build_eager(
    kind: str,
    steps: int,
    tables_per_step: int,
    rng: Optional[np.random.Generator],
    min_rows: int,
    max_rows: int,
    **options,
) -> SyntheticBenchmark:
    family = benchmark_kind(kind)
    root = rng if rng is not None else np.random.default_rng(family.default_seed)
    values = family.values(steps, options)
    specs = _build_specs(family, values, tables_per_step, root, min_rows, max_rows)
    return build_benchmark_from_specs(specs)


def build_err_benchmark(
    steps: int = 50,
    tables_per_step: int = 50,
    rng: Optional[np.random.Generator] = None,
    min_rows: int = 100,
    max_rows: int = 10_000,
    max_error_rate: float = 0.10,
) -> SyntheticBenchmark:
    """The ERR benchmark: error rate swept from 0 to ``max_error_rate``."""
    return _build_eager(
        "err", steps, tables_per_step, rng, min_rows, max_rows, max_error_rate=max_error_rate
    )


def build_uniq_benchmark(
    steps: int = 50,
    tables_per_step: int = 50,
    rng: Optional[np.random.Generator] = None,
    min_rows: int = 100,
    max_rows: int = 10_000,
    min_uniqueness: float = 0.2,
    max_uniqueness: float = 0.9,
) -> SyntheticBenchmark:
    """The UNIQ benchmark: LHS-uniqueness (``|dom(X)| / |R|``) swept upward."""
    return _build_eager(
        "uniq",
        steps,
        tables_per_step,
        rng,
        min_rows,
        max_rows,
        min_uniqueness=min_uniqueness,
        max_uniqueness=max_uniqueness,
    )


def build_skew_benchmark(
    steps: int = 50,
    tables_per_step: int = 50,
    rng: Optional[np.random.Generator] = None,
    min_rows: int = 100,
    max_rows: int = 10_000,
    max_skew: float = 10.0,
) -> SyntheticBenchmark:
    """The SKEW benchmark: RHS-skew (skewness of the Y Beta distribution) swept up to 10."""
    return _build_eager(
        "skew", steps, tables_per_step, rng, min_rows, max_rows, max_skew=max_skew
    )
