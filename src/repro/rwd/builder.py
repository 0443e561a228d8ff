"""Table builder used to synthesise the RWD stand-in relations.

The original RWD benchmark consists of downloaded public datasets with a
manually annotated design schema.  The builder below generates relations
with the same *structural* ingredients:

* root categorical columns with controllable cardinality and skew
  (optionally with a dominant majority value);
* near-unique / key columns;
* derived columns — deterministic functions of a root column — which
  plant design FDs; a non-zero noise rate turns the planted FD into an
  approximate design FD (the ground truth of AFD discovery);
* "spurious" derived columns excluded from the design schema, used to
  model the paper's out-of-reach relation R7;
* NULL injection and free-standing numeric columns.

All randomness flows through a seeded :class:`numpy.random.Generator`, so
every dataset is reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.relation.fd import FunctionalDependency
from repro.relation.relation import Relation
from repro.rwd.schema import DesignSchema, RwdRelation
from repro.synthetic.beta import beta_parameters_for_skewness, sample_domain_values


class TableBuilder:
    """Incrementally build a synthetic benchmark relation with a planted schema."""

    def __init__(self, num_rows: int, seed: int):
        if num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {num_rows}")
        self.num_rows = num_rows
        self.rng = np.random.default_rng(seed)
        self._columns: Dict[str, List[object]] = {}
        self._order: List[str] = []
        self._fds: List[FunctionalDependency] = []

    # ------------------------------------------------------------------
    # Column generators
    # ------------------------------------------------------------------
    def add_key(self, name: str, prefix: Optional[str] = None, null_rate: float = 0.0) -> None:
        """A unique identifier column (one distinct value per row)."""
        prefix = prefix if prefix is not None else name
        values: List[object] = [f"{prefix}_{index:06d}" for index in range(self.num_rows)]
        self.rng.shuffle(values)
        self._register(name, values, null_rate)

    def add_categorical(
        self,
        name: str,
        cardinality: int,
        skew: float = 0.0,
        majority_share: Optional[float] = None,
        null_rate: float = 0.0,
        prefix: Optional[str] = None,
    ) -> None:
        """A root categorical column.

        ``skew`` selects a Beta-distributed value frequency profile;
        ``majority_share`` instead makes a single value carry that share of
        the rows (used for the heavily skewed columns of relation R6).
        """
        if cardinality < 1:
            raise ValueError(f"cardinality must be >= 1, got {cardinality}")
        prefix = prefix if prefix is not None else name
        if majority_share is not None:
            if not 0.0 < majority_share <= 1.0:
                raise ValueError(f"majority_share must be in (0, 1], got {majority_share}")
            dominant = self.rng.random(self.num_rows) < majority_share
            others = self.rng.integers(1, max(cardinality, 2), size=self.num_rows)
            indices = np.where(dominant, 0, others)
        else:
            alpha, beta = beta_parameters_for_skewness(skew) if skew > 0 else (1.0, 1.0)
            indices = sample_domain_values(self.rng, cardinality, self.num_rows, alpha, beta)
        values = [f"{prefix}_{int(index)}" for index in indices]
        self._register(name, values, null_rate)

    def add_numeric(
        self,
        name: str,
        low: float = 0.0,
        high: float = 1000.0,
        integer: bool = True,
        null_rate: float = 0.0,
    ) -> None:
        """A free-standing numeric column (not part of any planted FD)."""
        if integer:
            values = [int(value) for value in self.rng.integers(int(low), int(high) + 1, self.num_rows)]
        else:
            values = [round(float(value), 4) for value in self.rng.uniform(low, high, self.num_rows)]
        self._register(name, values, null_rate)

    def add_derived(
        self,
        name: str,
        source: str,
        cardinality: Optional[int] = None,
        noise_rate: float = 0.0,
        min_errors: int = 1,
        injective: bool = False,
        in_schema: bool = True,
        null_rate: float = 0.0,
        prefix: Optional[str] = None,
    ) -> None:
        """A column derived as a deterministic function of ``source``.

        Plants the FD ``source -> name`` (and ``name -> source`` when
        ``injective``) unless ``in_schema=False`` — the latter models
        spurious dependencies not part of the design schema.  A positive
        ``noise_rate`` corrupts cells with copy-style errors, turning the
        planted FD(s) into approximate design FDs.
        """
        if source not in self._columns:
            raise KeyError(f"derived column {name!r} refers to unknown source {source!r}")
        prefix = prefix if prefix is not None else name
        source_values = self._columns[source]
        distinct_sources = sorted({value for value in source_values if value is not None}, key=repr)
        if injective:
            target_indices = list(range(len(distinct_sources)))
            self.rng.shuffle(target_indices)
            mapping = {
                source_value: f"{prefix}_{target_indices[index]}"
                for index, source_value in enumerate(distinct_sources)
            }
        else:
            domain = cardinality if cardinality is not None else max(2, len(distinct_sources) // 5)
            domain = max(domain, 2)
            mapping = {
                source_value: f"{prefix}_{int(self.rng.integers(0, domain))}"
                for source_value in distinct_sources
            }
        values: List[object] = [
            None if source_value is None else mapping[source_value]
            for source_value in source_values
        ]
        if noise_rate > 0.0:
            self._corrupt_derived(values, source_values, noise_rate, min_errors)
        self._register(name, values, null_rate)
        if in_schema:
            self._fds.append(FunctionalDependency(source, name))
            if injective:
                self._fds.append(FunctionalDependency(name, source))

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def build(self, key: str, title: str, description: str = "") -> RwdRelation:
        """Assemble the relation and its design schema."""
        rows = [
            tuple(self._columns[name][index] for name in self._order)
            for index in range(self.num_rows)
        ]
        relation = Relation(self._order, rows, name=key)
        return RwdRelation(
            key=key,
            title=title,
            relation=relation,
            design_schema=DesignSchema(self._fds),
            description=description,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _register(self, name: str, values: List[object], null_rate: float) -> None:
        if name in self._columns:
            raise ValueError(f"column {name!r} already defined")
        if null_rate > 0.0:
            null_mask = self.rng.random(self.num_rows) < null_rate
            values = [None if null_mask[index] else value for index, value in enumerate(values)]
        self._columns[name] = values
        self._order.append(name)

    def _corrupt_derived(
        self,
        values: List[object],
        source_values: List[object],
        noise_rate: float,
        min_errors: int,
    ) -> None:
        """Copy-style corruption guaranteeing at least one genuine violation.

        Only positions whose source value occurs at least twice are corrupted,
        so every introduced error actually violates the planted FD.
        """
        distinct_values = sorted({value for value in values if value is not None}, key=repr)
        if len(distinct_values) < 2:
            return
        source_counts: Dict[object, int] = {}
        for source_value in source_values:
            if source_value is not None:
                source_counts[source_value] = source_counts.get(source_value, 0) + 1
        eligible = [
            index
            for index, source_value in enumerate(source_values)
            if source_value is not None and source_counts[source_value] >= 2
        ]
        if not eligible:
            return
        error_count = max(min_errors, int(noise_rate * self.num_rows))
        error_count = min(error_count, len(eligible))
        chosen = self.rng.choice(len(eligible), size=error_count, replace=False)
        for offset in chosen:
            position = eligible[offset]
            current = values[position]
            alternatives = [value for value in distinct_values if value != current]
            values[position] = alternatives[int(self.rng.integers(0, len(alternatives)))]
        # Guarantee that the corruption really violates the planted FD: if all
        # corrupted cells happened to land on rows whose whole source group was
        # rewritten consistently, force one additional genuine violation.
        groups: Dict[object, set] = {}
        for index, source_value in enumerate(source_values):
            if source_value is not None and values[index] is not None:
                groups.setdefault(source_value, set()).add(values[index])
        if all(len(targets) <= 1 for targets in groups.values()):
            position = eligible[0]
            current = values[position]
            alternatives = [value for value in distinct_values if value != current]
            values[position] = alternatives[0]
