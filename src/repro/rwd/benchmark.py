"""The assembled RWD benchmark (Section VI, Table II).

Bundles the stand-in relations of :mod:`repro.rwd.datasets` into one
object with the per-relation ``PFD``/``AFD`` split and the overview
statistics the paper reports in Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.rwd.datasets import build_dataset, dataset_keys
from repro.rwd.schema import RwdRelation


@dataclass
class RwdBenchmark:
    """All RWD relations with their annotated design schemas."""

    relations: List[RwdRelation]

    def __iter__(self) -> Iterator[RwdRelation]:
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    def __getitem__(self, key: str) -> RwdRelation:
        for relation in self.relations:
            if relation.key == key:
                return relation
        raise KeyError(f"no relation {key!r} in the benchmark")

    def total_approximate_fds(self) -> int:
        return sum(len(relation.approximate_fds) for relation in self.relations)


def build_rwd_benchmark(
    num_rows: int = 1000, seed: int = 0, keys: Optional[Sequence[str]] = None
) -> RwdBenchmark:
    """Build the benchmark (all stand-in relations, or a ``keys`` subset)."""
    selected = list(keys) if keys is not None else dataset_keys()
    return RwdBenchmark([build_dataset(key, num_rows=num_rows, seed=seed) for key in selected])


def overview_table(benchmark: RwdBenchmark) -> List[Dict[str, object]]:
    """Table II-style overview: size, schema size and PFD/AFD split per relation."""
    rows: List[Dict[str, object]] = []
    for relation in benchmark:
        rows.append(
            {
                "key": relation.key,
                "title": relation.title,
                "num_rows": relation.num_rows,
                "num_attributes": relation.num_attributes,
                "design_fds": len(relation.design_schema),
                "perfect_fds": len(relation.perfect_fds),
                "approximate_fds": len(relation.approximate_fds),
            }
        )
    return rows
