"""Order-free sufficient statistics for AFD measures.

Every measure in the paper reads an FD ``X -> Y`` on a relation ``R``
through a few quantities, none of which depends on the values or on the
order they appear in: ``N``, the multisets of ``x``, ``y`` and ``(x, y)``
counts, and a few exact integers.  :class:`FdStatistics` holds exactly
those, computed once per candidate so that scoring all measures on it
shares the work (the structure of the runtime experiment, Table V of the
paper):

* ``x_histogram``, ``y_histogram`` and ``xy_histogram`` — ``{count:
  multiplicity}``, how many distinct ``x`` (``y``, ``(x, y)``) values
  occur ``count`` times; the distinct counts are the multiplicities'
  sums;
* ``violating_tuples`` (``Σ_{w ∈ G2} R(w)``), ``max_subrelation``
  (``Σ_x max_y c_xy``) and ``tuple_square_sum`` (``Σ_w R(w)²``);
* ``group_squares`` — ``{(S_x, c_x): multiplicity}`` with ``S_x =
  Σ_y c_xy²``, the one per-``x`` fact pdep needs.

Keys are ascending, so ``==`` and ``repr`` do not depend on the path
that built the object.

**The fsum contract.**  Every float a measure reads is computed in
Python from those integers, and every sum is one :func:`math.fsum` with
one term per distinct count (per distinct ``(S_x, c_x)`` pair).  fsum is
correctly rounded, so its result does not depend on the order of its
terms: ``==`` statistics give bit-identical scores, and every path that
agrees on the multisets — both kernels, any chunking, the incremental
tracker, a shard worker — agrees ``==`` by construction.

:meth:`FdStatistics.compute` is one chunked map-merge pass
(:mod:`repro.core.chunked`), which picks its kernel (packed ``int64``
keys or code tuples) from numpy and the packing limit;
:meth:`FdStatistics.from_joint_counts` builds the statistics from any
``(x, y) -> count`` mapping.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.relation.fd import FunctionalDependency

#: Logarithm base of the Shannon entropies (bits), the convention of the
#: cited literature; FI, RFI+, RFI'+ and SFI are invariant to it.
DEFAULT_LOG_BASE = 2.0

#: ``{count: multiplicity}``, keys ascending.
Histogram = Dict[int, int]

#: A memo of hypergeometric cells, ``(min(a, b), max(a, b), N) -> value``
#: (see :func:`repro.core.expectations.expected_mutual_information_exact`).
ExpectationCells = Dict[Tuple[int, int, int], float]


@dataclass
class FdStatistics:
    """Sufficient statistics of a candidate FD ``X -> Y`` on a relation.

    All counts are computed on the subrelation of tuples that are non-NULL
    on every attribute of ``X ∪ Y`` (the paper's NULL convention,
    Section VI-A).  Every field is an exact Python ``int`` (or a dict of
    them), so counts above ``2**53`` keep full precision; what is derived
    from them is cached in ``_cache``.
    """

    fd: FunctionalDependency
    num_rows: int
    x_histogram: Histogram
    y_histogram: Histogram
    xy_histogram: Histogram
    #: ``Σ_{w ∈ G2} R(w)``: tuples in at least one violating pair.
    violating_tuples: int
    #: ``Σ_x max_y c_xy``: the largest subrelation satisfying the FD.
    max_subrelation: int
    #: ``Σ_w R(w)²`` over distinct full tuples ``w``.
    tuple_square_sum: int
    #: ``{(S_x, c_x): multiplicity}`` with ``S_x = Σ_y c_xy²``.
    group_squares: Dict[Tuple[int, int], int]
    relation_name: str = ""
    # Excluded from __eq__: which derived values have been computed is
    # not part of a statistics object's identity.
    _cache: Dict[object, Union[int, float]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The owning session's memo of permutation-expectation cells, or
    #: ``None``; a cache, so excluded from ``==`` and ``repr`` too.
    expectation_cells: Optional[ExpectationCells] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def compute(cls, source, fd: FunctionalDependency) -> "FdStatistics":
        """Compute statistics of ``fd`` on ``source`` (NULLs dropped).

        ``source`` is a :class:`~repro.relation.relation.Relation` or a
        :class:`~repro.relation.chunked.ChunkedRelation`.  The result is
        ``==`` across kernels and chunkings.
        """
        from repro.core.chunked import map_merge

        return map_merge(source, fd)

    @classmethod
    def from_joint_counts(
        cls,
        fd: FunctionalDependency,
        num_rows: int,
        xy_counts: Mapping[Tuple[object, object], int],
        tuple_square_sum: int,
        relation_name: str = "",
    ) -> "FdStatistics":
        """Build statistics from ``(x, y) -> count`` and ``Σ_w R(w)²``, in one pass.

        ``x`` and ``y`` may be value tuples or dictionary-code tuples:
        codes group exactly as values do, and nothing here reads a key
        beyond grouping by it.
        """
        # Per x: [c_x, S_x, max_y c_xy, distinct y].
        groups: Dict[object, List[int]] = {}
        y_totals: Dict[object, int] = {}
        for (x, y), count in xy_counts.items():
            group = groups.get(x)
            if group is None:
                groups[x] = [count, count * count, count, 1]
            else:
                group[0] += count
                group[1] += count * count
                if count > group[2]:
                    group[2] = count
                group[3] += 1
            previous = y_totals.get(y)
            y_totals[y] = count if previous is None else previous + count
        per_x = groups.values()
        return cls(
            fd=fd,
            num_rows=num_rows,
            x_histogram=_histogram(group[0] for group in per_x),
            y_histogram=_histogram(y_totals.values()),
            xy_histogram=_histogram(xy_counts.values()),
            violating_tuples=sum(group[0] for group in per_x if group[3] > 1),
            max_subrelation=sum(group[2] for group in per_x),
            tuple_square_sum=tuple_square_sum,
            group_squares=_histogram((group[1], group[0]) for group in per_x),
            relation_name=relation_name,
        )

    def _cached(self, key: object, compute):
        value = self._cache.get(key)
        if value is None:
            value = compute()
            self._cache[key] = value
        return value

    # ------------------------------------------------------------------
    # Structural facts (exact integers)
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return self.num_rows == 0

    @property
    def distinct_x(self) -> int:
        """``|dom_R(X)|``."""
        return self._cached("distinct_x", lambda: sum(self.x_histogram.values()))

    @property
    def distinct_y(self) -> int:
        """``|dom_R(Y)|``."""
        return self._cached("distinct_y", lambda: sum(self.y_histogram.values()))

    @property
    def distinct_xy(self) -> int:
        """``|dom_R(XY)|``."""
        return self._cached("distinct_xy", lambda: sum(self.xy_histogram.values()))

    @property
    def satisfied(self) -> bool:
        """True when the (NULL-restricted) relation satisfies the FD."""
        # Every ``x`` has one ``(x, y)`` pair; the FD holds iff none has two.
        return self.distinct_xy == self.distinct_x

    def violating_pair_count(self) -> int:
        """``|G1(X -> Y, R)|``: ordered pairs equal on X but different on Y."""
        # Pairs equal on X, ``Σ_x R(x)²``, less those also equal on Y.
        return self._cached(
            "violating_pairs",
            lambda: _square_sum(self.x_histogram) - _square_sum(self.xy_histogram),
        )

    # ------------------------------------------------------------------
    # Derived floats (each one int/int division or one fsum; cached)
    # ------------------------------------------------------------------
    def sum_squared_y_probabilities(self) -> float:
        """``Σ_y p(y)²`` (equals ``pdep(Y, R) = 1 - h_R(Y)``)."""
        if not self.num_rows:
            return 0.0
        return _square_sum(self.y_histogram) / (self.num_rows * self.num_rows)

    def expected_group_logical_entropy(self) -> float:
        """``E_x[h_R(Y | x)] = 1 - Σ_x S_x / (c_x N)`` — the quantity under pdep."""

        def compute() -> float:
            if not self.num_rows:
                return 0.0
            terms = [m * squares / total for (squares, total), m in self.group_squares.items()]
            return 1.0 - math.fsum(terms) / self.num_rows

        return self._cached("E_h_y_given_x", compute)

    def shannon_entropy_x(self, base: float = DEFAULT_LOG_BASE) -> float:
        """``H_R(X)``."""
        return self._cached(
            ("H_x", base), lambda: entropy(self.x_histogram, self.num_rows) / math.log(base)
        )

    def shannon_entropy_y(self, base: float = DEFAULT_LOG_BASE) -> float:
        """``H_R(Y)``."""
        return self._cached(
            ("H_y", base), lambda: entropy(self.y_histogram, self.num_rows) / math.log(base)
        )

    def shannon_conditional_entropy(self, base: float = DEFAULT_LOG_BASE) -> float:
        """``H_R(Y | X) = H_R(XY) - H_R(X)``, clipped at 0."""

        def compute() -> float:
            joint = entropy(self.xy_histogram, self.num_rows) / math.log(base)
            return max(joint - self.shannon_entropy_x(base), 0.0)

        return self._cached(("H_y_given_x", base), compute)


def _histogram(counts: Iterable) -> Dict:
    """``{count: multiplicity}`` of ``counts``, keys ascending."""
    return dict(sorted(Counter(counts).items()))


def _square_sum(counts: Histogram) -> int:
    """``Σ c²`` over the counted values, from their histogram."""
    return sum(m * c * c for c, m in counts.items())


def entropy(counts: Histogram, total: Union[int, float], shift: float = 0.0) -> float:
    """Shannon entropy (nats) of the counts ``c + shift`` normalised by ``total``.

    One :func:`math.fsum` term per distinct count, weighted by its
    multiplicity; 0 when ``total`` is 0.
    """
    if not total:
        return 0.0
    log = math.log
    terms = []
    for count, multiplicity in counts.items():
        p = (count + shift) / total
        terms.append(multiplicity * p * log(p))
    return -math.fsum(terms)
