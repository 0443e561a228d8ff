"""Shared sufficient statistics for AFD measures.

Every measure in the paper is a function of the group structure that an
FD ``X -> Y`` induces on a relation ``R``: the multiplicities of distinct
``x`` values, distinct ``y`` values and distinct ``(x, y)`` pairs, plus
one integer for the normalised g1 variant — ``Σ_w R(w)²`` over distinct
full tuples ``w``.  :class:`FdStatistics` computes this once so that
scoring all measures on the same candidate FD shares the work, which is
also how the runtime experiment (Table V of the paper) is structured.

It holds the ``x``, ``y`` and ``(x, y)`` count maps and ``Σ_w R(w)²``
but nothing per group: each group fact is one pass over the ``(x, y)``
counts in insertion order, and ``satisfied`` is O(1).

:meth:`FdStatistics.compute` is one chunked map-merge pass
(:mod:`repro.core.chunked`) with one partial kernel per backend
(:mod:`repro.core.backends`): code tuples for ``python``, packed
``int64`` arrays for ``numpy``.  Both produce bit-identical statistics —
including ``Counter`` insertion order, on which the floating-point
summation order (and hence bit-identical scores) depends.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.relation.fd import FunctionalDependency


@dataclass
class FdStatistics:
    """Sufficient statistics of a candidate FD ``X -> Y`` on a relation.

    All counts are computed on the subrelation of tuples that are non-NULL
    on every attribute of ``X ∪ Y`` (the paper's NULL convention,
    Section VI-A).

    Derived quantities are cached in ``_cache``; integer quantities are
    cached as Python ``int`` (never round-tripped through ``float``, so
    counts above 2**53 keep exact precision), probabilities and entropies
    as ``float``.  Backends may pre-seed the cache with eagerly computed
    values as long as they are bit-identical to what the lazy paths below
    would produce.
    """

    fd: FunctionalDependency
    num_rows: int
    x_counts: Counter
    y_counts: Counter
    xy_counts: Counter
    #: ``Σ_w R(w)²`` over distinct full tuples ``w`` (exact ``int``).
    tuple_square_sum: int
    relation_name: str = ""
    # Excluded from __eq__: which lazy derivations happen to have been
    # materialised (or pre-seeded by a backend) is not part of a
    # statistics object's identity — the bit-identity contract already
    # guarantees seeded values equal what the lazy paths produce.
    _cache: Dict[str, Union[int, float]] = field(
        default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def compute(
        cls,
        source,
        fd: FunctionalDependency,
        backend: Optional[str] = None,
    ) -> "FdStatistics":
        """Compute statistics of ``fd`` on ``source`` (NULLs dropped).

        ``source`` is a :class:`~repro.relation.relation.Relation` or a
        :class:`~repro.relation.chunked.ChunkedRelation`.  ``backend``
        selects the partial kernel: ``"python"``, ``"numpy"`` or
        ``"auto"``/``None`` (the process default — see
        :func:`repro.core.backends.set_default_backend` and the
        ``REPRO_STATS_BACKEND`` environment variable).  Scores derived
        from the result are bit-identical across backends and chunkings.
        """
        from repro.core.chunked import map_merge

        return map_merge(source, fd, backend)

    @classmethod
    def from_joint_counts(
        cls,
        fd: FunctionalDependency,
        num_rows: int,
        xy_counts: Counter,
        tuple_square_sum: int,
        relation_name: str = "",
    ) -> "FdStatistics":
        """Assemble statistics from joint ``(x, y)`` counts and ``Σ_w R(w)²``.

        The python kernel and the incremental tracker assemble through
        here: the marginals are summed in one pass over ``xy_counts`` in
        its insertion order, which pins down the ``Counter`` insertion
        orders (and every downstream floating-point summation order) the
        numpy assembly (:mod:`repro.core.chunked`) reproduces.
        """
        x_counts: Counter = Counter()
        y_counts: Counter = Counter()
        # Plain dict probes instead of ``Counter.__missing__`` dispatch.
        for (x, y), count in xy_counts.items():
            previous = x_counts.get(x)
            x_counts[x] = count if previous is None else previous + count
            previous = y_counts.get(y)
            y_counts[y] = count if previous is None else previous + count
        return cls(
            fd=fd,
            num_rows=num_rows,
            x_counts=x_counts,
            y_counts=y_counts,
            xy_counts=xy_counts,
            tuple_square_sum=tuple_square_sum,
            relation_name=relation_name,
        )

    # ------------------------------------------------------------------
    # Structural facts
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return self.num_rows == 0

    @property
    def satisfied(self) -> bool:
        """True when the (NULL-restricted) relation satisfies the FD."""
        # Every ``x`` has one ``(x, y)`` pair; the FD holds iff none has two.
        return len(self.xy_counts) == len(self.x_counts)

    @property
    def distinct_x(self) -> int:
        """``|dom_R(X)|``."""
        return len(self.x_counts)

    @property
    def distinct_y(self) -> int:
        """``|dom_R(Y)|``."""
        return len(self.y_counts)

    @property
    def distinct_xy(self) -> int:
        """``|dom_R(XY)|``."""
        return len(self.xy_counts)

    @property
    def lhs_uniqueness(self) -> float:
        """``|dom_R(X)| / |R|`` — the LHS-uniqueness statistic of Section V."""
        if self.num_rows == 0:
            return 0.0
        return self.distinct_x / self.num_rows

    # ------------------------------------------------------------------
    # Probability building blocks (cached)
    # ------------------------------------------------------------------
    def _cached(self, key: str, compute):
        value = self._cache.get(key)
        if value is None:
            value = compute()
            self._cache[key] = value
        return value

    def sum_squared_x_probabilities(self) -> float:
        """``Σ_x p(x)²`` (equals ``1 - h_R(X)``)."""
        return self._cached("sum_sq_x", lambda: _sum_squared_probabilities(self.x_counts, self.num_rows))

    def sum_squared_y_probabilities(self) -> float:
        """``Σ_y p(y)²`` (equals ``pdep(Y, R) = 1 - h_R(Y)``)."""
        return self._cached("sum_sq_y", lambda: _sum_squared_probabilities(self.y_counts, self.num_rows))

    def sum_squared_xy_probabilities(self) -> float:
        """``Σ_{x,y} p(xy)²``."""
        return self._cached("sum_sq_xy", lambda: _sum_squared_probabilities(self.xy_counts, self.num_rows))

    def sum_squared_tuple_counts(self) -> int:
        """``Σ_w R(w)²`` over full tuples ``w`` of the restricted relation."""
        return self.tuple_square_sum

    def violating_pair_count(self) -> int:
        """``|G1(X -> Y, R)|``: ordered pairs equal on X but different on Y."""
        # Pairs equal on X, ``Σ_x R(x)²``, less those also equal on Y.
        return self._cached(
            "violating_pairs",
            lambda: sum(c * c for c in self.x_counts.values())
            - sum(c * c for c in self.xy_counts.values()),
        )

    def violating_tuple_count(self) -> int:
        """``Σ_{w ∈ G2} R(w)``: tuples participating in at least one violating pair."""
        # An ``x`` with several ``y`` is one whose ``(x, y)`` counts each
        # fall short of its own (counts are positive).
        return self._cached(
            "violating_tuples",
            lambda: sum(c for (x, _), c in self.xy_counts.items() if c < self.x_counts[x]),
        )

    def max_subrelation_size(self) -> int:
        """Size of the largest subrelation satisfying the FD (numerator of g3)."""

        def compute() -> int:
            maxima: Dict[object, int] = {}
            for (x, _), count in self.xy_counts.items():
                if count > maxima.get(x, 0):
                    maxima[x] = count
            return sum(maxima.values())

        return self._cached("max_subrelation", compute)

    # ------------------------------------------------------------------
    # Entropies (cached; Shannon entropies use the provided base)
    # ------------------------------------------------------------------
    def shannon_entropy_y(self, base: float = 2.0) -> float:
        from repro.info.shannon import entropy_of_counts

        return self._cached(f"H_y_{base}", lambda: entropy_of_counts(self.y_counts, base=base))

    def shannon_entropy_x(self, base: float = 2.0) -> float:
        from repro.info.shannon import entropy_of_counts

        return self._cached(f"H_x_{base}", lambda: entropy_of_counts(self.x_counts, base=base))

    def shannon_conditional_entropy(self, base: float = 2.0) -> float:
        """``H_R(Y | X) = H_R(XY) - H_R(X)``, over the cached ``H_R(X)``."""
        from repro.info.shannon import entropy_of_counts

        def compute() -> float:
            joint = entropy_of_counts(self.xy_counts, base=base)
            return max(joint - self.shannon_entropy_x(base), 0.0)

        return self._cached(f"H_y_given_x_{base}", compute)

    def mutual_information(self, base: float = 2.0) -> float:
        """``I_R(X; Y) = H_R(Y) - H_R(Y | X)``."""
        from repro.info.shannon import mutual_information

        return self._cached(f"I_xy_{base}", lambda: mutual_information(self.xy_counts, base=base))

    def logical_entropy_y(self) -> float:
        """``h_R(Y) = 1 - Σ_y p(y)²``."""
        return 1.0 - self.sum_squared_y_probabilities()

    def logical_conditional_entropy(self) -> float:
        """``h_R(Y | X) = Σ_x p(x)² - Σ_{xy} p(xy)²``."""
        return max(
            self.sum_squared_x_probabilities() - self.sum_squared_xy_probabilities(), 0.0
        )

    def expected_group_logical_entropy(self) -> float:
        """``E_x[h_R(Y | x)]`` — the quantity underlying pdep.

        Sums in the order the numpy assembly reproduces: each ``x``'s
        ``Σ_y p(y | x)²`` over the ``(x, y)`` counts, then over ``x`` by
        first occurrence there.
        """

        def compute() -> float:
            x_counts = self.x_counts
            squares: Dict[object, float] = {}
            for (x, _), count in self.xy_counts.items():
                p = count / x_counts[x]
                squares[x] = squares.get(x, 0.0) + p * p
            result = 0.0
            for x, sum_of_squares in squares.items():
                result += x_counts[x] / self.num_rows * (1.0 - sum_of_squares)
            return result

        return self._cached("E_h_y_given_x", compute)


def _sum_squared_probabilities(counts: Counter, num_rows: int) -> float:
    """Sequential ``Σ (count / num_rows)²`` over the counter's insertion order.

    The explicit ``p * p`` (rather than ``p ** 2``) and the sequential
    accumulation are part of the backend bit-identity contract: the numpy
    backend reproduces exactly this — elementwise division and
    multiplication followed by a sequential (``cumsum``) reduction over
    the same order.
    """
    result = 0.0
    for count in counts.values():
        p = count / num_rows
        result += p * p
    return result
