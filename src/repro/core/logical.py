"""LOGICAL-class measures: g1, g1', pdep, τ and μ+.

These measures are based on logical entropy: probabilities that randomly
drawn pairs of tuples agree or disagree on the FD's attributes
(Sections IV-B and IV-D of the paper).
"""

from __future__ import annotations

from repro.core.base import AfdMeasure, MeasureClass
from repro.core.expectations import expected_pdep
from repro.core.statistics import FdStatistics


class G1Measure(AfdMeasure):
    """g1: one minus the normalised number of violating pairs.

    ``g1(X -> Y, R) = 1 - |G1(X -> Y, R)| / |R|² = 1 - h_R(Y | X)``
    (Kivinen & Mannila; basis of FDX).  Without baselines.
    """

    name = "g1"
    description = "1 - (violating pairs) / |R|^2, i.e. 1 - logical conditional entropy"
    measure_class = MeasureClass.LOGICAL
    has_baselines = False

    def _score_violated(self, statistics: FdStatistics) -> float:
        n = statistics.num_rows
        return 1.0 - statistics.violating_pair_count() / (n * n)


class G1PrimeMeasure(AfdMeasure):
    """g1': g1 normalised by the maximum possible number of violating pairs.

    ``g1'(X -> Y, R) = 1 - |G1| / (|R|² - Σ_w R(w)²)`` (basis of PYRO).
    """

    name = "g1_prime"
    description = "g1 normalised by the maximal number of violating pairs (PYRO)"
    measure_class = MeasureClass.LOGICAL
    has_baselines = True

    def _score_violated(self, statistics: FdStatistics) -> float:
        n = statistics.num_rows
        denominator = n * n - statistics.tuple_square_sum
        if denominator <= 0:
            # All tuples identical: no violating pair is possible, so the FD
            # is satisfied and the base class already returned 1.0.
            return 1.0
        return 1.0 - statistics.violating_pair_count() / denominator


class PdepMeasure(AfdMeasure):
    """Probabilistic dependency pdep (Piatetsky-Shapiro & Matheus).

    ``pdep(X -> Y, R) = Σ_x p(x) Σ_y p(y | x)² = 1 - E_x[h_R(Y | x)]`` —
    the probability that two random tuples agree on Y given they agree on
    X.  Without baselines (always >= pdep(Y) > 0).
    """

    name = "pdep"
    description = "probabilistic dependency: P(two tuples agree on Y | agree on X)"
    measure_class = MeasureClass.LOGICAL
    has_baselines = False

    def _score_violated(self, statistics: FdStatistics) -> float:
        return 1.0 - statistics.expected_group_logical_entropy()


class TauMeasure(AfdMeasure):
    """Goodman–Kruskal τ: pdep normalised by the self-dependency pdep(Y).

    ``τ(X -> Y, R) = (pdep(X -> Y) - pdep(Y)) / (1 - pdep(Y))`` — the
    relative increase in the probability of guessing Y correctly when X is
    known.
    """

    name = "tau"
    description = "Goodman-Kruskal tau: pdep normalised against pdep(Y)"
    measure_class = MeasureClass.LOGICAL
    has_baselines = True

    def _score_violated(self, statistics: FdStatistics) -> float:
        pdep_xy = 1.0 - statistics.expected_group_logical_entropy()
        pdep_y = statistics.sum_squared_y_probabilities()
        denominator = 1.0 - pdep_y
        if denominator <= 0.0:
            # |dom_R(Y)| = 1 means the FD is satisfied (handled by base class).
            return 1.0
        return (pdep_xy - pdep_y) / denominator


class MuPlusMeasure(AfdMeasure):
    """μ+: pdep normalised by its expectation under random permutations.

    ``μ = (pdep - E_R[pdep]) / (1 - E_R[pdep])``, clipped at zero.  This is
    the paper's recommended measure: insensitive to LHS-uniqueness and
    RHS-skew, and efficiently computable.
    """

    name = "mu_plus"
    description = "pdep normalised by its permutation-model expectation, clipped at 0"
    measure_class = MeasureClass.LOGICAL
    has_baselines = True

    def _score_violated(self, statistics: FdStatistics) -> float:
        pdep_xy = 1.0 - statistics.expected_group_logical_entropy()
        expectation = expected_pdep(statistics)
        denominator = 1.0 - expectation
        if denominator <= 0.0:
            # Lemma 1: E[pdep] = 1 implies R |= φ, handled by the base class.
            return 1.0
        mu = (pdep_xy - expectation) / denominator
        return max(mu, 0.0)
