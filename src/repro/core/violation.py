"""VIOLATION-class measures: ρ, g2, g3 and g3'.

These measures quantify (a normalised count of) explicit violations of
the FD: pairs of tuples or tuples that would have to be removed for the
FD to hold (Section IV-A and IV-B of the paper).
"""

from __future__ import annotations

from repro.core.base import AfdMeasure, MeasureClass
from repro.core.statistics import FdStatistics


class RhoMeasure(AfdMeasure):
    """Co-occurrence ratio ρ (Ilyas et al., CORDS).

    ``ρ(X -> Y, R) = |dom_R(X)| / |dom_R(XY)|`` — a set-based measure that
    ignores multiplicities.  Without baselines.
    """

    name = "rho"
    description = "co-occurrence ratio |dom(X)| / |dom(XY)| (CORDS soft FDs)"
    measure_class = MeasureClass.VIOLATION
    has_baselines = False

    def _score_violated(self, statistics: FdStatistics) -> float:
        return statistics.distinct_x / statistics.distinct_xy


class G2Measure(AfdMeasure):
    """g2: probability that a random tuple does not participate in a violating pair.

    ``g2(X -> Y, R) = 1 - Σ_{w ∈ G2(X -> Y, R)} p_R(w)`` (Kivinen & Mannila).
    """

    name = "g2"
    description = "fraction of tuples not participating in any violating pair"
    measure_class = MeasureClass.VIOLATION
    has_baselines = True

    def _score_violated(self, statistics: FdStatistics) -> float:
        return 1.0 - statistics.violating_tuples / statistics.num_rows


class G3Measure(AfdMeasure):
    """g3: relative size of the largest subrelation satisfying the FD.

    ``g3(X -> Y, R) = max_{R' ⊆ R, R' |= φ} |R'| / |R|`` — equivalently one
    minus the minimum fraction of tuples to delete.  Without baselines
    (bounded below by ``|dom_R(X)| / |R| > 0``).  Used by TANE and many
    other discovery algorithms.
    """

    name = "g3"
    description = "relative size of the largest satisfying subrelation (TANE)"
    measure_class = MeasureClass.VIOLATION
    has_baselines = False

    def _score_violated(self, statistics: FdStatistics) -> float:
        return statistics.max_subrelation / statistics.num_rows


class G3PrimeMeasure(AfdMeasure):
    """g3': the normalised variant of g3 (Giannella & Robertson).

    ``g3'(X -> Y, R) = (max |R'| - |dom_R(X)|) / (|R| - |dom_R(X)|)`` — has
    baselines; the paper's best-ranking VIOLATION measure.
    """

    name = "g3_prime"
    description = "normalised g3 relative to its lower bound |dom(X)|/|R|"
    measure_class = MeasureClass.VIOLATION
    has_baselines = True

    def _score_violated(self, statistics: FdStatistics) -> float:
        numerator = statistics.max_subrelation - statistics.distinct_x
        denominator = statistics.num_rows - statistics.distinct_x
        if denominator <= 0:
            # |dom_R(X)| = |R| would mean X is a key and the FD is satisfied,
            # which the base class already handles; guard for safety.
            return 1.0
        return numerator / denominator
