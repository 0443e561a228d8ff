"""SHANNON-class measures: gS1, FI, RFI+, RFI'+ and SFIα.

These measures are based on Shannon entropy and mutual information
(Section IV-C of the paper).  RFI+ and the paper's new normalised variant
RFI'+ correct the fraction of information for its chance-level value
under random (X; Y)-permutations, computed exactly (hypergeometric
model, :mod:`repro.core.expectations`).
"""

from __future__ import annotations

from repro.core.base import AfdMeasure, MeasureClass
from repro.core.expectations import expected_fraction_of_information
from repro.core.statistics import DEFAULT_LOG_BASE, FdStatistics, entropy


class GS1Measure(AfdMeasure):
    """gS1: the Shannon counterpart of g1 (new measure introduced by the paper).

    ``gS1(X -> Y, R) = max(1 - H_R(Y | X), 0)``.  The conditional entropy is
    unbounded, hence the truncation at zero.  The logarithm base matters for
    this measure (it is not cancelled by a normalisation); base 2 is used by
    default.
    """

    name = "gS1"
    description = "max(1 - H(Y|X), 0): Shannon counterpart of g1"
    measure_class = MeasureClass.SHANNON
    has_baselines = True

    def __init__(self, base: float = DEFAULT_LOG_BASE):
        self.base = base

    def _score_violated(self, statistics: FdStatistics) -> float:
        return max(1.0 - statistics.shannon_conditional_entropy(base=self.base), 0.0)


class FIMeasure(AfdMeasure):
    """Fraction of information FI (Cavallo & Pittarelli; Giannella & Robertson).

    ``FI(X -> Y, R) = (H_R(Y) - H_R(Y | X)) / H_R(Y) = I_R(X; Y) / H_R(Y)``
    — the proportional reduction in uncertainty about Y achieved by
    knowing X.  Baselines are the relations where X and Y are independent.
    """

    name = "fi"
    description = "fraction of information I(X;Y) / H(Y)"
    measure_class = MeasureClass.SHANNON
    has_baselines = True

    def _score_violated(self, statistics: FdStatistics) -> float:
        h_y = statistics.shannon_entropy_y()
        if h_y <= 0.0:
            # |dom_R(Y)| = 1 implies the FD is satisfied (handled centrally).
            return 1.0
        return 1.0 - statistics.shannon_conditional_entropy() / h_y


class _PermutationCorrectedMeasure(AfdMeasure):
    """Shared machinery for RFI+ and RFI'+ (FI and its expectation)."""

    measure_class = MeasureClass.SHANNON
    has_baselines = True
    efficiently_computable = False

    def _fi_and_expectation(self, statistics: FdStatistics) -> tuple:
        h_y = statistics.shannon_entropy_y()
        if h_y <= 0.0:
            return 1.0, 1.0
        fi = 1.0 - statistics.shannon_conditional_entropy() / h_y
        # The permutation expectation is identical for RFI+ and RFI'+ (it
        # only depends on the marginals), so it is cached on the shared
        # statistics object.
        return fi, statistics._cached(
            "E_fi", lambda: expected_fraction_of_information(statistics)
        )


class RfiPlusMeasure(_PermutationCorrectedMeasure):
    """RFI+: reliable fraction of information, truncated at zero.

    ``RFI(X -> Y, R) = FI(X -> Y, R) - E_R[FI(X -> Y, R)]`` (Mandros et
    al.); the expectation is over random (X; Y)-permutations.  Negative
    values (weak evidence) are mapped to zero.
    """

    name = "rfi_plus"
    description = "FI minus its permutation-model expectation, clipped at 0"

    def _score_violated(self, statistics: FdStatistics) -> float:
        fi, expected_fi = self._fi_and_expectation(statistics)
        return max(fi - expected_fi, 0.0)


class RfiPrimePlusMeasure(_PermutationCorrectedMeasure):
    """RFI'+: the paper's new normalised variant of RFI.

    ``RFI'(X -> Y, R) = (FI - E_R[FI]) / (1 - E_R[FI])``, clipped at zero.
    The best-ranking measure on the paper's real-world benchmark, at the
    cost of the same heavy expectation computation as RFI+.
    """

    name = "rfi_prime_plus"
    description = "normalised reliable FI: (FI - E[FI]) / (1 - E[FI]), clipped at 0"

    def _score_violated(self, statistics: FdStatistics) -> float:
        fi, expected_fi = self._fi_and_expectation(statistics)
        denominator = 1.0 - expected_fi
        if denominator <= 0.0:
            return 1.0
        return max((fi - expected_fi) / denominator, 0.0)


class SfiMeasure(AfdMeasure):
    """SFIα: smoothed fraction of information (Pennerath et al.).

    ``SFI_α(X -> Y, R) = FI(X -> Y, π^(α)_{XY}(R))`` where the projection
    onto XY receives ``α`` pseudo-counts for every combination of active
    domain values.  The paper evaluates α ∈ {0.5, 1, 2} and reports α = 0.5
    as the consistently best setting.
    """

    name = "sfi"
    description = "fraction of information on the Laplace-smoothed XY projection"
    measure_class = MeasureClass.SHANNON
    has_baselines = True
    efficiently_computable = False

    def __init__(self, alpha: float = 0.5):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = alpha
        self.name = f"sfi_{alpha:g}" if alpha != 0.5 else "sfi"

    def _score_violated(self, statistics: FdStatistics) -> float:
        # Smoothing adds alpha to every cell of dom(X) x dom(Y), so a
        # marginal count c becomes c + alpha * (cells in its row or
        # column), and the unseen cells are ``unseen`` more cells of count
        # 0: each smoothed entropy is one fsum over a count histogram,
        # O(distinct counts), not O(|dom X| * |dom Y|).  FI is a ratio of
        # entropies, so natural logarithms serve for any base.
        alpha = self.alpha
        kx = statistics.distinct_x
        ky = statistics.distinct_y
        total = statistics.num_rows + alpha * kx * ky
        h_y = entropy(statistics.y_histogram, total, alpha * kx)
        if h_y <= 0.0:
            return 1.0
        cells = dict(statistics.xy_histogram)
        unseen = kx * ky - statistics.distinct_xy
        if unseen:
            cells[0] = unseen
        h_xy = entropy(cells, total, alpha)
        h_x = entropy(statistics.x_histogram, total, alpha * ky)
        return 1.0 - max(h_xy - h_x, 0.0) / h_y
