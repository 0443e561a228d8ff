"""Reference scores: the fourteen measures restated from their definitions.

This module shares no code with the library's scoring path.  It works on
plain value columns, restricts each candidate ``X -> Y`` to the rows that
are non-NULL on ``X`` and ``Y`` (the paper's NULL convention), and
computes each measure from the contingency counts:

* the permutation expectation of RFI+/RFI'+ is the exact hypergeometric
  expected mutual information, summed once per *distinct* pair of
  marginal counts and weighted by multiplicity;
* SFI smooths every cell of the ``dom(X) x dom(Y)`` grid, but sums the
  unseen cells in closed form (they all hold ``alpha``).

Both are algebraically equal to the dense definitions, so library scores
match to within float rounding.  :data:`ATOL` is the agreement demanded of
every score: loose enough for summation-order and reformulation drift
(~1e-11 at most), tight enough that any wrong formula fails.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: The paper's fourteen measures, in its table order.
MEASURES: Tuple[str, ...] = (
    "rho",
    "g2",
    "g3",
    "g3_prime",
    "gS1",
    "fi",
    "rfi_plus",
    "rfi_prime_plus",
    "sfi",
    "g1",
    "g1_prime",
    "pdep",
    "tau",
    "mu_plus",
)

#: Absolute tolerance of every score comparison.
ATOL = 1e-9

#: Smoothing pseudo-count of SFI at the library default.
SFI_ALPHA = 0.5


def _entropy(counts, total: float) -> float:
    """Shannon entropy (bits) of the distribution ``count / total``."""
    result = 0.0
    for count in counts:
        if count > 0:
            p = count / total
            result -= p * math.log2(p)
    return result


def _log_factorials(n: int) -> List[float]:
    table = [0.0] * (n + 1)
    for value in range(2, n + 1):
        table[value] = table[value - 1] + math.log(value)
    return table


def expected_mutual_information(a_counts: Sequence[int], b_counts: Sequence[int]) -> float:
    """Exact E[I(X;Y)] (bits) under random permutations with fixed marginals."""
    n = sum(a_counts)
    if n <= 1:
        return 0.0
    lf = _log_factorials(n)
    a_groups = Counter(a_counts)
    b_groups = Counter(b_counts)
    total = 0.0
    for a, a_mult in a_groups.items():
        log_denominator = lf[n] - lf[a] - lf[n - a]
        for b, b_mult in b_groups.items():
            cell = 0.0
            for k in range(max(1, a + b - n), min(a, b) + 1):
                log_p = (
                    lf[b] - lf[k] - lf[b - k]
                    + lf[n - b] - lf[a - k] - lf[n - b - a + k]
                    - log_denominator
                )
                cell += math.exp(log_p) * (k / n) * math.log2(n * k / (a * b))
            total += a_mult * b_mult * cell
    return max(total, 0.0)


def _clamp(value: float) -> float:
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


class RelationColumns:
    """A relation as value columns plus its full-tuple multiset."""

    def __init__(self, attributes: Sequence[str], rows: Sequence[Sequence[object]]):
        self.attributes = tuple(attributes)
        self.columns = {name: [row[i] for row in rows] for i, name in enumerate(attributes)}
        self.tuple_counts = Counter(tuple(row) for row in rows)

    def scores(
        self, lhs: str, rhs: str, measures: Optional[Sequence[str]] = None
    ) -> Dict[str, float]:
        """Reference scores of ``lhs -> rhs`` for ``measures`` (default: all)."""
        wanted = MEASURES if measures is None else tuple(measures)
        joint = Counter(zip(self.columns[lhs], self.columns[rhs]))
        xy = {key: count for key, count in joint.items() if key[0] is not None and key[1] is not None}
        ix = self.attributes.index(lhs)
        iy = self.attributes.index(rhs)
        sum_sq_tuples = sum(
            count * count
            for row, count in self.tuple_counts.items()
            if row[ix] is not None and row[iy] is not None
        )
        return contingency_scores(xy, sum_sq_tuples, wanted)


def contingency_scores(
    xy: Mapping[Tuple[object, object], int], sum_sq_tuples: int, measures: Sequence[str]
) -> Dict[str, float]:
    """Scores from joint ``(x, y)`` counts and ``sum_w count(w)^2``."""
    n = sum(xy.values())
    groups: Dict[object, Dict[object, int]] = {}
    y_counts: Dict[object, int] = {}
    for (x, y), count in xy.items():
        groups.setdefault(x, {})[y] = count
        y_counts[y] = y_counts.get(y, 0) + count
    if n == 0 or all(len(group) == 1 for group in groups.values()):
        return {name: 1.0 for name in measures}
    x_counts = {x: sum(group.values()) for x, group in groups.items()}
    kx, ky, kxy = len(x_counts), len(y_counts), len(xy)

    values: Dict[str, float] = {}
    largest = sum(max(group.values()) for group in groups.values())
    violating_pairs = sum(
        x_counts[x] ** 2 - sum(c * c for c in group.values()) for x, group in groups.items()
    )
    pdep = sum(
        sum(c * c for c in group.values()) / (n * x_counts[x]) for x, group in groups.items()
    )
    pdep_y = sum((c / n) ** 2 for c in y_counts.values())
    h_y = _entropy(y_counts.values(), n)
    h_y_given_x = sum(
        x_counts[x] / n * _entropy(group.values(), x_counts[x]) for x, group in groups.items()
    )
    fi = 1.0 - h_y_given_x / h_y

    values["rho"] = kx / kxy
    values["g2"] = 1.0 - sum(x_counts[x] for x, g in groups.items() if len(g) > 1) / n
    values["g3"] = largest / n
    values["g3_prime"] = (largest - kx) / (n - kx)
    values["gS1"] = max(1.0 - h_y_given_x, 0.0)
    values["fi"] = fi
    if "rfi_plus" in measures or "rfi_prime_plus" in measures:
        expected_fi = min(
            expected_mutual_information(list(x_counts.values()), list(y_counts.values())) / h_y,
            1.0,
        )
        values["rfi_plus"] = max(fi - expected_fi, 0.0)
        values["rfi_prime_plus"] = (
            1.0 if expected_fi >= 1.0 else max((fi - expected_fi) / (1.0 - expected_fi), 0.0)
        )
    if "sfi" in measures:
        values["sfi"] = _smoothed_fi(xy, x_counts, y_counts, n)
    values["g1"] = 1.0 - violating_pairs / (n * n)
    values["g1_prime"] = 1.0 - violating_pairs / (n * n - sum_sq_tuples)
    values["pdep"] = pdep
    values["tau"] = (pdep - pdep_y) / (1.0 - pdep_y)
    expected_pdep = pdep_y + (kx - 1) / (n - 1) * (1.0 - pdep_y)
    values["mu_plus"] = max((pdep - expected_pdep) / (1.0 - expected_pdep), 0.0)
    return {name: _clamp(values[name]) for name in measures}


def _smoothed_fi(xy, x_counts, y_counts, n: int, alpha: float = SFI_ALPHA) -> float:
    """FI of the alpha-smoothed ``dom(X) x dom(Y)`` table, unseen cells in closed form."""
    kx, ky = len(x_counts), len(y_counts)
    total = n + alpha * kx * ky
    unseen = kx * ky - len(xy)
    h_xy = _entropy((c + alpha for c in xy.values()), total)
    if unseen:
        p = alpha / total
        h_xy -= unseen * p * math.log2(p)
    h_x = _entropy((c + alpha * ky for c in x_counts.values()), total)
    h_y = _entropy((c + alpha * kx for c in y_counts.values()), total)
    return 1.0 - max(h_xy - h_x, 0.0) / h_y


def mismatches(actual: Mapping[str, float], expected: Mapping[str, float]) -> List[str]:
    """Names of measures whose score is missing or off by more than :data:`ATOL`."""
    wrong = [name for name in expected if name not in actual]
    for name, value in expected.items():
        got = actual.get(name)
        if got is None:
            continue
        if not isinstance(got, (int, float)) or not abs(float(got) - value) <= ATOL:
            wrong.append(name)
    return wrong
