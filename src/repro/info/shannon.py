"""Shannon entropy, conditional entropy and mutual information.

All quantities are computed from empirical counts.  The logarithm base is
configurable (default 2, the information-theoretic convention used by the
cited literature); measures whose definition normalises one entropy by
another (FI, RFI, ...) are invariant to the base.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Mapping, Tuple

DEFAULT_LOG_BASE = 2.0


def entropy_of_counts(counts: Mapping[Hashable, int], base: float = DEFAULT_LOG_BASE) -> float:
    """Shannon entropy of the empirical distribution given by ``counts``.

    Uses the convention ``0 log 0 = 0``.  Returns 0 for an empty input.
    """
    positive = [count for count in counts.values() if count > 0]
    total = sum(positive)
    if total == 0:
        return 0.0
    log = math.log
    log_base = log(base)
    result = 0.0
    for count in positive:
        probability = count / total
        result -= probability * (log(probability) / log_base)
    return max(result, 0.0)


def entropy(distribution, base: float = DEFAULT_LOG_BASE) -> float:
    """Shannon entropy ``H(p)`` of an :class:`EmpiricalDistribution` or counts."""
    if hasattr(distribution, "counts"):
        return entropy_of_counts(distribution.counts(), base=base)
    return entropy_of_counts(distribution, base=base)


def conditional_entropy(
    joint_counts: Mapping[Tuple[Hashable, Hashable], int], base: float = DEFAULT_LOG_BASE
) -> float:
    """Conditional Shannon entropy ``H(Y | X)`` from joint ``(x, y)`` counts.

    ``H(Y | X) = H(X, Y) - H(X)``.
    """
    x_counts: Dict[Hashable, int] = {}
    for (x, _y), count in joint_counts.items():
        if count > 0:
            x_counts[x] = x_counts.get(x, 0) + count
    joint_entropy = entropy_of_counts(joint_counts, base=base)
    lhs_entropy = entropy_of_counts(x_counts, base=base)
    return max(joint_entropy - lhs_entropy, 0.0)


def mutual_information(
    joint_counts: Mapping[Tuple[Hashable, Hashable], int], base: float = DEFAULT_LOG_BASE
) -> float:
    """Mutual information ``I(X; Y) = H(Y) - H(Y | X)`` from joint counts."""
    y_counts: Dict[Hashable, int] = {}
    for (_x, y), count in joint_counts.items():
        if count > 0:
            y_counts[y] = y_counts.get(y, 0) + count
    rhs_entropy = entropy_of_counts(y_counts, base=base)
    return max(rhs_entropy - conditional_entropy(joint_counts, base=base), 0.0)


def entropy_of_probabilities(
    probabilities: Iterable[float], base: float = DEFAULT_LOG_BASE
) -> float:
    """Shannon entropy of an explicit probability vector (must sum to ~1)."""
    result = 0.0
    total = 0.0
    for probability in probabilities:
        if probability < 0:
            raise ValueError(f"negative probability {probability}")
        total += probability
        if probability > 0:
            result -= probability * (math.log(probability) / math.log(base))
    if total > 0 and abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    return max(result, 0.0)
