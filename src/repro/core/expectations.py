"""Expected measure values under random (X; Y)-permutations.

Several measures correct for chance agreement by subtracting or
normalising with the expected value of a base quantity over all
*(X; Y)-permutations* of the relation (Definition 1 of the paper):
relations with identical marginals on ``X``, on ``Y`` and on the
remaining attributes.

* ``μ`` normalises ``pdep`` with ``E_R[pdep]`` which has the closed form
  of Theorem 1 (Piatetsky-Shapiro & Matheus).
* ``RFI`` and ``RFI'`` correct ``FI`` with ``E_R[FI] = E_R[I(X;Y)] / H(Y)``
  (``H(Y)`` is invariant under the permutations).  The expected mutual
  information under the fixed-marginals permutation model has an exact
  hypergeometric expression (Roulston 1999; the same formula underlies the
  adjusted-mutual-information literature and the algorithms of Mandros et
  al.).  It depends only on the multisets of marginal counts, so it is
  summed once per distinct pair of counts, read straight off the
  statistics' count histograms.  Each pair's hypergeometric cell is
  looked up first in a memo keyed ``(min(a, b), max(a, b), N)``: an
  :class:`~repro.service.session.AfdSession` hands its one memo to every
  statistics object it computes, so a session evaluates each distinct
  cell once across all its candidates and both directions of an FD.
  The memo holds at most ``_MAX_CELLS`` entries and dies with its
  session; a call outside a session uses a fresh one.  A cell the memo
  misses reads each ``ln k`` of its recurrence from ``_LOGS``, one
  process-wide table of ``math.log`` over the integers.  It holds no
  cell and no score, only logarithms, so it is not a cache of
  expectations: it grows by doubling up to the largest ``min(a, b)`` a
  missing cell needs, never past ``_LOG_CAP`` entries (2^14, about
  0.5 MB), and a cell past the cap calls ``math.log`` itself.  A table
  entry is the float ``math.log`` returns, so no score depends on the
  cap, on the order of the calls or on which thread grew the table.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from repro.core.statistics import DEFAULT_LOG_BASE, ExpectationCells, FdStatistics, Histogram
from repro.obs.trace import span

#: A pmf tail is dropped once its geometric bound falls below this
#: fraction of the mass accumulated so far (one unit in the last place).
_TAIL_TOLERANCE = 2.0 ** -53

#: The most hypergeometric cells one memo holds (~190 B each, so ~3 MB);
#: a full memo is cleared before its next insert.
_MAX_CELLS = 1 << 14

#: ``_LOGS[k] == math.log(k)`` for ``1 <= k < len(_LOGS)``; ``_LOGS[0]``
#: is never read, since ``k = 0`` adds no term.  ``_log_table`` replaces
#: the list, never changes it, so a reader keeps a complete table
#: without a lock.
_LOGS = [-math.inf]

#: The most entries ``_LOGS`` grows to (~32 B each, so ~0.5 MB).
_LOG_CAP = 1 << 14


# ----------------------------------------------------------------------
# Closed forms for pdep / tau (Theorem 1)
# ----------------------------------------------------------------------
def expected_pdep(statistics: FdStatistics) -> float:
    """``E_R[pdep(X -> Y, R)]`` via Theorem 1.

    ``E[pdep] = pdep(Y) + (K - 1)/(N - 1) * (1 - pdep(Y))`` with
    ``K = |dom_R(X)|`` and ``N = |R|``.  Requires ``N >= 2``.
    """
    n = statistics.num_rows
    if n <= 1:
        return 1.0
    pdep_y = statistics.sum_squared_y_probabilities()
    return pdep_y + (statistics.distinct_x - 1) / (n - 1) * (1.0 - pdep_y)


# ----------------------------------------------------------------------
# Expected mutual information under the permutation model
# ----------------------------------------------------------------------

class _LogsPastTheCap:
    """``logs[k] == math.log(k)``, computed on each read: the table of a
    cell whose ``min(a, b)`` is at or past ``_LOG_CAP``."""

    __slots__ = ()
    __getitem__ = staticmethod(math.log)


_LOGS_PAST_THE_CAP = _LogsPastTheCap()


def _log_table(high: int):
    """A sequence ``logs`` with ``logs[k] == math.log(k)`` for ``1 <= k <= high``.

    ``_LOGS`` when it reaches ``high``; otherwise ``_LOGS`` doubles until
    it does, a new list rebound whole, unless that would take it past
    ``_LOG_CAP``, when every read calls ``math.log``.
    """
    global _LOGS
    logs = _LOGS
    if high < len(logs):
        return logs
    if high >= _LOG_CAP:
        return _LOGS_PAST_THE_CAP
    size = len(logs)
    while size <= high:
        size *= 2
    logs = logs + [math.log(k) for k in range(len(logs), min(size, _LOG_CAP))]
    _LOGS = logs
    return logs


def _hypergeometric_cell(a: int, b: int, n: int) -> float:
    """``Σ_k P(k) k ln(n k / (a b))`` for ``k ~ Hypergeometric(n, a, b)``.

    The pmf is built by ratio recurrence outward from the mode, which gets
    the unnormalised weight 1, and is normalised by its own sum: no
    factorial table, and no underflow of the support's far ends (for
    ``a = b = 1000, n = 2000``, ``P(1)`` is below the smallest float).
    The pmf is log-concave, so beyond the mode each ratio ``r`` bounds all
    later ones and the rest of a tail weighs at most ``p / (1 - r)``; a
    tail stops once that bound is below ``_TAIL_TOLERANCE`` of the mass
    accumulated so far.

    Each ``ln(n k / (a b))`` is ``ln k − ln μ``: ``ln μ`` is taken once
    per cell, as the log of the correctly rounded quotient ``a b / n``
    (two roundings, where ``ln a + ln b − ln n`` takes five), and
    ``ln k`` is read from ``_log_table`` (the support never passes
    ``min(a, b)``).  A table entry is the float ``math.log(k)`` itself,
    so the cell does not depend on whether the table or ``math.log``
    supplied it.
    """
    low = max(0, a + b - n)
    high = min(a, b)
    mode = min(max((a + 1) * (b + 1) // (n + 2), low), high)
    logs = _log_table(high)
    log_mu = math.log(a * b / n)
    slack = n - a - b
    mass = 1.0
    weighted = mode * (logs[mode] - log_mu) if mode else 0.0
    p = 1.0
    k = mode
    while k < high:
        r = (a - k) * (b - k) / ((k + 1) * (k + 1 + slack))
        if p < _TAIL_TOLERANCE * mass * (1.0 - r):
            break
        p *= r
        k += 1
        mass += p
        weighted += p * k * (logs[k] - log_mu)
    p = 1.0
    k = mode
    while k > low:
        r = k * (k + slack) / ((a - k + 1) * (b - k + 1))
        if p < _TAIL_TOLERANCE * mass * (1.0 - r):
            break
        p *= r
        k -= 1
        mass += p
        if k:
            weighted += p * k * (logs[k] - log_mu)
    return weighted / mass


def expected_mutual_information_exact(
    x_histogram: Histogram,
    y_histogram: Histogram,
    base: float = DEFAULT_LOG_BASE,
    cells: Optional[ExpectationCells] = None,
) -> float:
    """Exact ``E[I(X; Y)]`` under random permutations with fixed marginals.

    For marginal counts ``a_i`` (of ``X``) and ``b_j`` (of ``Y``) summing to
    ``N``, the cell count ``n_ij`` follows a hypergeometric distribution and

        E[I] = Σ_i Σ_j Σ_{n_ij} (n_ij / N) log(N n_ij / (a_i b_j)) P(n_ij)

    with ``P(n_ij) = C(b_j, n_ij) C(N - b_j, a_i - n_ij) / C(N, a_i)``.

    The marginals come as histograms ``{count: multiplicity}`` of positive
    counts.  The inner sum depends on ``(a_i, b_j)`` only, so it is
    evaluated once per distinct pair of counts and weighted by the pair's
    multiplicities: the cost scales with the number of distinct marginal
    counts (at most ``~√(2N)`` per side), not with the number of rows or
    values.  The pairs are summed with one ``math.fsum``, so the result
    does not depend on the order of either histogram (and is symmetric
    in ``X`` and ``Y``).

    ``cells`` memoises the inner sums under ``(min(a, b), max(a, b), N)``
    (the sum is bit-for-bit symmetric in ``a`` and ``b``: every product
    in its recurrence, ``a b`` included, is an exact integer product), so
    a memo shared by many calls changes no result; ``None`` uses a fresh
    one.
    """
    n = sum(a * multiplicity for a, multiplicity in x_histogram.items())
    if n == 0 or n != sum(b * multiplicity for b, multiplicity in y_histogram.items()):
        raise ValueError("the marginals must be non-empty and count the same total")
    if cells is None:
        cells = {}
    lookup = cells.get
    terms = []
    for a, a_multiplicity in x_histogram.items():
        for b, b_multiplicity in y_histogram.items():
            key = (a, b, n) if a <= b else (b, a, n)
            cell = lookup(key)
            if cell is None:
                if len(cells) >= _MAX_CELLS:
                    cells.clear()
                cell = cells[key] = _hypergeometric_cell(a, b, n)
            terms.append(a_multiplicity * b_multiplicity * cell)
    return max(math.fsum(terms) / (n * math.log(base)), 0.0)


def expected_fraction_of_information(
    statistics: FdStatistics, base: float = DEFAULT_LOG_BASE
) -> float:
    """``E_R[FI(X -> Y, R)] = E_R[I(X;Y)] / H_R(Y)`` under permutations.

    ``H_R(Y)`` is invariant under (X; Y)-permutations, so the expectation
    only involves the mutual information.  The hypergeometric cells go
    through ``statistics.expectation_cells`` (the owning session's memo,
    if any), and the call is one ``expectation`` stage span.
    """
    with span("expectation"):
        h_y = statistics.shannon_entropy_y(base=base)
        if h_y <= 0.0:
            return 1.0
        expected_mi = expected_mutual_information_exact(
            statistics.x_histogram,
            statistics.y_histogram,
            base=base,
            cells=statistics.expectation_cells,
        )
        return min(expected_mi / h_y, 1.0)


def expected_value_by_enumeration(
    joint_counts: Mapping, statistic, max_relation_size: int = 9
) -> float:
    """Brute-force expectation of ``statistic`` over all (X; Y)-permutations.

    Enumerates every distinct pairing of the materialised X and Y columns
    (all ``N!`` permutations of the Y column, deduplicated by multiset of
    pairs is *not* applied — each permutation is weighted equally, matching
    Definition 1).  Only feasible for tiny relations; used by the test
    suite to validate the closed-form and hypergeometric expectations.
    """
    import itertools

    x_column = []
    y_column = []
    for (x, y), count in joint_counts.items():
        x_column.extend([x] * count)
        y_column.extend([y] * count)
    n = len(x_column)
    if n > max_relation_size:
        raise ValueError(
            f"brute-force enumeration limited to relations of size <= {max_relation_size}"
        )
    total = 0.0
    count = 0
    for permutation in itertools.permutations(range(n)):
        joint: dict = {}
        for position, target in enumerate(permutation):
            key = (x_column[position], y_column[target])
            joint[key] = joint.get(key, 0) + 1
        total += statistic(joint)
        count += 1
    return total / count
