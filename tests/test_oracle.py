"""Every statistics path against the definitional oracle (``tests/oracle.py``).

A fixed set of seeded cases — declared column shapes, two-attribute
LHSs, insert / delete / window streams — is scored on both backends over
a ``Relation``, a ``ChunkedRelation`` at chunk sizes 1, 7 and the
default, the incremental tracker (after every stream step too, plus one
enrolled halfway through the stream) and ``AfdSession.score`` (one session
per backend for all FDs of a case, plus the reverse of each
single-attribute FD, which reuses the memoised expectation cells).  Each
path must match the oracle within ``ATOL`` and be ``==`` to every other
path.
``python tests/oracle.py --seconds N --seed S`` runs the same check on
fresh seeds for longer.
"""

import pytest

from oracle import ATOL, check_case, describe, generate_case, oracle_scores

#: Cases run in tier-1 (about a second on one core).
SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_path_matches_the_oracle(seed):
    case = generate_case(seed)
    failures = check_case(case)
    assert not failures, describe(case) + "\n" + "\n".join(failures)


def test_generator_is_seeded():
    assert generate_case(5) == generate_case(5)
    assert generate_case(5) != generate_case(6)


def test_oracle_quickstart_golden_values():
    """The oracle itself, on the hand-derived quickstart values."""
    rows = [
        ("1000", "Brussels"),
        ("1000", "Brussels"),
        ("1000", "Bruxelles"),
        ("3590", "Diepenbeek"),
    ]
    scores = oracle_scores(["zip", "city"], rows, ["zip"], ["city"])
    assert scores["rho"] == pytest.approx(2 / 3, abs=ATOL)
    assert scores["g2"] == pytest.approx(1 / 4, abs=ATOL)
    assert scores["g3"] == pytest.approx(3 / 4, abs=ATOL)
    assert scores["g1"] == pytest.approx(1 - 4 / 16, abs=ATOL)
    assert scores["g1_prime"] == pytest.approx(1 - 4 / 10, abs=ATOL)
    assert scores["tau"] == pytest.approx(7 / 15, abs=ATOL)
    assert scores["mu_plus"] == pytest.approx(1 / 5, abs=ATOL)
