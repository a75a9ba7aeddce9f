import math

import pytest

from pellcheck.arith import FactorPolicy
from pellcheck.lehmer import (
    LehmerReason,
    LehmerStatus,
    lehmer_check,
)

POLICY = FactorPolicy(trial_bound=1000, rho_budget_ms=200, max_total_ms=5000,
                      pm1_b1=10**4, pm1_b2=10**6)


def sieve_phi(bound):
    """Linear totient sieve; independent of the factor()-based path."""
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:  # p prime
            for m in range(p, bound + 1, p):
                phi[m] -= phi[m] // p
    return phi


def test_examples():
    v = lehmer_check(7, POLICY)
    assert (v.status, v.reason) == (LehmerStatus.NOT_COMPOSITE,
                                    LehmerReason.IS_PRIME)
    v = lehmer_check(169, POLICY)
    assert (v.status, v.reason, v.evidence) == (
        LehmerStatus.REJECTED, LehmerReason.NOT_SQUAREFREE, 13)
    v = lehmer_check(985, POLICY)
    assert (v.status, v.reason, v.evidence) == (
        LehmerStatus.REJECTED, LehmerReason.FACTOR_WITNESS, 197)
    v = lehmer_check(1, POLICY)
    assert (v.status, v.reason) == (LehmerStatus.NOT_COMPOSITE,
                                    LehmerReason.IS_UNIT)
    v = lehmer_check(4, POLICY)
    assert (v.status, v.reason) == (LehmerStatus.REJECTED, LehmerReason.EVEN)


def test_candidate_15():
    # 5 is discovered after 3 and certifies rejection: 4 does not divide 14.
    # (The full totient check would agree: phi(15) = 8 does not divide 14.)
    v = lehmer_check(15, POLICY)
    assert v.status == LehmerStatus.REJECTED
    assert (v.reason, v.evidence) == (LehmerReason.FACTOR_WITNESS, 5)


def test_full_check_failed_reachable():
    # every prime factor of 561 = 3 * 11 * 17 passes the witness test
    # (2, 10 and 16 all divide 560), so the decision falls through to the
    # exact phi | n-1 division, which fails: phi(561) = 320 does not
    # divide 560.
    v = lehmer_check(561, POLICY)
    assert (v.status, v.reason) == (LehmerStatus.REJECTED,
                                    LehmerReason.FULL_CHECK_FAILED)
    assert v.factorization is not None and v.factorization.complete


@pytest.mark.parametrize("n,p,expected", [
    (985, 197, True),   # 196 does not divide 984
    (985, 5, False),    # 4 divides 984, so the check goes on past 5
    (15, 5, True),      # 4 does not divide 14
])
def test_factor_witness_examples(n, p, expected):
    v = lehmer_check(n, POLICY)
    assert v.status == LehmerStatus.REJECTED
    assert ((v.reason, v.evidence)
            == (LehmerReason.FACTOR_WITNESS, p)) is expected


def test_rejects_invalid_candidates():
    with pytest.raises(ValueError):
        lehmer_check(0)


def test_oracle_equivalence_small_range():
    bound = 20000
    phi = sieve_phi(bound)
    prime = [phi[n] == n - 1 for n in range(bound + 1)]
    for n in range(2, bound + 1):
        v = lehmer_check(n, POLICY)
        if n > 1 and prime[n]:
            assert v.status == LehmerStatus.NOT_COMPOSITE, n
            continue
        # composite: the definitional test phi(n) | n - 1
        is_lehmer = (n - 1) % phi[n] == 0
        assert not is_lehmer, f"found a Lehmer number?! n={n}"
        assert v.status == LehmerStatus.REJECTED, n


def test_rejection_evidence_is_sound():
    for n in (169, 985, 15, 21, 33, 5741 * 5, 13 * 13 * 29):
        v = lehmer_check(n, POLICY)
        if v.reason == LehmerReason.NOT_SQUAREFREE:
            assert n % (v.evidence ** 2) == 0
        elif v.reason == LehmerReason.FACTOR_WITNESS:
            assert n % v.evidence == 0
            assert (n - 1) % (v.evidence - 1) != 0


def test_monotone_staging():
    # a semiprime far beyond tiny budgets: undecided, then decided
    n = (10**9 + 7) * (10**9 + 9)
    tiny = FactorPolicy(trial_bound=100, rho_budget_ms=1, max_total_ms=10,
                        pm1_b1=0, pm1_b2=0)
    v_tiny = lehmer_check(n, tiny)
    assert (v_tiny.status, v_tiny.reason) == (LehmerStatus.UNDECIDED,
                                              LehmerReason.BUDGET_EXHAUSTED)
    v_full = lehmer_check(n, FactorPolicy(trial_bound=10**4,
                                          rho_budget_ms=2000,
                                          max_total_ms=60000,
                                          pm1_b1=10**5, pm1_b2=10**7))
    assert v_full.status == LehmerStatus.REJECTED
    # enlarging budgets resolved undecided; it can never flip a rejection
    # into holds because rejection evidence is checkable divisibility
    assert math.gcd(v_full.evidence, n) == v_full.evidence


def test_undecided_carries_partial_factorization():
    # no factor of this semiprime is reachable under the starved policy,
    # so the verdict must be undecided with the whole target as cofactor
    n = (10**18 + 9) * (10**18 + 31)
    v = lehmer_check(n, FactorPolicy(trial_bound=10**4, rho_budget_ms=1,
                                     max_total_ms=100, pm1_b1=0, pm1_b2=0))
    assert (v.status, v.reason) == (LehmerStatus.UNDECIDED,
                                    LehmerReason.BUDGET_EXHAUSTED)
    assert not v.factorization.complete
    assert v.factorization.cofactor == n
