"""Staged decision procedure for the Lehmer property.

A composite N has the Lehmer property when phi(N) divides N - 1.  The
check is staged so that a full factorization -- often infeasible -- is
rarely needed:

  (a) units and primes are screened out (the property concerns composites);
  (b) even composites are rejected outright (phi is even, N - 1 odd);
  (c) prime factors are harvested incrementally; the first p with
      p*p | N (not squarefree) or (p-1) not dividing N-1 (a witness)
      rejects N;
  (d) only if N gets fully factored with no rejection is phi(N) | N - 1
      decided exactly.

Budget exhaustion before any decision yields the honest outcome
`undecided`; it is never silently treated as verified.  Each decision is
a LehmerVerdict, a NamedTuple.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .arith import (
    FactorPolicy,
    Factorization,
    WorkMeter,
    euler_phi,
    factor,
    is_probable_prime,
)


class LehmerStatus(str, Enum):
    NOT_COMPOSITE = "not_composite"
    REJECTED = "rejected"
    HOLDS = "holds"
    UNDECIDED = "undecided"


class LehmerReason(str, Enum):
    IS_UNIT = "is_unit"
    IS_PRIME = "is_prime"
    EVEN = "even"
    NOT_SQUAREFREE = "not_squarefree"
    FACTOR_WITNESS = "factor_witness"
    FULL_CHECK_FAILED = "full_check_failed"
    FULL_CHECK_PASSED = "full_check_passed"
    BUDGET_EXHAUSTED = "budget_exhausted"


class LehmerVerdict(NamedTuple):
    """Decision for one candidate, with a machine-checkable reason.

    `evidence` carries the prime behind a not_squarefree / factor_witness
    rejection.  `factorization` is whatever factor knowledge the check
    accumulated (possibly partial); reports use it for factor listings.
    """

    target: int
    status: LehmerStatus
    reason: LehmerReason
    evidence: Optional[int] = None
    factorization: Optional[Factorization] = None


def lehmer_check(n: int, policy: FactorPolicy = FactorPolicy(), *,
                 meter: Optional[WorkMeter] = None) -> LehmerVerdict:
    """Run the staged Lehmer-property check on n >= 1.

    Deterministic for fixed (n, policy): the check reads nothing but n.
    """
    if n < 1:
        raise ValueError("candidate must be >= 1")
    if n == 1:
        return LehmerVerdict(n, LehmerStatus.NOT_COMPOSITE, LehmerReason.IS_UNIT)
    if is_probable_prime(n):
        return LehmerVerdict(n, LehmerStatus.NOT_COMPOSITE, LehmerReason.IS_PRIME)
    if n % 2 == 0:
        return LehmerVerdict(n, LehmerStatus.REJECTED, LehmerReason.EVEN)

    hit: list[tuple[LehmerReason, int]] = []

    def on_prime(p: int, e: int) -> bool:
        if e >= 2:
            hit.append((LehmerReason.NOT_SQUAREFREE, p))
            return True
        # p | n makes (p - 1) | phi(n), so a Lehmer n needs (p - 1) | (n - 1)
        if (n - 1) % (p - 1) != 0:
            hit.append((LehmerReason.FACTOR_WITNESS, p))
            return True
        return False

    f = factor(n, policy, on_prime=on_prime, meter=meter)

    if hit:
        reason, p = hit[0]
        return LehmerVerdict(n, LehmerStatus.REJECTED, reason,
                             evidence=p, factorization=f)
    if f.complete:
        if (n - 1) % euler_phi(f) == 0:
            return LehmerVerdict(n, LehmerStatus.HOLDS,
                                 LehmerReason.FULL_CHECK_PASSED,
                                 factorization=f)
        return LehmerVerdict(n, LehmerStatus.REJECTED,
                             LehmerReason.FULL_CHECK_FAILED, factorization=f)
    return LehmerVerdict(n, LehmerStatus.UNDECIDED,
                         LehmerReason.BUDGET_EXHAUSTED, factorization=f)
