"""Executable Pell identities used by the verification harness.

Each identity is written once here, as a predicate over the values
p = P_n, q = Q_n, and every caller tests it through that predicate.
Everything is re-verified numerically on each call rather than trusted: a
wrong branch selection or index slip should surface as a failed check,
not as a silently wrong downstream verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_probable_prime, nu2
from .sequences import pell_pair


def pq_relation_holds(n: int, p: int, q: int) -> bool:
    """Q_n**2 - 8*P_n**2 == 4*(-1)**n, in exact signed arithmetic."""
    return q * q - 8 * p * p == (4 if n % 2 == 0 else -4)


def nu2_lemma_holds(n: int, p: int, q: int) -> bool:
    """nu2(Q_n) == 1 and nu2(P_n) == nu2(n), for n >= 1."""
    return nu2(q) == 1 and nu2(p) == nu2(n)


def split_indices(n: int) -> tuple[int, int]:
    """(a, b) with P_n - 1 = P_a * Q_b for odd n >= 3, chosen by n mod 4."""
    if n % 2 == 0:
        raise ValueError("the P_n - 1 split is defined for odd n only")
    if n < 3:
        raise ValueError("need n >= 3")
    if n % 4 == 1:
        return (n - 1) // 2, (n + 1) // 2
    return (n + 1) // 2, (n - 1) // 2


def split_product_holds(p_n: int, p_a: int, q_b: int) -> bool:
    """P_n - 1 == P_a * Q_b for the values of the split's three terms."""
    return p_a * q_b == p_n - 1


def nu2_transfer_holds(n: int, p: int) -> bool:
    """nu2(P_n - 1) == nu2(2a) for odd n >= 3 and the split index a.

    2a = n - 1 when n = 1 (mod 4) and n + 1 when n = 3 (mod 4); the rule
    follows from the split, nu2(P_a) = nu2(a) and nu2(Q_b) = 1.
    """
    a, _ = split_indices(n)
    return nu2(p - 1) == nu2(2 * a)


def check_pq_relation(n: int) -> bool:
    """True iff the companion relation holds at index n."""
    pair = pell_pair(n)
    return pq_relation_holds(n, pair.p, pair.q)


@dataclass(frozen=True)
class PellMinusOneSplit:
    """The two-factor decomposition P_n - 1 = P_{p_index} * Q_{q_index}.

    For odd n, {p_index, q_index} = {(n-1)/2, (n+1)/2}; which half carries
    which role depends on n mod 4.
    """

    n: int
    p_index: int
    q_index: int
    p_part: int
    q_part: int


def split_pell_minus_one(n: int) -> PellMinusOneSplit:
    """Decompose P_n - 1 for odd n >= 3; the product is re-verified."""
    p_index, q_index = split_indices(n)
    p_part = pell_pair(p_index).p
    q_part = pell_pair(q_index).q
    if not split_product_holds(pell_pair(n).p, p_part, q_part):
        raise AssertionError(f"split of P_{n} - 1 failed to multiply back")
    return PellMinusOneSplit(
        n=n, p_index=p_index, q_index=q_index, p_part=p_part, q_part=q_part
    )


def check_nu2_lemma(n: int) -> bool:
    """True iff nu2(Q_n) == 1 and nu2(P_n) == nu2(n), for n >= 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    pair = pell_pair(n)
    return nu2_lemma_holds(n, pair.p, pair.q)


def residue_mod4_of_factor(n: int, q: int) -> int:
    """Residue q mod 4 for a prime q dividing P_n with n odd.

    Every such residue is expected to be 1 (reduce the companion relation
    modulo q), but the value is returned rather than asserted so that a
    counterexample would surface as data.
    """
    if n % 2 == 0:
        raise ValueError("n must be odd")
    if not is_probable_prime(q):
        raise ValueError(f"{q} is not prime")
    if pell_pair(n).p % q != 0:
        raise ValueError(f"{q} does not divide P_{n}")
    return q % 4
