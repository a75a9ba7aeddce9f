"""Executable Pell identities used by the verification harness.

Each identity is written once here, as a predicate over the values
p = P_n, q = Q_n, and every caller tests it through that predicate.
Everything is re-verified numerically on each call rather than trusted: a
wrong branch selection or index slip should surface as a failed check,
not as a silently wrong downstream verdict.
"""

from __future__ import annotations

from .arith import nu2
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


def split_pell_minus_one(n: int) -> tuple[int, int]:
    """(P_a, Q_b) for the split indices (a, b) of odd n >= 3; callers check
    their product with split_product_holds."""
    a, b = split_indices(n)
    return pell_pair(a).p, pell_pair(b).q
