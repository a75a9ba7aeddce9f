"""Exact Pell and Pell-Lucas numbers.

The Pell sequence is P_0=0, P_1=1, P_{n+2} = 2*P_{n+1} + P_n; its companion
is Q_0=2, Q_1=2, Q_{n+2} = 2*Q_{n+1} + Q_n.  Two independent evaluation
paths are provided: plain iteration of both recurrences in one loop
(pell_pairs, a stream of (P_n, Q_n) that holds only the last two pairs, so
the identity suite walks it in constant space; pell_sequence and
pell_lucas_sequence are slices of it), and a binary doubling ladder using

    P_{2m} = P_m * Q_m
    Q_{2m} = Q_m**2 - 2*(-1)**m
    P_{m+1} = P_m + Q_m // 2        (Q_m is always even)
    Q_{m+1} = Q_m + 4*P_m

which are exact integer consequences of the closed forms over the roots
1 +/- sqrt(2).  No floating point is used anywhere; the two paths serve as
mutual oracles in the test suite.  pell_pair returns a PellPair, a
NamedTuple.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, NamedTuple


class PellPair(NamedTuple):
    """A Pell / Pell-Lucas value pair (P_n, Q_n) at a shared index.

    Invariants (checked by the test suite, not the constructor):
    q**2 - 8*p**2 == 4 for even n and == -4 for odd n, and p >= 2**(n/2)
    for n >= 2.
    """

    n: int
    p: int
    q: int


def _ladder(n: int, modulus: int = 0) -> tuple[int, int]:
    """(P_n, Q_n) by the doubling ladder, exactly when modulus is 0 and
    reduced mod the odd modulus otherwise.

    Walks the bits of n from the most significant end, doubling the current
    index and advancing by one where a bit is set.  Index 0 gives (0, 2).
    Mod an odd modulus, Q_m // 2 becomes Q_m * (modulus + 1) / 2, since
    (modulus + 1) / 2 is the inverse of 2.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    half = (modulus + 1) // 2
    p, q = 0, 2
    m = 0
    for shift in range(n.bit_length() - 1, -1, -1):
        # m -> 2m; the sign in the Q rule depends on the parity of m
        p, q = p * q, q * q - (2 if m % 2 == 0 else -2)
        m *= 2
        if (n >> shift) & 1:
            p, q = p + (q * half if modulus else q // 2), q + 4 * p
            m += 1
        if modulus:
            p, q = p % modulus, q % modulus
    return p, q


def pell_pair(n: int) -> PellPair:
    """Compute (P_n, Q_n) exactly with O(log n) big-integer multiplications."""
    p, q = _ladder(n)
    return PellPair(n=n, p=p, q=q)


def pell_residue(n: int, modulus: int) -> int:
    """P_n mod the odd modulus >= 3, in O(log n) steps of modulus size."""
    if modulus < 3 or modulus % 2 == 0:
        raise ValueError("modulus must be odd and >= 3")
    return _ladder(n, modulus)[0]


def pell_pairs() -> Iterator[tuple[int, int]]:
    """(P_n, Q_n) for n = 0, 1, 2, ... by iterating both recurrences."""
    p, q, p_next, q_next = 0, 2, 1, 2
    while True:
        yield p, q
        p, q, p_next, q_next = p_next, q_next, 2 * p_next + p, 2 * q_next + q


def _slice(n_max: int, which: int) -> list[int]:
    """Entry `which` of the first n_max + 1 pairs of pell_pairs()."""
    if n_max < 0:
        raise ValueError("index must be >= 0")
    return [pair[which] for pair in islice(pell_pairs(), n_max + 1)]


def pell_sequence(n_max: int) -> list[int]:
    """[P_0, ..., P_{n_max}] by iteration; the oracle for the ladder."""
    return _slice(n_max, 0)


def pell_lucas_sequence(n_max: int) -> list[int]:
    """[Q_0, ..., Q_{n_max}] by iteration; the oracle for the ladder."""
    return _slice(n_max, 1)


def digits10(n: int) -> int:
    """Exact decimal digit count of n >= 0 without building the string.

    str() is quadratic for very large integers (and capped by default on
    recent CPython); this uses a bit-length estimate corrected by at most
    a couple of power-of-ten comparisons.
    """
    n = abs(n)
    if n == 0:
        return 1
    est = int(n.bit_length() * 30103 // 100000)  # ~ floor(log10(n))
    p10 = 10**est
    if n < p10:
        while n < p10:
            est -= 1
            p10 //= 10
    else:
        p10 *= 10
        while n >= p10:
            est += 1
            p10 *= 10
    return est + 1
