"""Certified enclosures for the few transcendental comparisons we need.

An Interval does only what the bound chain asks of it: it scales by a
rational, squares, and compares with a rational.  It is a plain class
with two slots, not a tuple, so an int times an Interval stays a
TypeError.  Its endpoints are exact rationals, so none of these rounds.
Width enters only through the logarithm and exponential enclosures.  The
logarithm sums the atanh series in integer fixed point, rounding the
lower sum down and the upper sum up, and adds a proven tail bound; the
exponential sums its series in exact rationals and widens by a proven
tail bound.  Endpoints are finally rounded outward to dyadic rationals to
keep denominators from snowballing.  A comparison is `certified` when the
enclosure and the rational separate; certify escalates precision until
they do.

This deliberately avoids machine floats: a boolean produced here can never
be an artifact of rounding.  Every enclosure contains the true value, so a
decided comparison is a true statement, and no precision can decide it the
other way.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Union

Rational = Union[int, Fraction]


class CertificationError(Exception):
    """Raised when a comparison stays undecided at the precision ceiling."""


class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    def __mul__(self, k: Rational) -> "Interval":
        if k < 0:
            return Interval(self.hi * k, self.lo * k)
        return Interval(self.lo * k, self.hi * k)

    def squared(self) -> "Interval":
        if self.lo >= 0:
            return Interval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Interval(self.hi * self.hi, self.lo * self.lo)
        return Interval(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

    def gt(self, x: Rational) -> Optional[bool]:
        """Certified strict 'greater than'; None when undecided."""
        if self.lo > x:
            return True
        if self.hi <= x:
            return False
        return None

    def lt(self, x: Rational) -> Optional[bool]:
        if self.hi < x:
            return True
        if self.lo >= x:
            return False
        return None


def _round_out(lo: Fraction, hi: Fraction, bits: int) -> Interval:
    """Widen endpoints outward to denominator 2**bits."""
    scale = 1 << bits
    lo_r = Fraction(lo.numerator * scale // lo.denominator, scale)
    hi_num = hi.numerator * scale
    hi_r = Fraction(-((-hi_num) // hi.denominator), scale)  # ceil division
    return Interval(lo_r, hi_r)


def _atanh_bounds(u: int, v: int, prec: int) -> tuple[int, int]:
    """Integers lo <= atanh(u/v) * 2**prec <= hi, for 0 <= u/v <= 1/3.

    atanh t = sum t**(2j+1)/(2j+1), summed in fixed point: the lower sum
    and its powers take floors, the upper sum and its powers ceilings.
    Summing stops once the next upper term is below one unit; the tail from
    there is at most 9/8 of that term, because 1 - t*t >= 8/9.
    """
    u2, v2 = u * u, v * v
    lo_pow = (u << prec) // v
    hi_pow = -(-(u << prec) // v)
    lo = hi = 0
    d = 1
    while hi_pow >= d:
        lo += lo_pow // d
        hi += -(-hi_pow // d)
        lo_pow = lo_pow * u2 // v2
        hi_pow = -(-hi_pow * u2 // v2)
        d += 2
    return lo, hi - (-9 * hi_pow // (8 * d))


def ln_interval(x: Rational, bits: int) -> Interval:
    """Enclosure of ln x for a positive rational x, width at most 2**-bits."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln needs a positive argument")
    # x = m * 2**k with m = a/b in [3/4, 3/2)
    p, q = x.numerator, x.denominator
    k = p.bit_length() - q.bit_length()
    a, b = p << max(-k, 0), q << max(k, 0)
    if 2 * a >= 3 * b:
        k += 1
        b *= 2
    elif 4 * a < 3 * b:
        k -= 1
        a *= 2
    # ln x = 2 atanh(t) + 2k atanh(1/3) with t = (m-1)/(m+1), |t| <= 1/5;
    # k ln 2 loses about log2 |k| bits, so those are added as guard bits
    prec = bits + 16 + abs(k).bit_length()
    t_lo, t_hi = _atanh_bounds(abs(a - b), a + b, prec)
    if a < b:
        t_lo, t_hi = -t_hi, -t_lo
    l2_lo, l2_hi = _atanh_bounds(1, 3, prec)
    if k < 0:
        l2_lo, l2_hi = l2_hi, l2_lo
    return _round_out(Fraction(2 * (t_lo + k * l2_lo), 1 << prec),
                      Fraction(2 * (t_hi + k * l2_hi), 1 << prec), bits + 4)


def lnln_interval(x: Rational, bits: int) -> Interval:
    """Enclosure of ln(ln x) for rational x with ln x > 0 (i.e. x > 1)."""
    inner = ln_interval(x, bits + 4)
    if inner.lo <= 0:
        raise ValueError("ln ln needs ln x > 0; pass x noticeably above 1")
    # ln is increasing, so the image of inner is [ln inner.lo, ln inner.hi]
    return Interval(ln_interval(inner.lo, bits).lo,
                    ln_interval(inner.hi, bits).hi)


def exp_interval(x: Rational, bits: int) -> Interval:
    """Enclosure of exp(x) for a rational x >= 0."""
    xf = Fraction(x)
    if xf < 0:
        raise ValueError("only nonnegative arguments are supported")
    target = Fraction(1, 1 << (bits + 2))
    s = Fraction(1)
    term = Fraction(1)
    j = 0
    while True:
        j += 1
        term *= xf / j
        s += term
        # once the term ratio x/(j+2) is <= 1/2, the tail is geometric:
        # sum_{i>j} x^i/i! <= 2 * x^(j+1)/(j+1)!
        if 2 * xf <= j + 2:
            tail = 2 * term * xf / (j + 1)
            if tail <= target:
                break
    return _round_out(s, s + tail, bits + 4)


_CERTIFY_START_BITS = 24
_CERTIFY_MAX_BITS = 4096


def certify(decide: Callable[[int], Optional[bool]]) -> bool:
    """Escalate precision until `decide` returns a boolean.

    `decide(bits)` evaluates a comparison with enclosures of roughly
    2**-bits width and returns None while undecided.  Escalation doubles
    the precision from _CERTIFY_START_BITS and gives up past
    _CERTIFY_MAX_BITS.  Enclosures at different precisions need not nest,
    but each contains the true value, so a decided comparison is a true
    statement and every precision that decides it gives the same answer.
    """
    bits = _CERTIFY_START_BITS
    while bits <= _CERTIFY_MAX_BITS:
        verdict = decide(bits)
        if verdict is not None:
            return verdict
        bits *= 2
    raise CertificationError(
        f"comparison undecided at {_CERTIFY_MAX_BITS} bits of precision"
    )
