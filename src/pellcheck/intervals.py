"""Certified enclosures for the few transcendental comparisons we need.

Endpoints are exact rationals, so interval sums and products introduce no
rounding at all.  Width enters only through the logarithm and exponential
enclosures, which sum an explicit number of series terms and then widen by
a proven tail bound; endpoints are finally rounded outward to dyadic
rationals to keep denominators from snowballing.  A comparison is
`certified` when the two enclosures separate; callers escalate precision
until they do.

This deliberately avoids machine floats: a boolean produced here can never
be an artifact of rounding, and widening the precision can never flip a
comparison that was already decided.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

Rational = Union[int, Fraction]


class CertificationError(Exception):
    """Raised when a comparison stays undecided at the precision ceiling."""


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(x: Rational) -> "Interval":
        f = Fraction(x)
        return Interval(f, f)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "Interval | Rational") -> "Interval":
        o = _coerce(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    def __mul__(self, other: "Interval | Rational") -> "Interval":
        o = _coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi,
                    self.hi * o.lo, self.hi * o.hi)
        return Interval(min(products), max(products))

    __radd__ = __add__
    __rmul__ = __mul__

    def squared(self) -> "Interval":
        if self.lo >= 0:
            return Interval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Interval(self.hi * self.hi, self.lo * self.lo)
        return Interval(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

    def contains(self, x: Rational) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def gt(self, other: "Interval | Rational") -> Optional[bool]:
        """Certified strict 'greater than'; None when undecided."""
        o = _coerce(other)
        if self.lo > o.hi:
            return True
        if self.hi <= o.lo:
            return False
        return None

    def lt(self, other: "Interval | Rational") -> Optional[bool]:
        o = _coerce(other)
        if self.hi < o.lo:
            return True
        if self.lo >= o.hi:
            return False
        return None


def _coerce(x: "Interval | Rational") -> Interval:
    return x if isinstance(x, Interval) else Interval.exact(x)


def _round_out(lo: Fraction, hi: Fraction, bits: int) -> Interval:
    """Widen endpoints outward to denominator 2**bits."""
    scale = 1 << bits
    lo_r = Fraction(lo.numerator * scale // lo.denominator, scale)
    hi_num = hi.numerator * scale
    hi_r = Fraction(-((-hi_num) // hi.denominator), scale)  # ceil division
    return Interval(lo_r, hi_r)


def _atanh_enclosure(t: Fraction, one_minus_t2_floor: Fraction,
                     bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of atanh(t) = sum t^(2j+1)/(2j+1) for |t| < 1.

    `one_minus_t2_floor` must be a lower bound on 1 - t*t; it controls the
    geometric tail estimate.
    """
    target = Fraction(1, 1 << (bits + 2))
    s = Fraction(0)
    tpow = t
    t2 = t * t
    j = 0
    while True:
        s += tpow / (2 * j + 1)
        tpow *= t2
        j += 1
        tail = abs(tpow) / ((2 * j + 1) * one_minus_t2_floor)
        if tail <= target:
            break
    if t >= 0:
        return s, s + tail
    return s - tail, s


@functools.cache
def ln2_interval(bits: int) -> Interval:
    """Enclosure of ln 2 = 2*atanh(1/3)."""
    lo, hi = _atanh_enclosure(Fraction(1, 3), Fraction(8, 9), bits + 1)
    return _round_out(2 * lo, 2 * hi, bits + 4)


def ln_interval(x: Rational, bits: int) -> Interval:
    """Enclosure of ln x for a positive rational x, width about 2**-bits."""
    m = Fraction(x)
    if m <= 0:
        raise ValueError("ln needs a positive argument")
    k = 0
    while m >= Fraction(3, 2):
        m /= 2
        k += 1
    while m < Fraction(3, 4):
        m *= 2
        k -= 1
    # |t| <= 1/5 for m in [3/4, 3/2), so 1 - t*t >= 24/25
    t = (m - 1) / (m + 1)
    lo, hi = _atanh_enclosure(t, Fraction(24, 25), bits + 2)
    result = Interval(2 * lo, 2 * hi)
    if k != 0:
        result = result + ln2_interval(bits + 2) * k
    return _round_out(result.lo, result.hi, bits + 4)


def ln_of_interval(iv: Interval, bits: int) -> Interval:
    """Monotone image: enclosure of {ln y : y in iv}, iv.lo > 0."""
    return Interval(ln_interval(iv.lo, bits).lo, ln_interval(iv.hi, bits).hi)


def lnln_interval(x: Rational, bits: int) -> Interval:
    """Enclosure of ln(ln x) for rational x with ln x > 0 (i.e. x > 1)."""
    inner = ln_interval(x, bits + 4)
    if inner.lo <= 0:
        raise ValueError("ln ln needs ln x > 0; pass x noticeably above 1")
    return ln_of_interval(inner, bits)


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


def certify(decide: Callable[[int], Optional[bool]], *,
            start_bits: int = 24, max_bits: int = 4096) -> bool:
    """Escalate precision until `decide` returns a boolean.

    `decide(bits)` evaluates a comparison with enclosures of roughly
    2**-bits width and returns None while undecided.  Escalation doubles
    the precision; a comparison that was decided at some precision stays
    decided (enclosures only shrink), so the answer is stable.
    """
    bits = start_bits
    while bits <= max_bits:
        verdict = decide(bits)
        if verdict is not None:
            return verdict
        bits *= 2
    raise CertificationError(
        f"comparison undecided at {max_bits} bits of precision"
    )
