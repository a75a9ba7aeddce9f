import ast
import pathlib
from fractions import Fraction

import pytest

import pellcheck.intervals
from pellcheck.intervals import (
    CertificationError,
    Interval,
    _atanh_bounds,
    _round_out,
    certify,
    exp_interval,
    ln_interval,
    lnln_interval,
)

# reference constants, correct to the digits shown (standard values); a
# truncated reference sits within REF_EPS of the true number, so containment
# is asserted with that margin
LN2 = Fraction(
    "0.69314718055994530941723212145817656807550013436025")
LN10 = Fraction(
    "2.30258509299404568401799145468436420760110148862877")
E8 = Fraction(
    "2980.95798704172827474359209945288867375596793913283570")
REF_EPS = Fraction(1, 10**45)


def encloses_reference(iv, ref):
    return iv.lo - REF_EPS <= ref <= iv.hi + REF_EPS


def width(iv):
    return iv.hi - iv.lo


# The exact-rational series that ln_interval replaced, kept as an
# independent oracle: every partial sum is an exact Fraction, so its only
# widening is the geometric tail bound.
def _atanh_enclosure(t, one_minus_t2_floor, bits):
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


def oracle_ln(x, bits):
    m = Fraction(x)
    k = 0
    while m >= Fraction(3, 2):
        m /= 2
        k += 1
    while m < Fraction(3, 4):
        m *= 2
        k -= 1
    lo, hi = _atanh_enclosure((m - 1) / (m + 1), Fraction(24, 25), bits + 2)
    ln2_lo, ln2_hi = _atanh_enclosure(Fraction(1, 3), Fraction(8, 9), bits + 3)
    k_ln2 = _round_out(2 * ln2_lo, 2 * ln2_hi, bits + 6) * k
    return _round_out(2 * lo + k_ln2.lo, 2 * hi + k_ln2.hi, bits + 4)


def oracle_lnln(x, bits):
    inner = oracle_ln(x, bits + 4)
    return Interval(oracle_ln(inner.lo, bits).lo,
                    oracle_ln(inner.hi, bits).hi)


def test_interval_validates_order():
    with pytest.raises(ValueError):
        Interval(Fraction(2), Fraction(1))


def test_exact_and_arithmetic():
    # scaling by a rational is exact, and a negative factor swaps the ends
    a = Interval(Fraction(1), Fraction(2))
    b = Interval(Fraction(-1), Fraction(3))
    assert (a * 3).lo == 3 and (a * 3).hi == 6
    assert (b * Fraction(1, 2)).lo == Fraction(-1, 2)
    assert (b * -2).lo == -6 and (b * -2).hi == 2
    assert (a * 0).lo == 0 and (a * 0).hi == 0
    assert a.squared().lo == 1 and a.squared().hi == 4
    assert b.squared().lo == 0 and b.squared().hi == 9
    assert (b * -1).squared() == b.squared()
    # only an Interval on the left scales: it is not a pair to repeat
    with pytest.raises(TypeError):
        3 * a


def test_comparisons_three_way():
    a = Interval(Fraction(1), Fraction(2))
    assert a.gt(Fraction(1, 2)) is True
    assert a.gt(3) is False
    assert a.gt(Fraction(3, 2)) is None   # inside: undecided
    assert a.lt(3) is True
    assert a.lt(Fraction(1, 2)) is False
    assert a.lt(Fraction(3, 2)) is None
    # touching endpoints still decide a strict comparison
    assert a.gt(2) is False
    assert a.lt(1) is False


@pytest.mark.parametrize("bits", [16, 32, 64, 128, 256])
def test_ln2_encloses_reference(bits):
    iv = ln_interval(2, bits)
    assert encloses_reference(iv, LN2)
    assert width(iv) <= Fraction(1, 1 << (bits - 2))


def test_ln_encloses_reference_values():
    for bits in (24, 64, 128):
        iv = ln_interval(10, bits)
        assert encloses_reference(iv, LN10)
        iv = ln_interval(1024, bits)
        assert encloses_reference(iv, 10 * LN2)
    zero = ln_interval(1, 64)
    assert zero.lo <= 0 <= zero.hi
    # rational arguments below 1 give negative logs
    iv = ln_interval(Fraction(1, 2), 64)
    assert encloses_reference(iv, -LN2)


def test_ln_width_shrinks_with_bits():
    widths = [width(ln_interval(15, bits)) for bits in (16, 32, 64, 128)]
    assert all(widths[i + 1] < widths[i] for i in range(len(widths) - 1))


def test_ln_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_interval(0, 32)
    with pytest.raises(ValueError):
        ln_interval(-3, 32)


def test_exp_encloses_reference():
    for bits in (24, 64, 128):
        iv = exp_interval(8, bits)
        assert encloses_reference(iv, E8)
    one = exp_interval(0, 32)
    assert one.lo <= 1 <= one.hi
    with pytest.raises(ValueError):
        exp_interval(-1, 32)


def test_lnln_composition():
    three_ln2 = ln_interval(2, 64) * 3
    # ln ln 2981 is just above 3 ln 2 = ln 8 (since 2981 > e^8)
    assert lnln_interval(2981, 64).gt(three_ln2.hi) is True
    assert lnln_interval(2980, 64).lt(three_ln2.lo) is True
    with pytest.raises(ValueError):
        lnln_interval(1, 32)


def test_ln_of_interval_is_monotone_hull():
    # lnln_interval takes this hull of ln over its inner enclosure
    outer = Interval(ln_interval(2, 64).lo, ln_interval(4, 64).hi)
    assert outer.lo <= LN2 <= outer.hi  # ln 2 is the true lower edge
    assert outer.lo < outer.hi


def test_enclosures_nest_as_precision_grows():
    # not nested by construction: it holds here because ln 15 is far from
    # the coarse enclosure's endpoints
    coarse = ln_interval(15, 24)
    fine = ln_interval(15, 96)
    assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi


def test_certify_escalates_and_stays_stable():
    # 2^15 ln 15 > 100 needs barely any precision; the answer must be
    # identical whether we start coarse or fine
    def decide(bits):
        return (ln_interval(15, bits) * 2**15).gt(100)

    assert certify(decide) is True
    assert decide(512) is True


def test_certify_gives_up_on_undecidable():
    asked = []

    def undecided(bits):
        asked.append(bits)

    with pytest.raises(CertificationError, match="undecided at 4096 bits"):
        certify(undecided)
    assert asked == [24 << i for i in range(8)]


def test_atanh_bounds_enclose_the_exact_series():
    # the oracle at 40 more bits is far narrower than one fixed-point unit,
    # so for these inputs it lies inside correct kernel bounds, and a bound
    # that is off by a unit shows here
    for v in range(1, 31):
        for u in range(0, v // 3 + 1):
            for prec in (1, 8, 24, 64):
                lo, hi = _atanh_bounds(u, v, prec)
                o_lo, o_hi = _atanh_enclosure(Fraction(u, v), Fraction(8, 9),
                                              prec + 40)
                assert Fraction(lo, 1 << prec) <= o_lo, (u, v, prec)
                assert o_hi <= Fraction(hi, 1 << prec), (u, v, prec)
                assert hi - lo <= 2 + prec // 2, (u, v, prec)


@pytest.mark.parametrize("x", [10**20, 10**300, 10**4000],
                         ids=["1e20", "1e300", "1e4000"])
def test_ln_width_holds_for_large_arguments(x):
    # k ln 2 with k about log2 x needs log2 k guard bits to keep the width
    for bits in (24, 64, 768):
        assert width(ln_interval(x, bits)) <= Fraction(1, 1 << bits)


@pytest.mark.parametrize("fn, oracle, x", [
    *[pytest.param(ln_interval, oracle_ln, x, id=f"ln-{x}") for x in (
        Fraction(1, 2), Fraction(7, 5), 2, 3, 15, 300, 2980, 10**6,
        Fraction(1, 10**9), 10**40)],
    *[pytest.param(lnln_interval, oracle_lnln, x, id=f"lnln-{x}")
      for x in (16, 300, 2980, 2981, 10**6)],
])
def test_fixed_point_agrees_with_exact_series(fn, oracle, x):
    fine = oracle(x, 512)
    for bits in (24, 96, 256):
        iv = fn(x, bits)
        assert iv.lo <= fine.hi and fine.lo <= iv.hi, bits
        assert width(iv) <= width(oracle(x, bits)), bits


def test_module_uses_no_machine_floats():
    source = pathlib.Path(pellcheck.intervals.__file__).read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), node.lineno
        elif isinstance(node, ast.Call):
            assert not (isinstance(node.func, ast.Name)
                        and node.func.id == "float"), node.lineno
        elif isinstance(node, ast.Import):
            names = {alias.name.split(".")[0] for alias in node.names}
            assert not names & {"math", "decimal"}, node.lineno
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] not in {
                "math", "decimal"}, node.lineno
