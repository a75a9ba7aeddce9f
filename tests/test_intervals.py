from fractions import Fraction

import pytest

from pellcheck.intervals import (
    CertificationError,
    Interval,
    certify,
    exp_interval,
    ln2_interval,
    ln_interval,
    ln_of_interval,
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


def test_interval_validates_order():
    with pytest.raises(ValueError):
        Interval(Fraction(2), Fraction(1))


def test_exact_and_arithmetic():
    a = Interval(Fraction(1), Fraction(2))
    b = Interval(Fraction(-1), Fraction(3))
    assert (a + b).lo == 0 and (a + b).hi == 5
    assert (a * b).lo == -2 and (a * b).hi == 6
    assert (a * 3).lo == 3 and (a * 3).hi == 6
    assert a.squared().lo == 1 and a.squared().hi == 4
    assert b.squared().lo == 0 and b.squared().hi == 9
    assert Interval.exact(5).width == 0


def test_comparisons_three_way():
    a = Interval(Fraction(1), Fraction(2))
    b = Interval(Fraction(3), Fraction(4))
    c = Interval(Fraction(3, 2), Fraction(3))
    assert b.gt(a) is True
    assert a.gt(b) is False
    assert a.gt(c) is None         # genuinely overlapping: undecided
    assert a.lt(b) is True
    assert b.lt(a) is False
    assert c.lt(a) is None
    # touching endpoints still decide a strict comparison
    touching = Interval(Fraction(2), Fraction(3))
    assert a.gt(touching) is False
    assert touching.lt(a) is False


@pytest.mark.parametrize("bits", [16, 32, 64, 128, 256])
def test_ln2_encloses_reference(bits):
    iv = ln2_interval(bits)
    assert encloses_reference(iv, LN2)
    assert iv.width <= Fraction(1, 1 << (bits - 2))


def test_ln_encloses_reference_values():
    for bits in (24, 64, 128):
        iv = ln_interval(10, bits)
        assert encloses_reference(iv, LN10)
        iv = ln_interval(1024, bits)
        assert encloses_reference(iv, 10 * LN2)
    assert ln_interval(1, 64).contains(0)
    # rational arguments below 1 give negative logs
    iv = ln_interval(Fraction(1, 2), 64)
    assert encloses_reference(iv, -LN2)


def test_ln_width_shrinks_with_bits():
    widths = [ln_interval(15, bits).width for bits in (16, 32, 64, 128)]
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
    assert exp_interval(0, 32).contains(1)
    with pytest.raises(ValueError):
        exp_interval(-1, 32)


def test_lnln_composition():
    iv = lnln_interval(2981, 64)
    # ln ln 2981 is just above 3 ln 2 = ln 8 (since 2981 > e^8)
    assert iv.gt(ln2_interval(64) * 3) is True
    iv = lnln_interval(2980, 64)
    assert iv.lt(ln2_interval(64) * 3) is True
    with pytest.raises(ValueError):
        lnln_interval(1, 32)


def test_ln_of_interval_is_monotone_hull():
    inner = Interval(Fraction(2), Fraction(4))
    outer = ln_of_interval(inner, 64)
    assert outer.lo <= LN2 <= outer.hi  # ln 2 is the true lower edge
    assert outer.lo < outer.hi


def test_enclosures_nest_as_precision_grows():
    coarse = ln_interval(15, 24)
    fine = ln_interval(15, 96)
    assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi


def test_certify_escalates_and_stays_stable():
    # 2^15 ln 15 > 100 needs barely any precision; the answer must be
    # identical whether we start coarse or fine
    def decide(bits):
        return (ln_interval(15, bits) * 2**15).gt(100)

    assert certify(decide) is True
    assert certify(decide, start_bits=512) is True


def test_certify_gives_up_on_undecidable():
    with pytest.raises(CertificationError):
        certify(lambda bits: None, max_bits=256)
