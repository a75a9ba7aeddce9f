import functools
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from array import array
from itertools import compress

import pytest

import pellcheck
from pellcheck import arith, pool
from pellcheck.arith import (
    STAGES,
    UNITS_PER_MS,
    BudgetExhausted,
    FactorPolicy,
    Factorization,
    WorkMeter,
    euler_phi,
    factor,
    is_probable_prime,
    nu2,
    small_primes,
)
from pellcheck.sequences import pell_pair

# cheap policy for factoring small targets in bulk
SMALL_POLICY = FactorPolicy(trial_bound=400, max_total_ms=1000)
# deliberately starved policy, for exercising partial factorizations
TINY_POLICY = FactorPolicy(trial_bound=100, max_total_ms=10)


def sieve_is_prime(bound):
    """Independent primality oracle: plain sieve flags."""
    flags = bytearray(b"\x01") * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p:: p] = b"\x00" * ((bound - p * p) // p + 1)
    return flags


def smallest_factor_sieve(bound):
    """Smallest-prime-factor table, an independent factorization oracle."""
    spf = list(range(bound + 1))
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == p:
            for m in range(p * p, bound + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


# ---------------------------------------------------------------------------
# primality


@pytest.mark.parametrize("n,expected", [
    (1, False),
    (5741, True),   # a prime Pell number
    (169, False),   # 13^2
    (2, True),
    (4, False),
])
def test_is_probable_prime_examples(n, expected):
    assert is_probable_prime(n) is expected


def test_primality_vs_sieve():
    bound = 10**6
    flags = sieve_is_prime(bound)
    for n in range(bound + 1):
        assert is_probable_prime(n) == bool(flags[n]), n


def test_primality_large_values():
    # 77-digit Pell prime territory: cross-check a few constructions
    p = 2**89 - 1          # Mersenne prime
    assert is_probable_prime(p)
    assert not is_probable_prime(p * (2**107 - 1))
    big = 10**30 + 57      # prime (verified by independent software)
    assert is_probable_prime(big)
    assert not is_probable_prime(big * big)


def strong_probable_prime(n, a):
    """n passes the strong Fermat test to base a (written out here, with
    no pellcheck code)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_each_psi_fools_its_bases_and_is_reported_composite():
    # psi_k passes the strong test to the first k prime bases, so below it
    # k bases suffice and at it they do not: is_probable_prime must use
    # k + 1 bases (or more) for n == psi_k
    sympy = pytest.importorskip("sympy")
    bases = [p for p in range(2, 42) if sympy.isprime(p)]
    assert len(arith._MR_PSI) == len(bases) == 13
    for k, psi in enumerate(arith._MR_PSI, 1):
        assert not sympy.isprime(psi), k
        assert all(strong_probable_prime(psi, a) for a in bases[:k]), k
        assert not is_probable_prime(psi), k


def test_primality_agrees_with_sympy_near_each_psi_and_below_1e12():
    sympy = pytest.importorskip("sympy")
    values = list(range(10**12 - 20_000, 10**12 + 1))
    for psi in arith._MR_PSI:
        values.extend(range(psi - 2_000, psi + 2_001))
    for n in values:
        assert is_probable_prime(n) == sympy.isprime(n), n


def test_seed_strings_hold_numbers_above_the_str_digit_limit(monkeypatch):
    # P_11311 has 4,330 digits and no prime factor <= 97, so it takes the
    # seeded bases; no real round or curve is run (one modexp takes
    # seconds here)
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    n = pell_pair(11311).p
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(n)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(digits) == 4330
    sys.set_int_max_str_digits(4300)
    try:
        bases = []
        monkeypatch.setattr(arith, "_miller_rabin_round",
                            lambda n, a, d, s: bases.append(a) or True)
        assert is_probable_prime(n)
        sigmas = []
        monkeypatch.setattr(arith, "_ecm_curve",
                            lambda n, sigma: sigmas.append(sigma) or 1)
        assert arith._ecm_batch(n, 1, 2, 0) == (2, None)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    rng = random.Random("pellcheck-mr:" + digits)
    assert bases == [rng.randrange(2, n - 1) for _ in range(64)]
    assert sigmas == [
        random.Random(f"pellcheck-ecm:1:{digits}:{i}").randrange(6, n - 1)
        for i in range(2)]


# ---------------------------------------------------------------------------
# factor


def test_factor_examples():
    f = factor(12, SMALL_POLICY)
    assert f.factors == ((2, 2), (3, 1)) and f.complete
    f = factor(985, SMALL_POLICY)
    assert f.factors == ((5, 1), (197, 1)) and f.complete
    f = factor(1, SMALL_POLICY)
    assert f.factors == () and f.cofactor == 1 and f.complete


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_all_small_numbers_complete_and_multiply_back():
    bound = 10**5
    spf = smallest_factor_sieve(bound)
    for n in range(1, bound + 1):
        f = factor(n, SMALL_POLICY)
        assert f.complete, n
        # compare with the sieve oracle factorization
        expected = {}
        m = n
        while m > 1:
            p = spf[m]
            expected[p] = expected.get(p, 0) + 1
            m //= p
        assert dict(f.factors) == expected, n
        # the constructor re-verified the product; spot-check anyway
        prod = 1
        for p, e in f.factors:
            prod *= p**e
        assert prod == n


def test_factor_perfect_power():
    f = factor(13**6, SMALL_POLICY)
    assert f.factors == ((13, 6),)
    f = factor((10**9 + 7) ** 2, FactorPolicy(trial_bound=100))
    assert f.factors == ((10**9 + 7, 2),)


def test_factor_square_just_past_trial_bound():
    # 101^2 sits exactly at (trial_bound+1)^2: it must never be mistaken
    # for a prime remainder after trial division
    f = factor(101 * 101, FactorPolicy(trial_bound=100))
    assert f.factors == ((101, 2),)
    f = factor(101 * 103, FactorPolicy(trial_bound=100))
    assert f.factors == ((101, 1), (103, 1))


def test_factor_early_stop_leaves_cofactor():
    f = factor(985, SMALL_POLICY, on_prime=lambda p, e: True)
    assert f.factors == ((5, 1),)
    assert f.cofactor == 197
    assert not f.complete


def test_factor_budget_exhaustion_is_partial_not_error():
    # two 18-digit primes: far beyond TINY_POLICY's reach
    n = (10**18 + 9) * (10**18 + 31)
    f = factor(n, TINY_POLICY)
    assert not f.complete
    assert f.cofactor == n
    assert f.factors == ()


def test_budget_dying_mid_split_yields_the_primes_on_the_stack(
        monkeypatch):
    # n splits into 10403 = 101 * 103 and the prime 1,000,003; the budget
    # dies splitting 10403, so the prime still on the stack is recorded
    # and 10403 is left as the cofactor
    n = 101 * 103 * 1_000_003

    def find_divisor(m, policy, meter):
        if m == n:
            return 10_403
        assert m == 10_403
        raise BudgetExhausted

    monkeypatch.setattr(arith, "_find_divisor", find_divisor)
    seen = []
    f = factor(n, TINY_POLICY, on_prime=lambda p, e: seen.append((p, e)))
    assert f.factors == ((1_000_003, 1),)
    assert f.cofactor == 10_403
    assert seen == [(1_000_003, 1)]


# full factorizations of P_n under the default policy, with the work units
# of each stage; the sweep stops at the first witness and never reaches
# these.  P_97 is prime, and P_131 takes 366 curves.
FULL_FACTORIZATIONS = {
    57: (((5, 1), (37, 1), (179057, 1), (1311797, 1), (53535197, 1)),
         (9813, 138600)),
    71: (((569, 1), (2644939853, 1), (353183656631413, 1)),
         (9813, 46200)),
    73: (((1873724873, 1), (1653385841290367057, 1)),
         (9813, 46200)),
    85: (((29, 1), (137, 1), (3229, 1), (8297, 1), (65789, 1),
          (5293801, 1), (3276118961, 1)),
         (9813, 46200)),
    97: (((4760981394323203445293052612223893281, 1),),
         (9813, 0)),
    123: (((5, 1), (429846869, 1), (1746860020068409, 1),
           (11358537748338103332221, 1)),
          (9813, 508200)),
    131: (((69783437, 1), (823071064447409386793, 1),
           (856801259058475927601, 1)),
          (9813, 16909200)),
    149: (((15258494974757, 1),
           (25033433662289323209446285522381470904942857, 1)),
          (9813, 46200)),
}


@pytest.mark.parametrize("n", sorted(FULL_FACTORIZATIONS))
def test_full_factorizations_of_pell_numbers_are_pinned(n):
    sympy = pytest.importorskip("sympy")
    factors, units = FULL_FACTORIZATIONS[n]
    meter = WorkMeter(FactorPolicy().max_total_ms * UNITS_PER_MS)
    f = factor(pell_pair(n).p, meter=meter)
    assert f.factors == factors and f.complete
    assert meter.by_stage == dict(zip(STAGES, units))
    assert all(sympy.isprime(p) for p, _ in factors)


def test_factor_determinism():
    n = (10**9 + 7) * (10**9 + 9) * 5741
    a = factor(n, FactorPolicy(seed=7))
    b = factor(n, FactorPolicy(seed=7))
    assert a == b and a.complete


def test_factor_finds_medium_factors_with_rho():
    # product of two primes around 1e9; trial alone cannot reach them, and
    # ECM, which does rho's old work, splits it
    n = 1000000007 * 1000000009
    f = factor(n, FactorPolicy(trial_bound=1000, max_total_ms=30000))
    assert f.complete
    assert [p for p, _ in f.factors] == [1000000007, 1000000009]


def test_factor_pm1_stage1_path():
    # p-1 = 2^4 * 3 * 5 * 127 * 401 * 1291 * 7499 is very smooth, so ECM's
    # walk on the nodal cubic (see the ECM tests) finds p alone, and so
    # does factor()
    p = 118328383378321
    q = 10**17 + 3
    assert arith._ecm_walk(p * q, 9, 0) == p
    f = factor(p * q, FactorPolicy(trial_bound=1000, max_total_ms=60000))
    assert (p, 1) in f.factors


def test_factor_stage_units_sum_to_used():
    # trial division finds 7, then ECM splits the rest
    n = 7 * 1000000007 * 1000000009 * 118328383378321
    meter = WorkMeter(10**9)
    f = factor(n, FactorPolicy(trial_bound=1000), meter=meter)
    assert f.complete
    assert set(meter.by_stage) == set(STAGES) == {"trial", "ecm"}
    assert sum(meter.by_stage.values()) == meter.used
    assert all(meter.by_stage[s] > 0 for s in STAGES)


# ---------------------------------------------------------------------------
# trial division by blocks of primes, against a prime-by-prime reference


@functools.lru_cache(maxsize=None)
def reference_primes(bound):
    return list(compress(range(bound + 1), sieve_is_prime(bound)))


def reference_factor(n, bound, units, on_prime):
    """What factor() must give when trial division is all it does: divide
    by each prime <= bound in turn until p*p exceeds what is left, take a
    remainder below (bound + 1)**2 as prime, and otherwise keep a prime
    remainder (sympy says which) or leave it as the cofactor.  The trial
    charge is len(primes) // 8 + 1 units, and nothing is divided when it
    exceeds `units`.  Returns (factors, cofactor, on_prime calls,
    units by stage)."""
    sympy = pytest.importorskip("sympy")
    primes = reference_primes(bound)
    by_stage = dict.fromkeys(STAGES, 0)
    found, calls = {}, []
    rem = n

    def take(p):
        nonlocal rem
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        found[p] = e
        calls.append((p, e))
        return on_prime(p, e)

    stopped = False
    if rem > 1:
        by_stage["trial"] = len(primes) // 8 + 1
        if by_stage["trial"] <= units:
            for p in primes:
                if p * p > rem:
                    break
                if rem % p == 0 and take(p):
                    stopped = True
                    break
            if not stopped and 1 < rem < (bound + 1) ** 2:
                stopped = take(rem)
    if not stopped and rem > 1 and sympy.isprime(rem):
        take(rem)
    return tuple(sorted(found.items())), rem, calls, by_stage


def lehmer_stop(n):
    """The early stop lehmer_check uses: a square or a witness prime."""
    return lambda p, e: e >= 2 or (n - 1) % (p - 1) != 0


def assert_trial_matches_reference(values, policy, stop=None, units=None):
    """factor() under `policy`, with the splitting pipeline stubbed out,
    gives the reference's factors, on_prime calls and units, for each n."""
    if units is None:
        units = policy.max_total_ms * UNITS_PER_MS
    for n in values:
        rule = stop(n) if stop else (lambda p, e: False)
        calls = []

        def on_prime(p, e):
            calls.append((p, e))
            return rule(p, e)

        meter = WorkMeter(units)
        f = factor(n, policy, on_prime=on_prime, meter=meter)
        expected = reference_factor(n, policy.trial_bound, units, rule)
        assert (f.factors, f.cofactor, calls, meter.by_stage) == expected, n


@pytest.fixture
def no_splitting(monkeypatch):
    """Composites left after trial division stay in the cofactor."""
    monkeypatch.setattr(arith, "_find_divisor", lambda n, policy, meter: None)


@pytest.mark.parametrize("policy,stop", [
    (FactorPolicy(), None),
    (TINY_POLICY, lehmer_stop),   # bound 100: one block of 25 primes
], ids=["default-all", "tiny-lehmer"])
def test_trial_blocks_match_reference_below_2e5(no_splitting, policy, stop):
    assert_trial_matches_reference(range(1, 2 * 10**5), policy, stop)


def test_trial_blocks_match_reference_below_1e12(no_splitting):
    # lehmer-range's traffic: consecutive candidates just below 10^12
    assert_trial_matches_reference(range(10**12 - 2_000, 10**12),
                                   FactorPolicy(), lehmer_stop)


def block_edges():
    """(first, last) prime of every block of the default trial bound."""
    primes = reference_primes(FactorPolicy().trial_bound)
    size = arith._TRIAL_BLOCK
    return [(primes[i], primes[min(i + size, len(primes)) - 1])
            for i in range(0, len(primes), size)]


def test_trial_blocks_match_reference_at_block_edges(no_splitting):
    sympy = pytest.importorskip("sympy")
    edges = block_edges()
    assert len(edges) == 614 and edges[-1][1] == 999_983  # 34 in the last
    values = []
    for first, last in edges[:3] + edges[300:302] + edges[-2:]:
        for p in (first, last):
            q = sympy.nextprime(p)
            values += [p * p, p * q, 3 * p * q, p * sympy.nextprime(10**6),
                       first * last]
            if p > 2:
                values.append(sympy.prevprime(p) * p)
    assert_trial_matches_reference(values, FactorPolicy())
    assert_trial_matches_reference(values, FactorPolicy(), lehmer_stop)


def test_trial_blocks_match_reference_at_prime_remainders(no_splitting):
    # what is left after the 3 (or 5) is prime, a prime square, or a
    # product that one hit block divides out prime by prime
    sympy = pytest.importorskip("sympy")
    bound = FactorPolicy().trial_bound
    q, last = block_edges()[600]
    r = sympy.nextprime(q)
    assert r <= last  # q and r share block 600
    big = sympy.nextprime(bound)
    values = [3 * sympy.prevprime(bound), 3 * big,
              3 * sympy.prevprime((bound + 1) ** 2),
              3 * 999_007 ** 2,        # block 612, the last but one
              3 * 999_491 ** 2,        # the least prime of the last block
              3 * q * r, 3 * q * r * big,
              3 * 5 * 701]             # 701 is left inside the first block
    assert_trial_matches_reference(values, FactorPolicy())
    assert_trial_matches_reference(values, FactorPolicy(), lehmer_stop)


def test_trial_stops_inside_a_block(no_splitting):
    n = 3 * 5 * 7 * 11 * 13
    for stop_at in (3, 7, 13):
        assert_trial_matches_reference(
            [n], FactorPolicy(), lambda m: lambda p, e, s=stop_at: p == s)
    f = factor(n, FactorPolicy(), on_prime=lambda p, e: p == 7)
    assert f.factors == ((3, 1), (5, 1), (7, 1)) and f.cofactor == 143
    # the stop comes in the second block, before its last hit
    first, _ = block_edges()[1]
    n = 3 * first * 1019 * 1021
    f = factor(n, FactorPolicy(), on_prime=lambda p, e: p == 1019)
    assert f.factors == ((3, 1), (first, 1), (1019, 1))
    assert f.cofactor == 1021


@pytest.mark.parametrize("bound", [2, 3])
def test_trial_bounds_two_and_three(no_splitting, bound):
    policy = FactorPolicy(trial_bound=bound)
    assert_trial_matches_reference(range(1, 5_000), policy)
    assert_trial_matches_reference(range(1, 5_000), policy, lehmer_stop)


def test_trial_square_past_the_bound_goes_to_splitting(monkeypatch):
    # 101^2 == (100 + 1)^2 is not taken for a prime under bound 100
    split = []

    def spy(n, policy, meter):
        split.append(n)
        return None

    monkeypatch.setattr(arith, "_find_divisor", spy)
    f = factor(101 * 101, TINY_POLICY)
    assert split == [101 * 101]
    assert f.factors == () and f.cofactor == 101 * 101


def test_trial_budget_exhausted_at_the_charge(no_splitting):
    values = [1, 2, 97, 101, 10201, 2 * 3 * 5, 10**12 - 11, 999_983 ** 2]
    for policy in (TINY_POLICY, FactorPolicy()):
        charge = len(reference_primes(policy.trial_bound)) // 8 + 1
        for units in (charge - 1, charge):
            assert_trial_matches_reference(values, policy, units=units)
            assert_trial_matches_reference(values, policy, lehmer_stop,
                                           units=units)


def test_block_gcd_reads_the_current_remaining(monkeypatch):
    # each block's gcd is taken on what is left after the primes recorded
    # so far, not on n or an earlier remainder
    sympy = pytest.importorskip("sympy")
    events = []

    class SpyMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def gcd(self, a, b):
            events.append(("gcd", a))
            return math.gcd(a, b)

    def on_prime(p, e):
        events.append(("prime", p ** e))
        return False

    monkeypatch.setattr(arith, "math", SpyMath())
    big = sympy.nextprime(10**12)
    # what is left turns prime only once 999,983 is divided out, and that
    # prime is in the last block, so the walk still takes every block's gcd
    n = 3 * 3 * 7919 * 999_983 * big
    f = factor(n, FactorPolicy(), on_prime=on_prime)
    assert f.factors == ((3, 2), (7919, 1), (999_983, 1), (big, 1))
    remaining = n
    gcds = 0
    for kind, value in events:
        if kind == "prime":
            remaining //= value
        else:
            assert value == remaining
            gcds += 1
    assert gcds >= len(block_edges())


@pytest.mark.parametrize("q", [
    333_333_333_323,
    10**40 + 121,   # nextprime(10**40), past psi_13
], ids=["below-psi13", "probable-prime"])
def test_trial_ends_when_what_is_left_is_prime(monkeypatch, q):
    # after the 3, what is left is prime, so no later block is read: one
    # block gcd, where walking the blocks up to sqrt(q) would take 371, or
    # all 614 (is_probable_prime's own gcd is not counted)
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(q)
    products = set(arith._trial_products(FactorPolicy().trial_bound))
    block_gcds = []

    class SpyMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def gcd(self, a, b):
            if b in products:
                block_gcds.append(a)
            return math.gcd(a, b)

    monkeypatch.setattr(arith, "math", SpyMath())
    f = factor(3 * q)
    assert f.factors == ((3, 1), (q, 1)) and f.cofactor == 1
    assert block_gcds == [3 * q]


# ---------------------------------------------------------------------------
# the segment sieve


@pytest.mark.parametrize("lo,hi", [
    (100, 3100),    # even lo
    (101, 3100),    # odd lo
    (2, 60),        # holds the base primes 3, 5, 7 themselves
    (1008, 1009),   # one candidate, prime
    (1000, 1001),   # one candidate, 7 * 11 * 13
    (1000, 1000),   # empty
    (1001, 1002),   # empty, odd lo
])
@pytest.mark.parametrize("run", [4, arith._SIEVE_RUN])
def test_segment_sieve_matches_naive_sieve(monkeypatch, lo, hi, run):
    monkeypatch.setattr(arith, "_SIEVE_RUN", run)  # 4: many short runs
    start, flags = arith._segment_sieve(lo, hi,
                                        small_primes(math.isqrt(hi) + 1))
    is_prime = sieve_is_prime(hi)
    assert list(compress(range(start, hi + 1, 2), flags)) == [
        q for q in range(lo + 1, hi + 1) if q % 2 and is_prime[q]]


# ---------------------------------------------------------------------------
# ECM
#
# The p-1 method is ECM on the nodal cubic y^2 = x (x - 1)^2, the
# Montgomery curve with A = -2 and so (A + 2)/4 = 0.  From x = 9, the
# point whose parameter is u = 2, the point kP has x = ((2^k + 1)/(2^k - 1))^2,
# and kP = O mod a prime p exactly when 2^k = 1 mod p.  So
# _ecm_walk(n, 9, 0) finds what p-1 with base 2 finds at ECM's bounds, and
# the tests named after p-1 and rho, the methods ECM took over from, check
# ECM's ladder and stage 2 against plain modular powers, on numbers built
# for p-1.

# p - 1 = (prime powers <= 100) * q
P_12011 = 30600 * 12011 + 1     # 30600 = 2^3 3^2 5^2 17
P_12011_B = 31008 * 12011 + 1   # 31008 = 2^5 3 17 19
P_9137 = 30576 * 9137 + 1       # 30576 = 2^4 3 7^2 13
P_9161 = 30590 * 9161 + 1       # 30590 = 2 5 7 19 23
R_1000003 = 30360 * 1000003 + 1     # q beyond every bound below
R_1000033 = 31920 * 1000033 + 1


def nodal_x(h, n):
    """x of the point with parameter h on the nodal cubic, mod n."""
    return pow((h + 1) * pow(h - 1, -1, n), 2, n)


def affine_x(point, n):
    x, z = point
    return x * pow(z, -1, n) % n


def stage1_exponent(b1):
    """The product of the maximal prime powers <= b1, built independently
    as lcm(1, ..., b1)."""
    return math.lcm(*range(1, b1 + 1))


def stage1_chunks(b1, bits):
    """The maximal prime powers <= b1, in ascending prime order, multiplied
    into chunks of at least `bits` bits (the last may be shorter)."""
    is_prime = sieve_is_prime(b1)
    chunks, chunk = [], 1
    for p in range(2, b1 + 1):
        if not is_prime[p]:
            continue
        pk = p
        while pk * p <= b1:
            pk *= p
        chunk *= pk
        if chunk.bit_length() >= bits:
            chunks.append(chunk)
            chunk = 1
    if chunk > 1:
        chunks.append(chunk)
    return chunks


def suyama_curve(n, sigma):
    """(x, (A + 2)/4) of Suyama's curve at sigma, from its definition."""
    u, v = sigma * sigma - 5, 4 * sigma
    x = u**3 * pow(v**3, -1, n) % n
    return x, (v - u) ** 3 * (3 * u + v) * pow(16 * u**3 * v, -1, n) % n


@pytest.mark.parametrize("b1", [2, 9, 100, 10**4])
@pytest.mark.parametrize("bits", [1, 64, 1 << 15])
def test_stage1_chunks_multiply_to_the_exponent(b1, bits):
    # the ladder over the chunks of E, one after another, reaches the point
    # the ladder over E reaches, on a Suyama curve and on the nodal cubic,
    # where that point is the one of the whole power 2^E
    chunks = stage1_chunks(b1, bits)
    exponent = stage1_exponent(b1)
    assert math.prod(chunks) == exponent
    assert all(chunk.bit_length() >= bits for chunk in chunks[:-1])
    n = R_1000003 * R_1000033
    for x, a24 in (suyama_curve(n, 7), (9, 0)):
        point = (x, 1)
        for chunk in chunks:
            point = arith._ladder(chunk, affine_x(point, n), n, a24)
        whole = arith._ladder(exponent, x, n, a24)
        assert point[0] * whole[1] % n == whole[0] * point[1] % n
    assert affine_x(whole, n) == nodal_x(pow(2, exponent, n), n)


@pytest.mark.parametrize("bits", [256, 1 << 15])
def test_pm1_stage1_residue_is_the_whole_power(bits):
    # on the nodal cubic the ladder over k reaches the x of 2^k: over E,
    # and over a seeded scalar of `bits` bits
    n = R_1000003 * R_1000033
    scalar = random.Random(f"nodal:{bits}").getrandbits(bits) | 1 << bits - 1
    for k in (arith._ecm_tables()[0], scalar):
        assert affine_x(arith._ladder(k, 9, n, 0), n) == nodal_x(
            pow(2, k, n), n)
    # and neither stage ends a prime of n
    assert arith._ecm_walk(n, 9, 0) == 1


@pytest.mark.parametrize("trial_bound", [256, 1 << 15])
def test_pm1_stage1_replay_splits_two_smooth_primes(trial_bound):
    # p - 1 and q - 1 are both 10^4-smooth, and their largest primes 9137
    # and 9161 both lie in ECM's stage 2, so the walk on the nodal cubic
    # ends both primes in its one gcd; ECM's real curves split n instead,
    # after the same curves whatever the trial bound below p and q
    n = P_9137 * P_9161
    assert math.gcd(pow(2, stage1_exponent(10**4), n) - 1, n) == n
    assert arith._ecm_walk(n, 9, 0) == n
    meter = WorkMeter(10**9)
    f = factor(n, FactorPolicy(trial_bound=trial_bound), meter=meter)
    assert [p for p, _ in f.factors] == [P_9137, P_9161]
    assert meter.by_stage["ecm"] == 2 * arith._ecm_tables()[3]


def test_pm1_stage1_one_power_reaching_n_goes_on_to_rho(monkeypatch):
    # both primes end at the prime 12011, so the walk on the nodal cubic
    # gives n; ECM's next curve, a real one, splits n
    n = P_12011 * P_12011_B
    real = arith._ecm_curve
    sigmas = []

    def nodal_first(n, sigma):
        sigmas.append(sigma)
        if len(sigmas) == 1:
            return arith._ecm_walk(n, 9, 0)
        return real(n, sigma)

    monkeypatch.setattr(arith, "_ecm_curve", nodal_first)
    meter = WorkMeter(10**9)
    assert arith._find_divisor(n, FactorPolicy(), meter) == P_12011_B
    assert len(sigmas) == 2
    assert meter.used == 2 * arith._ecm_tables()[3]


@pytest.fixture
def ecm_b1(monkeypatch):
    """Set ECM's stage-1 bound B1, and B2 = 100 B1, for one test; its
    tables are rebuilt for the new bounds and again after the test."""
    def set_b1(b1):
        monkeypatch.setattr(arith, "_ECM_B1", b1)
        monkeypatch.setattr(arith, "_ECM_B2", 100 * b1)
        arith._ecm_tables.cache_clear()

    yield set_b1
    arith._ecm_tables.cache_clear()


@pytest.mark.parametrize("n,b1", [
    (R_1000003 * R_1000033, 10**4),     # no stage-1 hit on the nodal cubic
    (P_9137 * R_1000003, 10**4),        # one stage-1 hit
    (P_9137 * P_9161, 10**4),           # two stage-1 hits
    (P_12011 * P_12011_B, 13_000),      # two hits at the same prime power
])
def test_pm1_stage1_units_are_repeatable(ecm_b1, n, b1):
    ecm_b1(b1)
    exponent, _, _, units = arith._ecm_tables()
    assert exponent == stage1_exponent(b1)
    # the stage-1 point on the nodal cubic meets n where 2^E - 1 does
    z = arith._ladder(exponent, 9, n, 0)[1]
    assert math.gcd(z, n) == math.gcd(pow(2, exponent, n) - 1, n)
    meters = [WorkMeter(10**9) for _ in range(3)]
    found = {arith._find_divisor(n, FactorPolicy(), meter) for meter in meters}
    assert len(found) == 1 and n % found.pop() == 0
    assert len({meter.used for meter in meters}) == 1
    assert meters[0].used % units == 0
    assert meters[0].by_stage == {"trial": 0, "ecm": meters[0].used}


def reference_pm1(n, b1, b2, segment):
    """Plain p-1 with base 2: stage 1 takes gcd(h - 1, n), h = 2^E and
    E = lcm(1, ..., b1); stage 2 walks the primes q in (b1, b2] in
    segments of `segment` numbers, one gcd of prod(h^q - 1) per segment.
    Returns the first gcd above 1, or 1."""
    is_prime = sieve_is_prime(b2)
    h = pow(2, stage1_exponent(b1), n)
    g = math.gcd(h - 1, n)
    lo = b1
    while g == 1 and lo < b2:
        hi = min(lo + segment, b2)
        acc = 1
        for q in range(lo + 1, hi + 1):
            if is_prime[q]:
                acc = acc * (pow(h, q, n) - 1) % n
        g = math.gcd(acc, n)
        lo = hi
    return g


@pytest.mark.parametrize("n,b1,expected", [
    (P_12011 * R_1000003, 100, P_12011),     # one hit
    (P_12011 * P_12011_B, 100, None),        # two hits at the same prime
    (R_1000003 * R_1000033, 100, None),      # no hit: the full walk
    (7 * R_1000003, 2, 7),                   # the order of 2 mod 7 is 3
])
@pytest.mark.parametrize("segment", [3000, 30_000_000])
def test_pm1_stage2_matches_reference(n, b1, expected, segment):
    # every prime here has one prime q in (b1, B2] or none to its p - 1
    # beyond the powers <= b1, so p-1 from stage-1 bound b1, however it is
    # segmented, finds what ECM's walk on the nodal cubic finds with its
    # own bounds
    for p in (P_12011, P_12011_B, P_9137, P_9161, R_1000003, R_1000033):
        assert is_probable_prime(p)
    g = arith._ecm_walk(n, 9, 0)
    assert g == reference_pm1(n, b1, arith._ECM_B2, segment)
    assert (g if 1 < g < n else None) == expected


def test_brent_rho_tells_collision_from_exhaustion():
    # as rho's cycle could, a curve closes on all of n, splits it, or finds
    # nothing.  Sigma 6, 9 and 10 start from a denominator that is no unit
    # mod 3 or mod 5; every other curve has at most 10 points mod 3 and
    # mod 5, so E ends both primes at once
    assert [arith._ecm_curve(15, s) for s in range(6, 14)] == [
        3, 15, 15, 3, 5, 15, 3, 15]
    # the product of the Mersenne primes 2^107 - 1 and 2^127 - 1 is far
    # beyond one curve's bounds
    assert arith._ecm_curve(((1 << 107) - 1) * ((1 << 127) - 1), 6) == 1


def test_rho_exhausted_attempt_goes_on_to_stage2():
    # 2 has order 12011 * (a divisor of 30600) mod P_12011, so on the nodal
    # cubic stage 1 ends no prime, and stage 2 ends P_12011 at 12011
    n = P_12011 * R_1000003
    z = arith._ladder(arith._ecm_tables()[0], 9, n, 0)[1]
    assert math.gcd(z, n) == 1
    assert arith._ecm_walk(n, 9, 0) == P_12011


def test_rho_collision_starts_the_next_attempt(monkeypatch):
    # a curve that ends every prime at once gives n, as a rho collision
    # did, and the walk goes on to the next curve
    n = 1000003 * 1000033
    units = arith._ecm_tables()[3]
    outcomes = iter([n, n, 1000003])
    monkeypatch.setattr(arith, "_ecm_curve",
                        lambda n, sigma: next(outcomes))
    meter = WorkMeter(10**9)
    assert arith._find_divisor(n, FactorPolicy(), meter) == 1000003
    assert meter.used == 3 * units
    # curves that all give n run until the budget does
    monkeypatch.setattr(arith, "_ecm_curve", lambda n, sigma: n)
    meter = WorkMeter(5 * units)
    with pytest.raises(BudgetExhausted):
        arith._find_divisor(n, FactorPolicy(), meter)
    assert meter.used == 6 * units


def _semiprime(digits_p, digits_q):
    """Two primes of the given digit counts, drawn from a seeded generator
    and checked by sympy, and their product."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"ecm-test:{digits_p}:{digits_q}")
    p = sympy.nextprime(rng.randrange(10 ** (digits_p - 1), 10 ** digits_p))
    q = sympy.nextprime(rng.randrange(10 ** (digits_q - 1), 10 ** digits_q))
    return p, q


@pytest.mark.parametrize("digits_p,digits_q", [
    (10, 20), (12, 20), (14, 22), (16, 24), (18, 26), (20, 28)])
def test_ecm_splits_seeded_semiprimes(digits_p, digits_q):
    sympy = pytest.importorskip("sympy")
    p, q = _semiprime(digits_p, digits_q)
    f = factor(p * q, FactorPolicy(trial_bound=1000))
    assert f.factors == ((p, 1), (q, 1)) and f.complete
    assert all(sympy.isprime(r) for r, _ in f.factors)


def test_ecm_splits_off_a_prime_power():
    sympy = pytest.importorskip("sympy")
    p, q = _semiprime(12, 14)
    f = factor(p**2 * q, FactorPolicy(trial_bound=1000))
    assert f.factors == ((p, 2), (q, 1)) and f.complete
    assert sympy.isprime(p) and sympy.isprime(q)
    f = factor(p**5, FactorPolicy(trial_bound=1000))  # the perfect-power split
    assert f.factors == ((p, 5),)


def test_ecm_denominator_that_is_no_unit_yields_its_gcd():
    # sigma = 6: v = 24 is 0 mod 3 and a unit mod 5
    assert arith._ecm_curve(15, 6) == 3


def test_ecm_curve_whose_gcd_is_n_moves_on_to_the_next_curve():
    # mod 101 and mod 103 every curve has an order below 123, so stage 1
    # takes both primes at once unless the starting denominator splits n;
    # curves 0 to 2 give n, and curve 3 gives 101
    n = 101 * 103
    sigmas = [random.Random(f"pellcheck-ecm:1:{n}:{i}").randrange(6, n - 1)
              for i in range(4)]
    assert [arith._ecm_curve(n, s) for s in sigmas] == [n, n, n, 101]
    assert arith._ecm_batch(n, 1, 100, 0) == (4, 101)
    # factor() runs none of them: a prime <= B1 is split off uncharged
    meter = WorkMeter(10**9)
    f = factor(n, FactorPolicy(trial_bound=100), meter=meter)
    assert f.factors == ((101, 1), (103, 1))
    assert meter.by_stage["ecm"] == 0


def test_ecm_tables_match_their_definitions():
    exponent, babies, plan, units = arith._ecm_tables()
    b1, b2, d = arith._ECM_B1, arith._ECM_B2, arith._ECM_D
    # E: each prime to its largest power <= B1
    is_prime = sieve_is_prime(b2)
    assert exponent == math.prod(p ** int(math.log(b1, p) + 1e-9)
                                 for p in range(2, b1 + 1) if is_prime[p])
    assert babies == tuple(j for j in range(1, d // 2, 2)
                           if all(j % p for p in (3, 5, 7, 11)))
    assert len(babies) == 240  # phi(2310) / 2
    # the plan's pairs m*D +- j cover the primes in (B1, B2] and no more
    # pairs than needed: dropping any pair leaves a prime out
    assert all(0 <= i < len(babies) for row in plan for i in row)
    hits = [[q for q in (m * d - babies[i], m * d + babies[i])
             if b1 < q <= b2 and is_prime[q]]
            for m, row in enumerate(plan, 1) for i in row]
    assert all(hits)
    assert sorted(q for qs in hits for q in qs) == [
        q for q in range(b1 + 1, b2 + 1) if is_prime[q]]
    assert units == 6 * (exponent.bit_length() - 1) + len(hits) == 46200


# The reference ECM curve: the projective ladder, and the stage 2 of two
# multiplications per pair, X_m - x_j Z_m and the product, that the affine
# ladder and the normalised giants replaced.  On the same curve it finds
# the same gcd, except where a giant's Z is no unit mod n: there the
# reference's terms can miss that prime, and the new walk returns the gcd
# of the giants' Z.


def ref_xdbl(x, z, n, a24):
    s = (x + z) * (x + z) % n
    d = (x - z) * (x - z) % n
    return s * d % n, (s - d) * (d + a24 * (s - d) % n) % n


def ref_xadd(x1, z1, x2, z2, xd, zd, n):
    u = (x1 - z1) * (x2 + z2) % n
    v = (x1 + z1) * (x2 - z2) % n
    return zd * ((u + v) * (u + v) % n) % n, xd * ((u - v) * (u - v) % n) % n


def ref_xmul(k, x, z, n, a24):
    p, q = (x, z), ref_xdbl(x, z, n, a24)
    for bit in bin(k)[3:]:
        if bit == "1":
            p, q = ref_xadd(*p, *q, x, z, n), ref_xdbl(*q, n, a24)
        else:
            p, q = ref_xdbl(*p, n, a24), ref_xadd(*p, *q, x, z, n)
    return p


def ref_plan():
    """The j of the pairs m*D +- j, one set per m, from the plain sieve."""
    b1, b2, d = arith._ECM_B1, arith._ECM_B2, arith._ECM_D
    is_prime = sieve_is_prime(b2)
    plan = [set() for _ in range(b2 // d + 1)]
    for q in range(b1 + 1, b2 + 1):
        if is_prime[q]:
            m = (q + d // 2) // d
            plan[m - 1].add(abs(q - m * d))
    return plan


def ref_walk(n, x, a24, plan):
    """(the reference's gcd, the gcd of n and the product of the Z of its
    giants mDQ, or 1 where it stops before the giants)."""
    d = arith._ECM_D
    q = ref_xmul(stage1_exponent(arith._ECM_B1), x, 1, n, a24)
    g = math.gcd(q[1], n)
    if g != 1:
        return g, 1
    babies = [j for j in range(1, d // 2, 2) if math.gcd(j, d) == 1]
    twice = ref_xdbl(*q, n, a24)
    odd = [q, ref_xadd(*q, *twice, *q, n)]
    while 2 * len(odd) <= babies[-1]:
        odd.append(ref_xadd(*odd[-1], *twice, *odd[-2], n))
    points = [odd[j // 2] for j in babies]
    prefix = [1]
    for _, z in points:
        prefix.append(prefix[-1] * z % n)
    try:
        inv = pow(prefix[-1], -1, n)
    except ValueError:
        return math.gcd(prefix[-1], n), 1
    xs = {}
    for i in reversed(range(len(points))):
        xs[babies[i]] = points[i][0] * inv * prefix[i] % n
        inv = inv * points[i][1] % n
    step = ref_xmul(d, *q, n, a24)
    cur, nxt = step, ref_xdbl(*step, n, a24)
    acc, zs = 1, 1
    for pairs in plan:
        for j in pairs:
            acc = acc * (cur[0] - xs[j] * cur[1]) % n
        zs = zs * cur[1] % n
        cur, nxt = nxt, ref_xadd(*nxt, *step, *cur, n)
    return math.gcd(acc, n), math.gcd(zs, n)


def ref_curve(n, sigma, plan):
    g = math.gcd(16 * (sigma * sigma - 5) ** 3 * (4 * sigma) ** 4, n)
    if g != 1:
        return g, 1
    x, a24 = suyama_curve(n, sigma)
    return ref_walk(n, x, a24, plan)


def assert_walk_matches_reference(found, reference):
    g, giants = reference
    assert found == (g if giants == 1 else giants)


def test_affine_ladder_has_the_projective_ladders_residues():
    n = P113_COFACTOR
    rng = random.Random("affine-ladder")
    exponent = stage1_exponent(arith._ECM_B1)
    for x, a24 in [(9, 0), suyama_curve(n, 7)] + [
            (rng.randrange(n), rng.randrange(n)) for _ in range(3)]:
        for k in (1, 2, 3, 4, 5, arith._ECM_D, exponent,
                  rng.getrandbits(300)):
            assert arith._ladder(k, x, n, a24) == ref_xmul(k, x, 1, n, a24)


def test_ecm_curves_match_the_reference_on_p113():
    # curves 0-15 at seed 1 split nothing, by either walk
    n = P113_COFACTOR
    plan = ref_plan()
    for i in range(16):
        sigma = random.Random(f"pellcheck-ecm:1:{n}:{i}").randrange(6, n - 1)
        reference = ref_curve(n, sigma, plan)
        assert reference == (1, 1)
        assert_walk_matches_reference(arith._ecm_curve(n, sigma), reference)


def test_ecm_curves_match_the_reference_on_small_primes():
    # 300 seeded curves on products of 2 or 3 primes in [3e3, 3e6]
    sympy = pytest.importorskip("sympy")
    plan = ref_plan()
    rng = random.Random("ecm-reference")
    outcomes = set()
    for _ in range(300):
        n = math.prod(sympy.nextprime(rng.randrange(3000, 3 * 10**6 - 100))
                      for _ in range(rng.choice((2, 3))))
        sigma = rng.randrange(6, n - 1)
        reference = ref_curve(n, sigma, plan)
        found = arith._ecm_curve(n, sigma)
        assert_walk_matches_reference(found, reference)
        outcomes.add("miss" if found == 1 else "n" if found == n else "split")
    assert {"split", "n"} <= outcomes  # the misses are P_113's, above


@pytest.mark.parametrize("n", [
    R_1000003 * R_1000033, P_9137 * R_1000003, P_9137 * P_9161,
    P_12011 * P_12011_B, P_12011 * R_1000003, 7 * R_1000003,
    118328383378321 * (10**17 + 3)])
def test_nodal_walks_match_the_reference(n):
    assert_walk_matches_reference(arith._ecm_walk(n, 9, 0),
                                  ref_walk(n, 9, 0, ref_plan()))


def test_a_giant_that_is_no_unit_splits_n():
    # on this curve the stage-1 point Q has order 4 mod 883699, so the
    # giant 2DQ is O there and its Z is 0 mod 883699: the new walk returns
    # 883699, and the reference, whose product of terms is 0 mod both
    # primes, returns n
    n = 116187860821
    assert n == 883699 * 131479
    sigma = 54327859
    assert ref_curve(n, sigma, ref_plan()) == (n, 883699)
    assert arith._ecm_curve(n, sigma) == 883699


# The tests named after p-1 stage 2, whose segments the fork map in pool
# used to walk, check ECM's batches of curves on that map.
#
# P_113 / 677, the product of a 19-digit and a 22-digit prime: at seed 1,
# curve 212 is the first to split it, and finds the 22-digit one
P113_COFACTOR = pell_pair(113).p // 677
P113_P22 = 7228091685084761880821


def test_pm1_stage2_budget_exhausted_mid_walk(monkeypatch):
    # 20 curves and one unit: the 21st curve's charge raises, in the third
    # batch, whatever the worker count
    units = arith._ecm_tables()[3]
    for workers in (1, 2):
        monkeypatch.setattr(pool, "worker_count", lambda: workers)
        meter = WorkMeter(20 * units + 1)
        with pytest.raises(BudgetExhausted):
            arith._find_divisor(P113_COFACTOR, FactorPolicy(), meter)
        assert meter.used == 21 * units
        assert meter.by_stage == {"trial": 0, "ecm": meter.used}
        assert multiprocessing.active_children() == []


def test_ecm_serial_and_pooled_walks_agree(monkeypatch):
    # 18 curves, so the walk reaches its third batch
    p, q = _semiprime(15, 22)
    seen = []
    for workers in (1, 2):
        monkeypatch.setattr(pool, "worker_count", lambda: workers)
        meter = WorkMeter(10**9)
        found = arith._find_divisor(p * q, FactorPolicy(), meter)
        seen.append((found, meter.used))
    assert seen[0] == seen[1]
    assert seen[0][0] in (p, q)
    assert seen[0][1] == 18 * arith._ecm_tables()[3]


def _ecm_hit(_):
    p, q = 5806583323, 44755875687620831389
    return arith._find_divisor(p * q, FactorPolicy(), WorkMeter(10**9))


def test_pm1_stage2_inside_a_daemonic_process(monkeypatch):
    # pool workers are daemonic and may not fork workers of their own, so
    # ECM runs all its batches in the calling process there
    monkeypatch.setattr(arith, "_ECM_BATCH", 1)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.map_async(_ecm_hit, [0]).get(timeout=60) == [5806583323]


def test_pm1_stage2_workers_end_despite_a_sigterm_handler(monkeypatch,
                                                          tmp_path):
    # the caller's Python SIGTERM handler is inherited by the workers; a
    # worker still walking its batch after the hit must end all the same,
    # without running that handler
    log = tmp_path / "sigterm.txt"

    def handler(signum, frame):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")

    def second_hits_rest_hang(n, seed, curves, first):
        if first == 0:
            return arith._ECM_BATCH, None
        if first == arith._ECM_BATCH:
            return 1, P113_P22
        time.sleep(60)

    monkeypatch.setattr(arith, "_ecm_batch", second_hits_rest_hang)
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    meter = WorkMeter(10**9)
    previous = signal.signal(signal.SIGTERM, handler)
    try:
        t0 = time.monotonic()
        found = arith._find_divisor(P113_COFACTOR, FactorPolicy(), meter)
        elapsed = time.monotonic() - t0
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert found == P113_P22
    assert meter.used == (arith._ECM_BATCH + 1) * arith._ecm_tables()[3]
    assert multiprocessing.active_children() == []
    assert not log.exists()
    assert elapsed < 30


def test_pm1_stage2_worker_that_exits_is_an_error(monkeypatch):
    def second_exits(n, seed, curves, first):
        if first == arith._ECM_BATCH:
            os._exit(3)
        return arith._ECM_BATCH, None

    monkeypatch.setattr(arith, "_ecm_batch", second_exits)
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    with pytest.raises(pool.WorkerExited, match="ECM worker exited"):
        arith._find_divisor(P113_COFACTOR, FactorPolicy(), WorkMeter(10**9))
    assert multiprocessing.active_children() == []


def test_cli_import_leaves_multiprocessing_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pellcheck.__file__)))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, pellcheck.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0
    assert result.stdout == "False\n"
    # a sweep with at most one odd index above 1 starts no worker, so the
    # cold start stays as cheap as the import
    for n_max in ("2", "3", "4"):
        script = (
            "import os, sys, pellcheck.cli\n"
            "os.fork = None\n"
            f"rc = pellcheck.cli.main(['verify', '--n-max', '{n_max}'])\n"
            "print(rc, sorted({'multiprocessing', 'concurrent.futures',\n"
            "                  'subprocess'} & set(sys.modules)))\n"
        )
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 []", n_max
    # nor does the smallest sweep load hashlib or build any table beyond
    # those of the import: ECM's come with its first curve
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "from pellcheck import arith, cli\n"
        "tables = arith.small_primes.cache_info().currsize\n"
        "rc = cli.main(['verify', '--n-max', '1', '--format',\n"
        "              'structured'])\n"
        "loaded = set(sys.modules) - bare\n"
        "print(rc, sorted({'hashlib', '_hashlib'} & loaded),\n"
        "      arith._ecm_tables.cache_info().currsize,\n"
        "      arith.small_primes.cache_info().currsize - tables,\n"
        "      file=sys.stderr)\n"
    )
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "0 [] 0 0"
    # the same script sees ECM's tables once factor() reaches ECM
    result = subprocess.run(
        [sys.executable, "-c",
         "from pellcheck import arith\n"
         "policy = arith.FactorPolicy(trial_bound=100)\n"
         "arith.factor(1000003 * 1000033, policy)\n"
         "print(arith._ecm_tables.cache_info().currsize)\n"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1\n"


# ---------------------------------------------------------------------------
# totient / valuations


def test_euler_phi_examples():
    assert euler_phi(factor(1, SMALL_POLICY)) == 1
    assert euler_phi(factor(985, SMALL_POLICY)) == 784
    assert euler_phi(factor(169, SMALL_POLICY)) == 156


def test_euler_phi_vs_gcd_counting():
    for n in range(1, 2001):
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(factor(n, SMALL_POLICY)) == brute, n


def test_euler_phi_rejects_partial():
    partial = Factorization(target=985, factors=((5, 1),), cofactor=197)
    with pytest.raises(ValueError):
        euler_phi(partial)


def test_nu2_examples():
    assert nu2(12) == 2
    assert nu2(14) == 1


def test_nu2_equals_trailing_zero_bits():
    # oracle: repeated division, independent of the bit trick inside nu2
    for n in range(1, 10**6 + 1):
        expected = 0
        m = n
        while m % 2 == 0:
            m //= 2
            expected += 1
        assert nu2(n) == expected


def test_valuation_of_zero_rejected():
    with pytest.raises(ValueError):
        nu2(0)


# ---------------------------------------------------------------------------
# invariants of the Factorization type


def test_factorization_validates_product():
    with pytest.raises(ValueError):
        Factorization(target=985, factors=((5, 1), (196, 1)))
    # the message gives the target's size, not its digits
    with pytest.raises(ValueError, match=r"the 14001-bit target$"):
        Factorization(target=2**14000 + 1, factors=((2, 1),))
    with pytest.raises(ValueError):
        Factorization(target=12, factors=((3, 1), (2, 2)))  # not ascending
    with pytest.raises(ValueError):
        Factorization(target=12, factors=((2, 0), (3, 1)))  # zero exponent


def test_policy_validation():
    with pytest.raises(ValueError):
        FactorPolicy(trial_bound=1)
    with pytest.raises(ValueError):
        FactorPolicy(max_total_ms=0)
    with pytest.raises(ValueError):
        FactorPolicy(max_total_ms=-5)


@pytest.mark.parametrize("field, limit", [
    ("trial_bound", arith.MAX_SIEVE_BOUND),
])
def test_policy_refuses_bounds_that_size_oversized_tables(field, limit):
    # construction only: nothing is sieved or listed here
    assert getattr(FactorPolicy(**{field: limit}), field) == limit
    with pytest.raises(ValueError, match=field):
        FactorPolicy(**{field: limit + 1})


def test_small_primes():
    assert list(small_primes(1)) == []
    assert list(small_primes(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(small_primes(10**6)) == 78498
    # against trial division by every smaller number, for each bound
    primes = []
    for bound in range(2_001):
        if bound >= 2 and all(bound % d for d in range(2, bound)):
            primes.append(bound)
        assert list(small_primes(bound)) == primes, bound


def test_small_primes_are_packed():
    primes = small_primes(10**6)
    assert isinstance(primes, array)
    assert primes.typecode == "I"
    assert len(primes) == 78498
    # a list's pointer block alone would take 628,040 bytes
    assert sys.getsizeof(primes) < 400_000
    assert arith.MAX_SIEVE_BOUND < 2 ** (8 * primes.itemsize)
