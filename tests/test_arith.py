import functools
import hashlib
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
SMALL_POLICY = FactorPolicy(trial_bound=400, rho_budget_ms=50,
                            max_total_ms=1000, pm1_b1=0, pm1_b2=0)
# deliberately starved policy, for exercising partial factorizations
TINY_POLICY = FactorPolicy(trial_bound=100, rho_budget_ms=1, max_total_ms=10,
                           pm1_b1=0, pm1_b2=0)


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
    # seeded bases; no real round is run (one modexp takes seconds here)
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
        rho = arith._rho_rng(1, n, 0)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    rng = random.Random("pellcheck-mr:" + digits)
    assert bases == [rng.randrange(2, n - 1) for _ in range(64)]
    h = hashlib.sha256(f"pellcheck-rho:1:{digits}:0".encode()).digest()
    assert rho.getstate() == random.Random(int.from_bytes(h, "big")).getstate()


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
# these
FULL_FACTORIZATIONS = {
    57: (((5, 1), (37, 1), (179057, 1), (1311797, 1), (53535197, 1)),
         (9813, 16721, 0, 0)),
    71: (((569, 1), (2644939853, 1), (353183656631413, 1)),
         (9813, 721092, 108542, 0)),
    73: (((1873724873, 1), (1653385841290367057, 1)),
         (9813, 16389, 0, 0)),
    85: (((29, 1), (137, 1), (3229, 1), (8297, 1), (65789, 1),
          (5293801, 1), (3276118961, 1)),
         (9813, 16389, 0, 0)),
    123: (((5, 1), (429846869, 1), (1746860020068409, 1),
           (11358537748338103332221, 1)),
          (9813, 35324, 0, 0)),
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
    # product of two primes around 1e9; trial alone cannot reach them
    n = 1000000007 * 1000000009
    f = factor(n, FactorPolicy(trial_bound=1000, rho_budget_ms=2000,
                               max_total_ms=30000, pm1_b1=0, pm1_b2=0))
    assert f.complete
    assert [p for p, _ in f.factors] == [1000000007, 1000000009]


def test_factor_pm1_stage1_path():
    # p-1 = 2^4 * 3 * 5 * 127 * 401 * 1291 * 7499 is very smooth
    p = 118328383378321
    q = 10**17 + 3
    f = factor(p * q, FactorPolicy(trial_bound=1000, rho_budget_ms=1,
                                   max_total_ms=60000,
                                   pm1_b1=10**4, pm1_b2=0))
    assert (p, 1) in f.factors


def test_factor_stage_units_sum_to_used():
    # trial division, then p-1 stage 1 finds 118328383378321 and rho
    # splits the rest
    n = 1000000007 * 1000000009 * 118328383378321
    meter = WorkMeter(10**9)
    factor(n, FactorPolicy(trial_bound=1000, rho_budget_ms=10,
                           pm1_b1=10**4, pm1_b2=10**5), meter=meter)
    assert set(meter.by_stage) == set(STAGES)
    assert sum(meter.by_stage.values()) == meter.used
    assert all(meter.by_stage[s] > 0 for s in ("trial", "pm1_stage1", "rho"))


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
    policy = FactorPolicy(trial_bound=bound, pm1_b1=0, pm1_b2=0)
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


def test_brent_rho_tells_collision_from_exhaustion():
    def rho(n, max_iters, seed):
        return arith._brent_rho(n, max_iters, random.Random(seed),
                                WorkMeter(10**9))

    # from these starts the cycle on 15 closes at 15 itself, or splits it
    assert rho(15, 10**6, 1) == 15
    assert rho(15, 10**6, 0) == 3
    # 100 iterations cannot split a product of two primes near 10**6
    assert rho(1000003 * 1000033, 100, 1) is None


def _scripted_rho(monkeypatch, outcomes):
    """Make _brent_rho return the given outcomes in turn; return the list
    of attempts it was asked for."""
    calls = []

    def rho(n, max_iters, rng, meter):
        calls.append(n)
        return outcomes[len(calls) - 1]

    monkeypatch.setattr(arith, "_brent_rho", rho)
    return calls


def test_rho_exhausted_attempt_goes_on_to_stage2(monkeypatch):
    n = 1000003 * 1000033
    calls = _scripted_rho(monkeypatch, [None, 1000003, 1000003])
    monkeypatch.setattr(arith, "_pm1_stage1", lambda n, b1, meter: (None, 5))
    stage2 = []

    def walk(n, h, b1, b2, meter):
        stage2.append(h)
        return 1000033

    monkeypatch.setattr(arith, "_pm1_stage2", walk)
    found = arith._find_divisor(n, FactorPolicy(), WorkMeter(10**9))
    assert (found, calls, stage2) == (1000033, [n], [5])


def test_rho_collision_starts_the_next_attempt(monkeypatch):
    n = 1000003 * 1000033
    calls = _scripted_rho(monkeypatch, [n, n, 1000003])
    policy = FactorPolicy(pm1_b1=0, pm1_b2=0)
    assert arith._find_divisor(n, policy, WorkMeter(10**9)) == 1000003
    assert calls == [n, n, n]
    # three collisions and no p-1: nothing found
    calls = _scripted_rho(monkeypatch, [n, n, n, 1000003])
    assert arith._find_divisor(n, policy, WorkMeter(10**9)) is None
    assert calls == [n, n, n]


# ---------------------------------------------------------------------------
# p-1 stage 1


def stage1_exponent(b1):
    """The product of the maximal prime powers <= b1, built independently
    as lcm(1, ..., b1)."""
    return math.lcm(*range(1, b1 + 1))


@pytest.mark.parametrize("b1", [2, 9, 100, 10**4])
@pytest.mark.parametrize("bits", [1, 64, 1 << 15])
def test_stage1_chunks_multiply_to_the_exponent(b1, bits):
    chunks = arith._stage1_chunks(b1, bits)
    assert math.prod(chunk for _, chunk in chunks) == stage1_exponent(b1)
    assert all(math.prod(powers) == chunk for powers, chunk in chunks)
    assert all(chunk.bit_length() >= bits for _, chunk in chunks[:-1])
    # one power per prime, in ascending prime order
    spf = smallest_factor_sieve(b1)
    bases = [spf[pk] for powers, _ in chunks for pk in powers]
    assert bases == [p for p in range(2, b1 + 1) if spf[p] == p]


# p - 1 = (prime powers <= 100) * q; see the stage-2 tests below
P_12011 = 30600 * 12011 + 1     # 30600 = 2^3 3^2 5^2 17
P_12011_B = 31008 * 12011 + 1   # 31008 = 2^5 3 17 19
P_9137 = 30576 * 9137 + 1       # 30576 = 2^4 3 7^2 13
P_9161 = 30590 * 9161 + 1       # 30590 = 2 5 7 19 23
R_1000003 = 30360 * 1000003 + 1     # q beyond every b1 and b2 below
R_1000033 = 31920 * 1000033 + 1


@pytest.mark.parametrize("bits", [256, 1 << 15])
def test_pm1_stage1_residue_is_the_whole_power(monkeypatch, bits):
    # no chunk's gcd exceeds 1, so stage 2 gets 2^E mod n
    monkeypatch.setattr(arith, "_STAGE1_CHUNK_BITS", bits)
    n, b1 = R_1000003 * R_1000033, 10**4
    meter = WorkMeter(10**9)
    assert arith._pm1_stage1(n, b1, meter) == (
        None, pow(2, stage1_exponent(b1), n))
    assert meter.used == sum(chunk.bit_length() // 2 + 1
                             for _, chunk in arith._stage1_chunks(b1, bits))


@pytest.mark.parametrize("bits", [256, 1 << 15])
def test_pm1_stage1_replay_splits_two_smooth_primes(monkeypatch, bits):
    # p - 1 and q - 1 are both 10^4-smooth, so 2^E - 1 is divisible by n
    # itself; the replay finds p at the prime 9137, before 9161 ends q
    monkeypatch.setattr(arith, "_STAGE1_CHUNK_BITS", bits)
    n, b1 = P_9137 * P_9161, 10**4
    assert math.gcd(pow(2, stage1_exponent(b1), n) - 1, n) == n
    assert arith._pm1_stage1(n, b1, WorkMeter(10**9)) == (P_9137, 0)
    f = factor(n, FactorPolicy(trial_bound=100, rho_budget_ms=1,
                               pm1_b1=b1, pm1_b2=0))
    assert [p for p, _ in f.factors] == [P_9137, P_9161]


def test_pm1_stage1_one_power_reaching_n_goes_on_to_rho(monkeypatch):
    # both primes end at the prime power 12011, so no replay splits n
    n, b1 = P_12011 * P_12011_B, 13_000
    assert math.gcd(pow(2, stage1_exponent(b1), n) - 1, n) == n
    assert arith._pm1_stage1(n, b1, WorkMeter(10**9)) == (None, 0)
    calls = _scripted_rho(monkeypatch, [P_12011])

    def no_stage2(*args):
        raise AssertionError("stage 2 has no residue to walk")

    monkeypatch.setattr(arith, "_pm1_stage2", no_stage2)
    policy = FactorPolicy(pm1_b1=b1, pm1_b2=20_000)
    assert arith._find_divisor(n, policy, WorkMeter(10**9)) == P_12011
    assert calls == [n]


@pytest.mark.parametrize("n,b1", [
    (R_1000003 * R_1000033, 10**4),     # no hit
    (P_9137 * R_1000003, 10**4),        # a chunk's gcd splits n
    (P_9137 * P_9161, 10**4),           # the replay splits n
    (P_12011 * P_12011_B, 13_000),      # the replay reaches n
])
def test_pm1_stage1_units_are_repeatable(monkeypatch, n, b1):
    monkeypatch.setattr(arith, "_STAGE1_CHUNK_BITS", 256)
    meters = [WorkMeter(10**9) for _ in range(3)]
    results = {arith._pm1_stage1(n, b1, meter) for meter in meters}
    assert len(results) == 1
    assert len({meter.used for meter in meters}) == 1
    assert meters[0].by_stage == {**dict.fromkeys(STAGES, 0),
                                  "pm1_stage1": meters[0].used}


# ---------------------------------------------------------------------------
# p-1 stage 2 and its segment sieve


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


def reference_stage2(n, h, b1, b2, segment):
    """Plain p-1 stage 2: per segment, gcd(prod(h^q - 1), n) over the odd
    primes q in it, then a prime-by-prime replay if that gcd is n.
    Returns (divisor or None, work units charged)."""
    is_prime = sieve_is_prime(b2)
    units = 0
    lo = b1
    while lo < b2:
        hi = min(lo + segment, b2)
        primes = [q for q in range(lo + 1, hi + 1) if q % 2 and is_prime[q]]
        acc = 1
        for q in primes:
            acc = acc * (pow(h, q, n) - 1) % n
        units += 3 * len(primes) + 1000
        g = math.gcd(acc, n)
        if 1 < g < n:
            return g, units
        if g == n:
            for q in primes:
                g = math.gcd(pow(h, q, n) - 1, n)
                if 1 < g < n:
                    return g, units
            return None, units
        lo = hi
    return None, units


@pytest.mark.parametrize("n,b1,expected", [
    (P_12011 * R_1000003, 100, P_12011),     # one hit
    (P_9137 * P_9161, 100, P_9137),          # two hits in one segment
    (P_12011 * P_12011_B, 100, None),        # two hits at the same prime
    (R_1000003 * R_1000033, 100, None),      # no hit: the full walk
    (7 * R_1000003, 2, 7),                   # q = 3 divides the step
])
@pytest.mark.parametrize("segment", [3000, 30_000_000])
def test_pm1_stage2_matches_reference(monkeypatch, n, b1, expected,
                                      segment):
    for p in (P_12011, P_12011_B, P_9137, P_9161, R_1000003, R_1000033):
        assert is_probable_prime(p)
    b2 = 20_000
    monkeypatch.setattr(arith, "_STAGE2_SEGMENT", segment)
    g, h = arith._pm1_stage1(n, b1, WorkMeter(10**9))
    assert g is None and h
    reference = reference_stage2(n, h, b1, b2, segment)
    # one worker walks in this process; two fork a pool once there are
    # several segments
    for workers in (1, 2):
        monkeypatch.setattr(pool, "worker_count", lambda: workers)
        meter = WorkMeter(10**9)
        found = arith._pm1_stage2(n, h, b1, b2, meter)
        assert (found, meter.used) == reference
        assert found == expected
        assert meter.by_stage == {**dict.fromkeys(STAGES, 0),
                                  "pm1_stage2": meter.used}
        assert multiprocessing.active_children() == []


def test_pm1_stage2_budget_exhausted_mid_walk(monkeypatch):
    n = R_1000003 * R_1000033  # no hit: the walk would run to b2
    b1, b2, segment = 100, 20_000, 3000
    monkeypatch.setattr(arith, "_STAGE2_SEGMENT", segment)
    _, h = arith._pm1_stage1(n, b1, WorkMeter(10**9))
    full = reference_stage2(n, h, b1, b2, segment)[1]
    used = set()
    for workers in (1, 2):
        monkeypatch.setattr(pool, "worker_count", lambda: workers)
        meter = WorkMeter(full // 2)
        with pytest.raises(BudgetExhausted):
            arith._pm1_stage2(n, h, b1, b2, meter)
        assert full // 2 < meter.used < full
        used.add(meter.used)
        assert multiprocessing.active_children() == []
    assert len(used) == 1


def _stage2_hit(_):
    n = P_12011 * R_1000003
    _, h = arith._pm1_stage1(n, 100, WorkMeter(10**9))
    return arith._pm1_stage2(n, h, 100, 20_000, WorkMeter(10**9))


def test_pm1_stage2_inside_a_daemonic_process(monkeypatch):
    # pool workers are daemonic and may not fork workers of their own, so
    # stage 2 walks its segments in the calling process there
    monkeypatch.setattr(arith, "_STAGE2_SEGMENT", 3000)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.map_async(_stage2_hit, [0]).get(timeout=60) == [P_12011]


def test_pm1_stage2_workers_end_despite_a_sigterm_handler(monkeypatch,
                                                          tmp_path):
    # the caller's Python SIGTERM handler is inherited by the workers; a
    # worker still walking a segment after the hit must end all the same,
    # without running that handler
    log = tmp_path / "sigterm.txt"
    walk = arith._stage2_segment

    def first_hits_rest_hang(n, h, b2, bounds):
        if bounds[0] == 100:
            return walk(n, h, b2, bounds)
        time.sleep(60)

    def handler(signum, frame):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")

    monkeypatch.setattr(arith, "_stage2_segment", first_hits_rest_hang)
    monkeypatch.setattr(arith, "_STAGE2_SEGMENT", 20_000)
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    n = P_12011 * R_1000003
    _, h = arith._pm1_stage1(n, 100, WorkMeter(10**9))
    previous = signal.signal(signal.SIGTERM, handler)
    try:
        t0 = time.monotonic()
        found = arith._pm1_stage2(n, h, 100, 40_000, WorkMeter(10**9))
        elapsed = time.monotonic() - t0
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert found == P_12011
    assert multiprocessing.active_children() == []
    assert not log.exists()
    assert elapsed < 30


def test_pm1_stage2_worker_that_exits_is_an_error(monkeypatch):
    walk = arith._stage2_segment

    def first_exits(n, h, b2, bounds):
        if bounds[0] == 100:
            os._exit(3)
        return walk(n, h, b2, bounds)

    monkeypatch.setattr(arith, "_stage2_segment", first_exits)
    monkeypatch.setattr(arith, "_STAGE2_SEGMENT", 20_000)
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    n = P_12011 * R_1000003
    _, h = arith._pm1_stage1(n, 100, WorkMeter(10**9))
    with pytest.raises(RuntimeError, match="stage-2 worker exited"):
        arith._pm1_stage2(n, h, 100, 40_000, WorkMeter(10**9))
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


def test_openssl_loads_only_once_factor_reaches_rho():
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print('_hashlib' in sys.modules)"],
        capture_output=True, text=True)
    assert bare.returncode == 0, bare.stderr
    if bare.stdout != "False\n":
        pytest.skip("the bare interpreter loads _hashlib at startup")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pellcheck.__file__)))
    # none of these runs rho in this process, though P_101 is above psi_13
    # and so takes the 64 seeded Miller-Rabin rounds; the last factor()
    # has neither trial primes nor p-1 that could split its semiprime
    script = (
        "import sys\n"
        "from pellcheck import (FactorPolicy, bound_chain, factor,\n"
        "                       is_probable_prime, lehmer_check, pell_pair,\n"
        "                       run_identity_suite, verify_range)\n"
        "lehmer_check(999_999_999_995)\n"
        "bound_chain(2500, 16)\n"
        "run_identity_suite(100)\n"
        "verify_range(40)\n"
        "assert is_probable_prime(pell_pair(101).p)\n"
        "print('_hashlib' in sys.modules)\n"
        "policy = FactorPolicy(trial_bound=100, pm1_b1=0, pm1_b2=0)\n"
        "assert factor(1_000_003 * 1_000_033, policy).complete\n"
        "print('_hashlib' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\nTrue\n"


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
        FactorPolicy(rho_budget_ms=0)
    with pytest.raises(ValueError):
        FactorPolicy(max_total_ms=-5)


@pytest.mark.parametrize("field, limit", [
    ("trial_bound", arith.MAX_SIEVE_BOUND),
    ("pm1_b1", arith.MAX_SIEVE_BOUND),
    ("pm1_b2", arith.MAX_PM1_B2),
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
