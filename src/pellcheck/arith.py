"""Integer machinery: primality, budgeted factorization, totient, valuations.

Factorization is policy-driven and budget-aware.  Budgets are given in
milliseconds but are converted internally to deterministic work units
(UNITS_PER_MS, calibrated once for a nominal desktop), so the outcome of a
factorization is a pure function of (N, policy) -- wall-clock jitter can
never flip a result, which keeps whole verification reports byte-identical
across runs with the same seed.

Every prime table, from the trial primes to p-1 stage 2's segments,
comes from one odd-only segmented sieve (Bays and Hudson, BIT 17, 1977),
and small_primes returns each of its tables as a packed array, 4 bytes
per prime.
Trial division takes one gcd per block of 128 consecutive primes up to
the trial bound (each block's product is built once per bound) and scans
a block prime by prime only when its gcd with what is left of n exceeds
1, and then only until that gcd is divided out.  It stops at the first
block whose least prime squared exceeds what is left, and as soon as
what is left after a found prime is (probably) prime, which it finds
too.  So it finds the same primes in the same order as dividing by each
prime in turn, for the same flat charge.  In factor(), one generator
yields each prime that trial division and then the splitting stack
confirm, and one loop records it until on_prime says stop.
Primality is deterministic Miller-Rabin below psi_13 ~ 3.3e24, with the
first k prime bases for n below psi_k, the least strong pseudoprime to
those k bases; above psi_13 it takes 64 rounds with bases drawn from a
random.Random seeded with n.  Neither the block length nor the base
tiers have a setting.  hashlib, and with it OpenSSL, is imported only for rho's
random starts, so a process that never runs rho never loads it.

The splitting pipeline for a stubborn composite is, in order of cost:
perfect-power detection, Pollard p-1 stage 1 (runs at C speed through
pow()), Brent-cycle rho, and p-1 stage 2, a baby-step/giant-step walk
over the primes in (b1, b2] that costs one modular multiplication per
prime.  Stage 1 uses the one base 2 and raises it by one chunk of the
exponent at a time, with a gcd after each chunk; a chunk whose gcd is n
is replayed one prime power at a time (backtracking), and only when a
single prime power takes the gcd from 1 to n does stage 1 give up.  Rho
tries a new random start (at most three in all) only after a collision,
when its cycle closes on n itself; an attempt that runs out of
iterations hands over to stage 2 at once, because another start would
cost as much again.  Stage 2 walks its segments through
pool.ordered_map, the fork-worker map the sweep in verifier also uses,
and reads their outcomes in segment order, so its result and its work
units are those of a serial walk.  There is no setting for the worker
count.  Elliptic curves and sieve methods are deliberately out of scope.

FactorPolicy and Factorization are NamedTuples that check their fields in
__new__, which unpickling runs too.  The seed strings above spell n in
decimal inside big_int_strings, which lifts the int/str digit limit for
them and for every report that prints P_n.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
import sys
from array import array
from contextlib import closing, contextmanager
from itertools import compress, islice
from typing import Callable, Iterator, NamedTuple, Optional

from . import pool

#: Work units charged per nominal millisecond of budget.  One unit is
#: roughly one rho iteration on a desktop core; the constant only needs to
#: be fixed, not accurate, for results to be reproducible.
UNITS_PER_MS = 3000

# Deterministic Miller-Rabin: below _MR_PSI[k - 1] the first k bases of
# _MR_BASES decide primality.  _MR_PSI[k - 1] is psi_k, the least strong
# pseudoprime to the first k prime bases (OEIS A014233; Jaeschke 1993).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
_MR_RANDOM_ROUNDS = 64


class BudgetExhausted(Exception):
    """Internal signal: the work meter ran dry mid-factorization."""


#: The stages that charge work units, in pipeline order.
STAGES = ("trial", "pm1_stage1", "rho", "pm1_stage2")


class WorkMeter:
    """Deterministic budget accounting in work units.

    `used` is the total; `by_stage` splits it over STAGES.
    """

    def __init__(self, total_units: int):
        self.total = total_units
        self.used = 0
        self.by_stage = dict.fromkeys(STAGES, 0)

    def charge(self, units: int, stage: str) -> None:
        self.used += units
        self.by_stage[stage] += units
        if self.used > self.total:
            raise BudgetExhausted


#: Largest trial_bound and pm1_b1: each sizes a prime sieve of about half
#: that many bytes (one flag per odd number) before any budget is charged.
#: It is below 2**32, so small_primes can pack its primes in 4 bytes.
MAX_SIEVE_BOUND = 10**8
#: Largest pm1_b2: stage 2 lists its (pm1_b2 / segment) segments up front.
MAX_PM1_B2 = 10**13


class _FactorPolicyFields(NamedTuple):
    trial_bound: int = 1_000_000
    rho_budget_ms: int = 4_000
    max_total_ms: int = 120_000
    pm1_b1: int = 1_000_000
    pm1_b2: int = 2_000_000_000
    seed: int = 1


class FactorPolicy(_FactorPolicyFields):
    """Budgets and knobs for the factorization pipeline.

    trial_bound   largest prime used for trial division
    rho_budget_ms per-attempt budget for one Brent-rho run (milliseconds)
    max_total_ms  overall budget for one factor() call (milliseconds)
    pm1_b1        Pollard p-1 stage-1 smoothness bound (0 disables p-1)
    pm1_b2        Pollard p-1 stage-2 bound: one multiplication per prime
                  in (pm1_b1, pm1_b2] (0 disables stage 2)
    seed          root of all pseudo-random parameter choices

    The fields are checked in __new__, which unpickling runs too; _make
    and _replace skip the checks, so the package never calls them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.trial_bound < 2:
            raise ValueError("trial_bound must be >= 2")
        if self.rho_budget_ms <= 0 or self.max_total_ms <= 0:
            raise ValueError("budgets must be positive")
        if self.pm1_b1 < 0 or self.pm1_b2 < 0:
            raise ValueError("p-1 bounds must be >= 0")
        if max(self.trial_bound, self.pm1_b1) > MAX_SIEVE_BOUND:
            raise ValueError(f"trial_bound and pm1_b1 must be <= "
                             f"{MAX_SIEVE_BOUND}")
        if self.pm1_b2 > MAX_PM1_B2:
            raise ValueError(f"pm1_b2 must be <= {MAX_PM1_B2}")
        return self


class _FactorizationFields(NamedTuple):
    target: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1


class Factorization(_FactorizationFields):
    """A (possibly partial) factorization: target = prod(p**e) * cofactor.

    Primes are strictly increasing, exponents >= 1, and cofactor is 1
    exactly when the factorization is complete.  The product identity is
    re-checked on construction, in __new__, as for FactorPolicy.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.target < 1:
            raise ValueError("target must be >= 1")
        if self.cofactor < 1:
            raise ValueError("cofactor must be >= 1")
        prod = self.cofactor
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            last = p
            prod *= p**e
        if prod != self.target:
            raise ValueError(
                "factorization does not multiply back to the "
                f"{self.target.bit_length()}-bit target"
            )
        return self

    @property
    def complete(self) -> bool:
        return self.cofactor == 1


@contextmanager
def big_int_strings():
    """Lift the int/str conversion limit inside the block, then restore it.

    Reports and printed values legitimately carry integers with thousands
    of digits (P_n itself, the exact K**(2**K) bound), and so do the seed
    strings of the Miller-Rabin bases and of rho's starts.  The caller's
    limit is restored on exit, whatever it was.
    """
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# primality


def _miller_rabin_round(n: int, a: int, d: int, s: int) -> bool:
    """True if n passes one Miller-Rabin round for base a."""
    a %= n
    if a == 0:
        return True
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Primality test; never reports a prime as composite.

    Deterministic for n below psi_13 ~ 3.3e24, with the first k bases of
    _MR_BASES for n < psi_k; beyond that, 64 Miller-Rabin rounds with
    bases drawn from a random.Random seeded with n, so the answer is
    reproducible and the error probability is below 4**-64.  That
    generator hashes its seed with its own SHA-512, so no hashlib (and no
    OpenSSL) is loaded here; only rho's starts load it.
    """
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRIME_PRODUCT) != 1:
        return n in _SMALL_PRIME_SCREEN
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases: Iterator[int] | tuple[int, ...]
    k = bisect.bisect_right(_MR_PSI, n)
    if k < len(_MR_PSI):
        bases = _MR_BASES[:k + 1]
    else:
        with big_int_strings():
            seed = f"pellcheck-mr:{n}"
        rng = random.Random(seed)
        bases = (rng.randrange(2, n - 1) for _ in range(_MR_RANDOM_ROUNDS))
    return all(_miller_rabin_round(n, a, d, s) for a in bases)


# ---------------------------------------------------------------------------
# prime sieves

#: Trial division takes one gcd per block of this many consecutive primes.
_TRIAL_BLOCK = 128


@functools.cache
def _trial_products(bound: int) -> list[int]:
    """The products of the blocks of small_primes(bound), cached per bound.
    Block i is small_primes(bound)[i * _TRIAL_BLOCK:(i + 1) * _TRIAL_BLOCK]
    (the last may be shorter)."""
    primes = small_primes(bound)
    return [math.prod(primes[lo:lo + _TRIAL_BLOCK])
            for lo in range(0, len(primes), _TRIAL_BLOCK)]


#: _segment_sieve clears at most this many flags per slice assignment, so
#: it builds no temporary near the size of a whole segment.
_SIEVE_RUN = 1 << 16


def _segment_sieve(lo: int, hi: int,
                   base: array[int]) -> tuple[int, bytearray]:
    """Prime flags for the odd numbers start, start + 2, ... <= hi.

    start is the least odd number above lo, and flags[i] is 1 exactly when
    start + 2*i is prime (for lo >= 1).  base must hold all primes
    <= sqrt(hi).
    """
    start = lo + 1
    if start % 2 == 0:
        start += 1
    count = (hi - start) // 2 + 1  # candidates start, start+2, ...
    flags = bytearray(b"\x01") * count
    zeros = memoryview(bytes(_SIEVE_RUN))
    for p in base:
        if p == 2:
            continue
        if p * p > hi:
            break
        first = ((start + p - 1) // p) * p
        if first < p * p:
            first = p * p
        if first % 2 == 0:
            first += p
        for i in range((first - start) // 2, count, p * _SIEVE_RUN):
            j = min(count, i + p * _SIEVE_RUN)
            flags[i:j:p] = zeros[:len(range(i, j, p))]
    return start, flags


@functools.cache
def small_primes(bound: int) -> array[int]:
    """All primes <= bound, cached per bound: 2, then the primes that the
    one odd-only sieve, _segment_sieve, flags in (1, bound].

    The table is a packed array("I"), 4 bytes per prime rather than a
    list's pointer plus int object; every bound is at most MAX_SIEVE_BOUND
    < 2**32.  Callers index, slice and iterate it, and must not mutate
    the cached table."""
    primes = array("I")
    if bound >= 2:
        start, flags = _segment_sieve(1, bound,
                                      small_primes(math.isqrt(bound)))
        primes.append(2)
        primes.extend(compress(range(start, bound + 1, 2), flags))
    return primes


_SMALL_PRIME_SCREEN = frozenset(small_primes(97))
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIME_SCREEN)


# ---------------------------------------------------------------------------
# splitting methods


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 2 or k == 1:
        return n
    if k >= n.bit_length():
        return 1
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power_split(n: int) -> Optional[int]:
    """Return r with r**k == n for some prime k, if n is a perfect power."""
    for k in small_primes(64):
        if k > n.bit_length():
            break
        r = _iroot(n, k)
        if r**k == n:
            return r
    return None


def _rho_rng(seed: int, n: int, attempt: int) -> random.Random:
    """The random source of one rho attempt, hashed from (seed, n, attempt).

    hashlib is imported here, its only use in the package, so a process
    that never runs rho never loads OpenSSL."""
    import hashlib

    with big_int_strings():
        text = f"pellcheck-rho:{seed}:{n}:{attempt}"
    h = hashlib.sha256(text.encode()).digest()
    return random.Random(int.from_bytes(h, "big"))


def _brent_rho(n: int, max_iters: int, rng: random.Random,
               meter: WorkMeter) -> Optional[int]:
    """One Brent-cycle rho attempt.

    Returns a proper divisor of n; n itself when the cycle closed without
    splitting n (a collision, which another start may avoid); or None when
    max_iters ran out first.
    """
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    iters = 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        iters += r
        meter.charge(r, "rho")
        if iters > max_iters:
            return None
        k = 0
        while k < r and g == 1:
            ys = y
            steps = min(m, r - k)
            for _ in range(steps):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += m
            iters += steps
            meter.charge(steps, "rho")
            if iters > max_iters:
                return None
        r *= 2
    if g == n:
        # the batched gcd overshot; replay the last block one step at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    return g


#: Stage 1 takes one gcd per chunk of the exponent: a run of consecutive
#: maximal prime powers whose product has at least this many bits.
_STAGE1_CHUNK_BITS = 1 << 15


@functools.cache
def _stage1_chunks(b1: int,
                   chunk_bits: int) -> list[tuple[tuple[int, ...], int]]:
    """The stage-1 exponent, the product of all maximal prime powers <= b1,
    cut into chunks in ascending prime order: (the chunk's prime powers,
    their product).  Every chunk but the last has at least chunk_bits
    bits."""
    chunks = []
    powers: list[int] = []
    product = 1
    for p in small_primes(b1):
        pk = p
        while pk * p <= b1:
            pk *= p
        powers.append(pk)
        product *= pk
        if product.bit_length() >= chunk_bits:
            chunks.append((tuple(powers), product))
            powers, product = [], 1
    if powers:
        chunks.append((tuple(powers), product))
    return chunks


def _pm1_stage1(n: int, b1: int,
                meter: WorkMeter) -> tuple[Optional[int], int]:
    """Pollard p-1 stage 1 with base 2.  Returns (divisor or None, residue
    for stage 2).

    The power of 2 is raised one chunk of the exponent at a time, with a
    gcd after each chunk.  A chunk that takes the gcd to n is replayed from
    the previous residue one prime power at a time, and the first proper
    divisor is returned; a prime power that takes the gcd from 1 straight
    to n gives (None, 0).  When no gcd exceeds 1 the residue is 2^E mod n,
    E the whole exponent.  Each power is charged half its bit length.
    """
    if n % 2 == 0:
        return 2, 0
    h = 2
    for powers, chunk in _stage1_chunks(b1, _STAGE1_CHUNK_BITS):
        meter.charge(chunk.bit_length() // 2 + 1, "pm1_stage1")
        h_next = pow(h, chunk, n)
        g = math.gcd(h_next - 1, n)
        if g == n:
            # several primes of n finished inside this chunk; backtrack
            for pk in powers:
                meter.charge(pk.bit_length() // 2 + 1, "pm1_stage1")
                h = pow(h, pk, n)
                g = math.gcd(h - 1, n)
                if g != 1:
                    break
        if g == n:
            return None, 0
        if g != 1:
            return g, 0
        h = h_next
    return None, h


#: Stage 2 takes one gcd per segment of this length.
_STAGE2_SEGMENT = 30_000_000

#: Giant-step length of the stage-2 walk (2*3*5*7*11).
_STAGE2_STEP = 2310


def _stage2_blocks(n: int, h: int, odd_powers: list[int], start: int,
                   flags: bytearray) -> Iterator[tuple[int, Iterator[int]]]:
    """Group a segment's primes q by K, the least multiple of
    D = _STAGE2_STEP with K >= q, and yield (h^K, the h^(K-q) of the
    group's primes, in q order).

    flags are _segment_sieve's flags for start, start + 2, ...;
    odd_powers is h^(D-1), h^(D-3), ..., h^1, which is h^(K-q) for the odd
    q = K-D+1, ..., K-1 of a block in turn.
    """
    step = _STAGE2_STEP
    k = -(-start // step) * step
    h_k = pow(h, k, n)
    h_step = odd_powers[0] * h % n
    i = 0
    while i < len(flags):
        r = k - start - 2 * i  # K - q for the block's first candidate q
        j = i + (r + 1) // 2
        yield h_k, compress(islice(odd_powers, (step - 1 - r) // 2, None),
                            flags[i:j])
        i = j
        k += step
        h_k = h_k * h_step % n


def _stage2_segment(n: int, h: int, b2: int,
                    bounds: tuple[int, int]) -> tuple[int, Optional[int]]:
    """Walk the primes q in one stage-2 segment (lo, hi] and take its gcd.

    Each prime costs one multiplication: acc *= h^K - h^(K-q), with K the
    least multiple of _STAGE2_STEP at or above q.  That term is
    h^(K-q) * (h^q - 1), and h is a unit mod n (stage 1 passes on only
    powers of a base prime to n), so gcd(acc, n) is the gcd of the plain
    product of the h^q - 1.

    Returns (number of primes, outcome), where outcome is 1 when the
    segment finds nothing, a proper divisor of n, or None when the gcd is
    n and the prime-by-prime replay finds no proper divisor either.
    """
    lo, hi = bounds
    h2 = h * h % n
    odd_powers = [h]
    for _ in range(_STAGE2_STEP // 2 - 1):
        odd_powers.append(odd_powers[-1] * h2 % n)
    odd_powers.reverse()
    start, flags = _segment_sieve(lo, hi, small_primes(math.isqrt(b2) + 1))
    acc = 1
    for h_k, lows in _stage2_blocks(n, h, odd_powers, start, flags):
        for low in lows:
            acc = acc * (h_k - low) % n
    primes = flags.count(1)
    g = math.gcd(acc, n)
    if g < n:
        return primes, g
    # several hits inside one segment; replay it prime by prime
    for h_k, lows in _stage2_blocks(n, h, odd_powers, start, flags):
        for low in lows:
            g = math.gcd(h_k - low, n)
            if 1 < g < n:
                return primes, g
    return primes, None


def _pm1_stage2(n: int, h: int, b1: int, b2: int,
                meter: WorkMeter) -> Optional[int]:
    """Pollard p-1 stage 2 over the primes q in (b1, b2], segment by segment.

    The segments are walked by pool.ordered_map, on one forked worker per
    available CPU, and their outcomes are read in segment order: each is
    charged 3 * primes + 1000 units, and the first that is not 1 is the
    result.  The divisor, the units charged and the point where
    BudgetExhausted is raised are therefore those of a serial walk, and
    every worker is killed when the walk ends, however it ends.
    """
    segments = [(lo, min(lo + _STAGE2_SEGMENT, b2))
                for lo in range(b1, b2, _STAGE2_SEGMENT)]
    walk = functools.partial(_stage2_segment, n, h, b2)
    with closing(pool.ordered_map(walk, segments, "p-1 stage-2")) as outcomes:
        for primes, outcome in outcomes:
            meter.charge(3 * primes + 1000, "pm1_stage2")
            if outcome != 1:
                return outcome
    return None


def _find_divisor(n: int, policy: FactorPolicy,
                  meter: WorkMeter) -> Optional[int]:
    """Find one nontrivial divisor of the composite n, or None."""
    r = _perfect_power_split(n)
    if r is not None:
        return r
    stage2_h = 0
    if policy.pm1_b1 >= 2:
        g, stage2_h = _pm1_stage1(n, policy.pm1_b1, meter)
        if g is not None:
            return g
    rho_iters = policy.rho_budget_ms * UNITS_PER_MS
    for attempt in range(3):
        g = _brent_rho(n, rho_iters, _rho_rng(policy.seed, n, attempt), meter)
        if g is None:
            break  # the budget ran out; a new start would cost as much
        if g != n:
            return g
        # a collision: try again from the next start
    if stage2_h and policy.pm1_b2 > policy.pm1_b1:
        return _pm1_stage2(n, stage2_h, policy.pm1_b1, policy.pm1_b2, meter)
    return None


# ---------------------------------------------------------------------------
# factor driver

OnPrime = Callable[[int, int], bool]


def factor(n: int, policy: FactorPolicy = FactorPolicy(), *,
           on_prime: Optional[OnPrime] = None,
           meter: Optional[WorkMeter] = None) -> Factorization:
    """Factor n under the policy's budgets.

    A nested generator yields each prime of what is left of n as it is
    confirmed, and one loop divides it out and records it.  Trial division
    by primes up to policy.trial_bound yields first, with the stops and
    the flat charge of one unit per 8 primes that the module docstring
    describes.  Then a stack of unsplit parts is popped, yielding primes
    and splitting composites; when the budget runs out, the primes still
    on the stack are yielded and the walk ends.
    `on_prime` is invoked as each prime factor is recorded, with the
    prime and its full exponent in n; returning True stops the
    factorization early, leaving whatever remains in the cofactor.
    A caller-supplied `meter` lets the work spent be read back afterwards.

    Budget exhaustion is never an error: the result simply carries a
    composite cofactor and complete == False.
    """
    if n < 1:
        raise ValueError("can only factor n >= 1")
    if meter is None:
        meter = WorkMeter(policy.max_total_ms * UNITS_PER_MS)
    # `remaining` is always the product of the not-yet-recorded parts of n,
    # so it is exactly the cofactor the moment we stop.
    remaining = n

    def confirmed_primes() -> Iterator[int]:
        """The primes of `remaining`, read afresh at each step."""
        if remaining == 1:
            return
        bound = policy.trial_bound
        primes = small_primes(bound)
        try:
            meter.charge(len(primes) // 8 + 1, "trial")
        except BudgetExhausted:
            if is_probable_prime(remaining):
                yield remaining
            return
        starts = range(0, len(primes), _TRIAL_BLOCK)
        for lo, product in zip(starts, _trial_products(bound)):
            if primes[lo] * primes[lo] > remaining:
                break  # also ends the walk once remaining is 1
            g = math.gcd(remaining, product)
            if g == 1:
                continue  # no prime of this block divides remaining
            # g is the product of the block's primes that divide
            # remaining: scan only until each is divided out
            for p in primes[lo:lo + _TRIAL_BLOCK]:
                if g % p:
                    continue
                g //= p
                yield p
                if remaining > 1 and is_probable_prime(remaining):
                    yield remaining  # the prime the stack would yield next
                if g == 1 or remaining == 1:
                    break
        pending = [remaining] if remaining > 1 else []
        while pending:
            m = pending.pop()
            if is_probable_prime(m):
                yield m
                continue
            try:
                g = _find_divisor(m, policy, meter)
            except BudgetExhausted:
                # m stays inside `remaining` as part of the cofactor
                yield from filter(is_probable_prime, reversed(pending))
                return
            if g is not None:  # else methods are exhausted on m
                pending.extend(sorted((g, m // g), reverse=True))

    found: dict[int, int] = {}
    for p in confirmed_primes():
        e = 0
        while remaining % p == 0:
            remaining //= p
            e += 1
        if e == 0:
            continue  # an earlier split already took p
        found[p] = e
        if on_prime is not None and on_prime(p, e):
            break

    return Factorization(n, tuple(sorted(found.items())), remaining)


# ---------------------------------------------------------------------------
# derived quantities


def euler_phi(f: Factorization) -> int:
    """Euler's totient from a complete factorization; phi(1) == 1."""
    if not f.complete:
        raise ValueError("totient is undefined for a partial factorization")
    phi = 1
    for p, e in f.factors:
        phi *= p ** (e - 1) * (p - 1)
    return phi


def nu2(n: int) -> int:
    """2-adic valuation of n >= 1 (count of trailing zero bits)."""
    if n < 1:
        raise ValueError("valuation of 0 is infinite")
    return (n & -n).bit_length() - 1
