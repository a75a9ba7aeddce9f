"""Integer machinery: primality, budgeted factorization, totient, valuations.

Factorization is policy-driven and budget-aware.  Budgets are given in
milliseconds but are converted internally to deterministic work units
(UNITS_PER_MS, calibrated once for a nominal desktop), so the outcome of a
factorization is a pure function of (N, policy) -- wall-clock jitter can
never flip a result, which keeps whole verification reports byte-identical
across runs with the same seed.

Every prime table, from the trial primes to ECM's stage-2 plan, comes
from one odd-only segmented sieve (Bays and Hudson, BIT 17, 1977), and
small_primes returns each of its tables as a packed array, 4 bytes per
prime.
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
tiers have a setting.

A composite that trial division leaves is split by perfect-power
detection, then by its least prime <= B1 = 3000 if a trial bound below
B1 left one, then by the elliptic-curve method (Lenstra, Ann. Math. 126,
1987) on Montgomery curves in x-only form, with Suyama's parametrisation
and a seeded random sigma per curve.  There is one Montgomery ladder,
from an affine x: stage 1 runs it from the curve's starting x over the
product of the maximal prime powers <= B1, to Q.  Stage 2 is a
baby-step/giant-step walk with D = 2310 over the primes in (B1, 100 B1]
(Montgomery, Math. Comp. 48, 1987; Zimmermann and Dodson, "20 years of
ECM", ANTS 2006).  The babies jQ, and the giants mDQ from the ladder run
from the normalised x of Q, are normalised by one batch inversion each,
so each pair m*D +- j takes one multiplication, by x_m - x_j.  A batch
whose Z are no units mod n gives their gcd: a giant mDQ = O mod a prime
p ends p there, where no term could.  Every curve is charged the same
units, 6 per ladder step and 1 per stage-2 term, 46,200 in all, and
takes about 69,400 modular multiplications: 43,300 in stage 1 (10 a
step), 20,226 for the terms and about 5,800 to build and normalise the
babies and giants.  So a unit is about 1.5 modular multiplications.
The curves run in batches through pool.ordered_map, the fork-worker map
the sweep in verifier also uses, and their outcomes are read in curve
order, so the divisor found and the work units are those of a serial
walk.
There is no setting for the bounds, the batch size or the worker count.

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
from itertools import chain, compress
from typing import Callable, Iterator, NamedTuple, Optional

from . import pool

#: Work units charged per nominal millisecond of budget.  One unit is
#: about 1.5 modular multiplications of ECM (see above); the constant
#: only needs to be fixed, not accurate, for results to be reproducible.
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
STAGES = ("trial", "ecm")


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


#: Largest trial_bound: it sizes a prime sieve of about half that many
#: bytes (one flag per odd number) before any budget is charged.  It is
#: below 2**32, so small_primes can pack its primes in 4 bytes.
MAX_SIEVE_BOUND = 10**8


class _FactorPolicyFields(NamedTuple):
    trial_bound: int = 1_000_000
    max_total_ms: int = 120_000
    seed: int = 1


class FactorPolicy(_FactorPolicyFields):
    """Budgets and knobs for the factorization pipeline.

    trial_bound   largest prime used for trial division
    max_total_ms  overall budget for one factor() call (milliseconds)
    seed          root of all pseudo-random parameter choices (ECM's curves)

    The fields are checked in __new__, which unpickling runs too; _make
    and _replace skip the checks, so the package never calls them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 2 <= self.trial_bound <= MAX_SIEVE_BOUND:
            raise ValueError(f"trial_bound must be in [2, {MAX_SIEVE_BOUND}]")
        if self.max_total_ms <= 0:
            raise ValueError("max_total_ms must be positive")
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
    strings of the Miller-Rabin bases and of ECM's curves.  The caller's
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
    reproducible and the error probability is below 4**-64.
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


#: ECM's stage-1 bound B1, stage-2 bound B2, giant step D = 2*3*5*7*11,
#: and curves per item of its fork map.
_ECM_B1 = 3000
_ECM_B2 = 100 * _ECM_B1
_ECM_D = 2310
_ECM_BATCH = 8


@functools.cache
def _ecm_tables() -> tuple[int, tuple[int, ...], list[tuple[int, ...]], int]:
    """What every curve shares, built on the first ECM call: (E, babies,
    plan, units).  E is the product of the maximal prime powers <= B1, and
    babies the odd j < D/2 prime to D.  plan[m - 1] holds the positions in
    babies of the j for which m*D + j or m*D - j is a prime in (B1, B2];
    each such prime is m*D +- j for one pair.  units is what a curve
    charges: 6 per stage-1 ladder step and 1 per stage-2 term."""
    exponent = math.lcm(*range(1, _ECM_B1 + 1))
    babies = tuple(j for j in range(1, _ECM_D // 2, 2)
                   if math.gcd(j, _ECM_D) == 1)
    rows: list[set[int]] = [set() for _ in range(_ECM_B2 // _ECM_D + 1)]
    primes = small_primes(_ECM_B2)
    for q in primes[bisect.bisect_right(primes, _ECM_B1):]:
        m = (q + _ECM_D // 2) // _ECM_D
        rows[m - 1].add(abs(q - m * _ECM_D))
    plan = [tuple(i for i, j in enumerate(babies) if j in row)
            for row in rows]
    units = 6 * (exponent.bit_length() - 1) + sum(map(len, plan))
    return exponent, babies, plan, units


def _xdbl(x: int, z: int, n: int, a24: int) -> tuple[int, int]:
    """2P on the Montgomery curve with (A + 2)/4 = a24, P = (x : z)."""
    s = (x + z) * (x + z) % n
    d = (x - z) * (x - z) % n
    return s * d % n, (s - d) * (d + a24 * (s - d) % n) % n


def _xadd(x1: int, z1: int, x2: int, z2: int, xd: int, zd: int,
          n: int) -> tuple[int, int]:
    """P1 + P2 from P1, P2 and their difference (xd : zd)."""
    u = (x1 - z1) * (x2 + z2) % n
    v = (x1 + z1) * (x2 - z2) % n
    return zd * ((u + v) * (u + v) % n) % n, xd * ((u - v) * (u - v) % n) % n


def _ladder(k: int, x: int, n: int, a24: int) -> tuple[int, int]:
    """kP = (X : Z) for k >= 1 by the Montgomery ladder from the affine x
    of P, with the residues of the ladder from (x : 1) whose steps are an
    _xadd of the pair (their difference is P) and an _xdbl of one of
    them.  It skips the multiplication by z = 1 and takes each sum and
    difference once: 10 modular multiplications a step."""
    s = (x + 1) * (x + 1) % n
    d = (x - 1) * (x - 1) % n
    t = s - d
    x1, z1, x2, z2 = x, 1, s * d % n, t * (d + a24 * t % n) % n
    for bit in bin(k)[3:]:
        s1 = x1 + z1
        d1 = x1 - z1
        s2 = x2 + z2
        d2 = x2 - z2
        u = d1 * s2 % n
        v = s1 * d2 % n
        w = u + v
        xa = w * w % n
        w = u - v
        za = x * (w * w % n) % n
        if bit == "1":  # (P1, P2) becomes (P1 + P2, 2 P2)
            s = s2 * s2 % n
            d = d2 * d2 % n
            t = s - d
            x1, z1 = xa, za
            x2, z2 = s * d % n, t * (d + a24 * t % n) % n
        else:  # (P1, P2) becomes (2 P1, P1 + P2)
            s = s1 * s1 % n
            d = d1 * d1 % n
            t = s - d
            x1, z1 = s * d % n, t * (d + a24 * t % n) % n
            x2, z2 = xa, za
    return x1, z1


def _normalise(points: list[tuple[int, int]], n: int) -> list[int] | int:
    """The affine x of each (X : Z) by one inversion (Montgomery's batch
    trick), or, if the product of the Z is no unit mod n, its gcd."""
    prefix = [1]  # the products of the Z, for one inversion
    for _, z in points:
        prefix.append(prefix[-1] * z % n)
    try:
        inv = pow(prefix[-1], -1, n)
    except ValueError:
        return math.gcd(prefix[-1], n)
    xs = [0] * len(points)
    for i in reversed(range(len(points))):
        xs[i] = points[i][0] * inv * prefix[i] % n
        inv = inv * points[i][1] % n
    return xs


def _ecm_curve(n: int, sigma: int) -> int:
    """One ECM curve on n, Suyama's at sigma, from its affine point x =
    u^3/v^3, u = sigma^2 - 5, v = 4 sigma: one inversion gives x and
    (A + 2)/4, and a denominator that is no unit mod n gives its gcd."""
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    den = 16 * u**3 * v**4 % n
    try:
        inv = pow(den, -1, n)
    except ValueError:
        return math.gcd(den, n)
    return _ecm_walk(n, 16 * u**6 * v * inv % n,
                     (v - u) ** 3 * (3 * u + v) * v**3 * inv % n)


def _ecm_walk(n: int, x: int, a24: int) -> int:
    """ECM's two stages from the affine point x, (A + 2)/4 = a24: 1, or
    the gcd found, a proper divisor of n or n.  Stage 1 is the ladder over
    E to Q.  Stage 2 normalises the babies jQ and the giants mDQ in one
    batch each, and multiplies up x_m - x_j over the plan's pairs, so a
    term vanishes mod a prime p of n when (mD +- j)Q = O mod p.  A batch
    whose Z are no units gives their gcd: a giant mDQ = O mod p ends p
    there, as no term x_m - x_j could."""
    exponent, babies, plan, _ = _ecm_tables()
    q = _ladder(exponent, x, n, a24)  # stage 1
    g = math.gcd(q[1], n)
    if g != 1:
        return g
    # jQ for odd j: (j + 2)Q = jQ + 2Q, with difference (j - 2)Q
    twice = _xdbl(*q, n, a24)
    odd = [q, _xadd(*q, *twice, *q, n)]
    while 2 * len(odd) <= babies[-1]:
        odd.append(_xadd(*odd[-1], *twice, *odd[-2], n))
    xs = _normalise([odd[j // 2] for j in babies], n)
    if isinstance(xs, int):
        return xs
    # mDQ for m = 1, ..., len(plan): DQ by the ladder from xs[0], the x
    # of Q (babies[0] = 1), then (m + 1)DQ = mDQ + DQ
    step = _ladder(_ECM_D, xs[0], n, a24)
    giants = [step, _xdbl(*step, n, a24)]
    while len(giants) < len(plan):
        giants.append(_xadd(*giants[-1], *step, *giants[-2], n))
    xm = _normalise(giants[:len(plan)], n)
    if isinstance(xm, int):
        return xm
    acc = 1
    for x_m, row in zip(xm, plan):
        for i in row:
            acc = acc * (x_m - xs[i]) % n
    return math.gcd(acc, n)


def _ecm_batch(n: int, seed: int, curves: int,
               first: int) -> tuple[int, Optional[int]]:
    """Curves first, first + 1, ..., at most _ECM_BATCH of them and none
    from `curves` on, until one splits n: (the curves run, the divisor or
    None).  Curve i takes sigma = random.Random(
    f"pellcheck-ecm:{seed}:{n}:{i}").randrange(6, n - 1)."""
    batch = range(first, min(first + _ECM_BATCH, curves))
    for i in batch:
        with big_int_strings():
            text = f"pellcheck-ecm:{seed}:{n}:{i}"
        g = _ecm_curve(n, random.Random(text).randrange(6, n - 1))
        if 1 < g < n:
            return i - first + 1, g
    return len(batch), None


def _find_divisor(n: int, policy: FactorPolicy,
                  meter: WorkMeter) -> Optional[int]:
    """Find one nontrivial divisor of the composite n, or None.

    After the perfect-power split, the least prime <= B1 that divides n,
    which only a trial bound below B1 leaves, is returned uncharged: ECM's
    stage 1 ends so small a prime on almost every curve, and when all of
    n's primes are that small, every curve gives n.  Otherwise ECM curves
    0, 1, ... run in batches until one splits n or the meter runs dry.
    The first batch runs here, so a composite it splits forks nothing;
    the rest go through pool.ordered_map.  Each curve of a batch is
    charged in turn, so the divisor, the units and the curve whose charge
    raises BudgetExhausted are those of a serial walk, and every worker is
    killed when the walk ends, however it ends.
    """
    r = _perfect_power_split(n)
    if r is not None:
        return r
    for p in small_primes(_ECM_B1):
        if n % p == 0:
            return p
    units = _ecm_tables()[3]
    curves = (meter.total - meter.used) // units + 1  # enough to run dry
    firsts = range(0, curves, _ECM_BATCH)
    walk = functools.partial(_ecm_batch, n, policy.seed, curves)
    rest = pool.ordered_map(walk, firsts[1:], "ECM")
    with closing(rest):
        for tried, g in chain(map(walk, firsts[:1]), rest):
            for _ in range(tried):
                meter.charge(units, "ecm")
            if g is not None:
                return g
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
