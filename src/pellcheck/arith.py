"""Integer machinery: primality, budgeted factorization, totient, valuations.

Factorization is policy-driven and budget-aware.  Budgets are given in
milliseconds but are converted internally to deterministic work units
(UNITS_PER_MS, calibrated once for a nominal desktop), so the outcome of a
factorization is a pure function of (N, policy) -- wall-clock jitter can
never flip a result, which keeps whole verification reports byte-identical
across runs with the same seed.

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
cost as much again.  Stage 2 walks its segments on forked workers, one
per available CPU (_stage2_workers, which the sweep's own pool in
verifier also uses), each with its own pipe, and reads their outcomes in
segment order, so its result and its work units are those of a serial
walk; the workers are killed with SIGKILL when the walk ends.  There is
no setting for the worker count.  Elliptic curves and sieve methods are
deliberately out of scope.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import random
from dataclasses import dataclass
from enum import Enum
from itertools import compress, islice
from typing import Callable, Iterator, Optional

#: Work units charged per nominal millisecond of budget.  One unit is
#: roughly one rho iteration on a desktop core; the constant only needs to
#: be fixed, not accurate, for results to be reproducible.
UNITS_PER_MS = 3000

# Deterministic Miller-Rabin witness set: correct for all N below this
# bound (first 13 primes as bases).
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_RANDOM_ROUNDS = 64

_SMALL_PRIME_SCREEN = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)


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


@dataclass(frozen=True)
class FactorPolicy:
    """Budgets and knobs for the factorization pipeline.

    trial_bound   largest prime used for trial division
    rho_budget_ms per-attempt budget for one Brent-rho run (milliseconds)
    max_total_ms  overall budget for one factor() call (milliseconds)
    pm1_b1        Pollard p-1 stage-1 smoothness bound (0 disables p-1)
    pm1_b2        Pollard p-1 stage-2 bound: one multiplication per prime
                  in (pm1_b1, pm1_b2] (0 disables stage 2)
    seed          root of all pseudo-random parameter choices
    """

    trial_bound: int = 1_000_000
    rho_budget_ms: int = 4_000
    max_total_ms: int = 120_000
    pm1_b1: int = 1_000_000
    pm1_b2: int = 2_000_000_000
    seed: int = 1

    def __post_init__(self):
        if self.trial_bound < 2:
            raise ValueError("trial_bound must be >= 2")
        if self.rho_budget_ms <= 0 or self.max_total_ms <= 0:
            raise ValueError("budgets must be positive")
        if self.pm1_b1 < 0 or self.pm1_b2 < 0:
            raise ValueError("p-1 bounds must be >= 0")


#: Deliberately starved policy, handy for exercising `undecided` outcomes.
TINY_POLICY = FactorPolicy(
    trial_bound=100, rho_budget_ms=1, max_total_ms=10, pm1_b1=0, pm1_b2=0
)


@dataclass(frozen=True)
class Factorization:
    """A (possibly partial) factorization: target = prod(p**e) * cofactor.

    Primes are strictly increasing, exponents >= 1, and cofactor is 1
    exactly when the factorization is complete.  The product identity is
    re-checked on construction.
    """

    target: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    def __post_init__(self):
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

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


class Squarefree(str, Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


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


def _hashed_bases(n: int, count: int) -> Iterator[int]:
    """Deterministic, platform-stable pseudo-random bases derived from n."""
    span = n - 3
    for i in range(count):
        h = hashlib.sha256(f"pellcheck-mr:{n}:{i}".encode()).digest()
        yield 2 + int.from_bytes(h, "big") % span


def is_probable_prime(n: int) -> bool:
    """Primality test; never reports a prime as composite.

    Deterministic (fixed witness set) for n below ~3.3e24; beyond that,
    64 Miller-Rabin rounds with bases derived from a hash of n, so the
    answer is reproducible and the error probability is below 4**-64.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIME_SCREEN:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases: Iterator[int] | tuple[int, ...]
    if n < _MR_DETERMINISTIC_BOUND:
        bases = _MR_BASES
    else:
        bases = _hashed_bases(n, _MR_RANDOM_ROUNDS)
    return all(_miller_rabin_round(n, a, d, s) for a in bases)


# ---------------------------------------------------------------------------
# prime sieves

_sieve_cache: dict[int, list[int]] = {}


def small_primes(bound: int) -> list[int]:
    """All primes <= bound, cached per bound."""
    cached = _sieve_cache.get(bound)
    if cached is not None:
        return cached
    if bound < 2:
        primes: list[int] = []
    else:
        bs = bytearray(b"\x01") * (bound + 1)
        bs[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(bound) + 1):
            if bs[p]:
                start = p * p
                bs[start::p] = b"\x00" * ((bound - start) // p + 1)
        primes = [i for i in range(2, bound + 1) if bs[i]]
    _sieve_cache[bound] = primes
    return primes


#: _segment_sieve clears at most this many flags per slice assignment, so
#: it builds no temporary near the size of a whole segment.
_SIEVE_RUN = 1 << 16


def _segment_sieve(lo: int, hi: int, base: list[int]) -> tuple[int, bytearray]:
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
    h = hashlib.sha256(f"pellcheck-rho:{seed}:{n}:{attempt}".encode()).digest()
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

_stage1_chunk_cache: dict[tuple[int, int],
                          list[tuple[tuple[int, ...], int]]] = {}


def _stage1_chunks(b1: int) -> list[tuple[tuple[int, ...], int]]:
    """The stage-1 exponent, the product of all maximal prime powers <= b1,
    cut into chunks in ascending prime order: (the chunk's prime powers,
    their product).  Every chunk but the last has at least
    _STAGE1_CHUNK_BITS bits."""
    key = (b1, _STAGE1_CHUNK_BITS)
    chunks = _stage1_chunk_cache.get(key)
    if chunks is not None:
        return chunks
    chunks = []
    powers: list[int] = []
    product = 1
    for p in small_primes(b1):
        pk = p
        while pk * p <= b1:
            pk *= p
        powers.append(pk)
        product *= pk
        if product.bit_length() >= _STAGE1_CHUNK_BITS:
            chunks.append((tuple(powers), product))
            powers, product = [], 1
    if powers:
        chunks.append((tuple(powers), product))
    _stage1_chunk_cache[key] = chunks
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
    for powers, chunk in _stage1_chunks(b1):
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


def _stage2_workers() -> int:
    """How many processes may walk stage-2 segments (or, in verifier,
    sweep tasks) at once: the CPUs this process may run on, or 1 where it
    cannot fork pool workers (a daemonic process may not have children;
    some platforms lack fork)."""
    import multiprocessing

    if (multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _stage2_serve(conn, walk: Callable, segments: list) -> None:
    """A stage-2 worker: walk the given segments in turn and send each
    outcome, until the caller kills it."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops workers
    for bounds in segments:
        conn.send(walk(bounds))


def _receive(conn):
    """The next outcome a stage-2 worker sent."""
    try:
        return conn.recv()
    except EOFError:
        raise RuntimeError("a p-1 stage-2 worker exited") from None


def _pm1_stage2(n: int, h: int, b1: int, b2: int,
                meter: WorkMeter) -> Optional[int]:
    """Pollard p-1 stage 2 over the primes q in (b1, b2], segment by segment.

    The segments run on forked workers, one per available CPU (or in this
    process, with one CPU or one segment).  Worker i walks segments i,
    i + workers, ... and sends each outcome down its own pipe, and the
    outcomes are read strictly in segment order: each is charged
    3 * primes + 1000 units, and the first that is not 1 is the result.
    The divisor, the units charged and the point where BudgetExhausted is
    raised are therefore those of a serial walk.  Every worker is killed
    with SIGKILL and joined on every exit, so none outlives the call and
    no signal handler it inherited can delay its end.  The workers fork
    rather than spawn: spawn re-runs the caller's __main__ in every
    worker, which recurses in a script that has no __main__ guard.
    """
    segments = [(lo, min(lo + _STAGE2_SEGMENT, b2))
                for lo in range(b1, b2, _STAGE2_SEGMENT)]
    walk = functools.partial(_stage2_segment, n, h, b2)
    workers = min(_stage2_workers(), len(segments))
    procs, conns = [], []
    try:
        if workers > 1:
            import multiprocessing

            fork = multiprocessing.get_context("fork")
            for i in range(workers):
                conn, child = fork.Pipe(duplex=False)
                conns.append(conn)
                proc = fork.Process(target=_stage2_serve,
                                    args=(child, walk, segments[i::workers]))
                proc.start()
                procs.append(proc)
                child.close()
            outcomes = (_receive(conns[i % workers])
                        for i in range(len(segments)))
        else:
            outcomes = map(walk, segments)
        for primes, outcome in outcomes:
            meter.charge(3 * primes + 1000, "pm1_stage2")
            if outcome != 1:
                return outcome
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
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
           seeds: tuple[int, ...] = (),
           on_prime: Optional[OnPrime] = None,
           meter: Optional[WorkMeter] = None) -> Factorization:
    """Factor n under the policy's budgets.

    Trial division by primes up to policy.trial_bound runs first, then the
    splitting pipeline attacks what remains.  `seeds` are primes already
    known to divide n (re-verified by division; a bad seed raises).
    `on_prime` is invoked as each prime factor is confirmed, with the
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
    found: dict[int, int] = {}
    # `remaining` is always the product of the not-yet-recorded parts of n,
    # so it is exactly the cofactor the moment we stop.
    remaining = n
    stopped = False

    def record(p: int) -> bool:
        """Divide p out of `remaining` fully; True means stop early."""
        nonlocal remaining
        e = 0
        while remaining % p == 0:
            remaining //= p
            e += 1
        if e == 0:
            return False  # already fully accounted via an earlier split
        found[p] = found.get(p, 0) + e
        return on_prime is not None and on_prime(p, found[p])

    for p in sorted(set(seeds)):
        if n % p != 0:
            raise ValueError(f"seed {p} does not divide {n}")
        if not is_probable_prime(p):
            raise ValueError(f"seed {p} is not prime")
        if record(p):
            stopped = True
            break

    budget_dead = False
    if not stopped and remaining > 1:
        bound = policy.trial_bound
        try:
            meter.charge(len(small_primes(bound)) // 8 + 1, "trial")
        except BudgetExhausted:
            budget_dead = True
        if not budget_dead:
            for p in small_primes(bound):
                if p * p > remaining:
                    break
                if remaining % p == 0 and record(p):
                    stopped = True
                    break
            if not stopped and 1 < remaining < (bound + 1) ** 2:
                # every prime factor left exceeds bound, so a composite
                # remainder would be >= (bound+1)^2; this one is prime.
                # (strict: remaining == (bound+1)^2 can be a prime square)
                stopped = record(remaining)

    pending = [remaining] if not stopped and remaining > 1 else []
    while pending and not stopped:
        m = pending.pop()
        if is_probable_prime(m):
            stopped = record(m)
            continue
        if budget_dead:
            continue  # m stays inside `remaining` as part of the cofactor
        try:
            g = _find_divisor(m, policy, meter)
        except BudgetExhausted:
            budget_dead = True
            continue
        if g is None:
            continue  # methods exhausted on this composite
        pending.extend(sorted((g, m // g), reverse=True))

    factors = tuple(sorted(found.items()))
    return Factorization(target=n, factors=factors, cofactor=remaining)


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


def omega(f: Factorization) -> int:
    """Number of distinct prime divisors; requires completeness."""
    if not f.complete:
        raise ValueError("omega is undefined for a partial factorization")
    return len(f.factors)


def nu2(n: int) -> int:
    """2-adic valuation of n >= 1 (count of trailing zero bits)."""
    if n < 1:
        raise ValueError("valuation of 0 is infinite")
    return (n & -n).bit_length() - 1


def nu_p(n: int, p: int) -> int:
    """p-adic valuation of n >= 1 for prime p."""
    if n < 1:
        raise ValueError("valuation of 0 is infinite")
    if p == 2:
        return nu2(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def is_squarefree(f: Factorization) -> Squarefree:
    """Tri-state squarefreeness from possibly partial factor data.

    A repeated listed prime settles NO even when the factorization is
    incomplete; YES needs completeness; anything else is UNKNOWN.
    """
    if any(e >= 2 for _, e in f.factors):
        return Squarefree.NO
    if f.complete:
        return Squarefree.YES
    return Squarefree.UNKNOWN
