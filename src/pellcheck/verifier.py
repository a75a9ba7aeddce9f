"""Theorem-level verification: the finite index sweep and the bound chain.

`verify_range` reproduces the finite machine check (every Pell number up
to an index bound is screened for the Lehmer property, with factor
evidence harvested structurally before any expensive splitting), while
`bound_chain`, `final_threshold` and `e8_threshold_check` evaluate the
asymptotic inequalities with certified interval arithmetic.  Reports are
deterministic: identical inputs, budgets and seed give byte-identical
structured output.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .arith import (
    STAGES,
    UNITS_PER_MS,
    FactorPolicy,
    Factorization,
    WorkMeter,
    _stage2_workers,
    factor,
    is_probable_prime,
    nu2,
)
from .identities import (nu2_lemma_holds, nu2_transfer_holds,
                         pq_relation_holds, split_indices,
                         split_pell_minus_one, split_product_holds)
from .intervals import (
    Interval,
    certify,
    exp_interval,
    ln2_interval,
    ln_interval,
    lnln_interval,
)
from .lehmer import LehmerReason, LehmerStatus, LehmerVerdict, lehmer_check
from .sequences import (digits10, pell_lucas_sequence, pell_pair,
                        pell_residue, pell_sequence)

#: Literature floor for the number of distinct prime factors of any Lehmer
#: number.  A configuration constant, not something this package proves.
LEHMER_OMEGA_MIN = 15

#: Refuse to materialize k**(2**k) beyond this many bits (~0.5 MB of value).
_POMERANCE_MAX_BITS = 1 << 22

#: The final-threshold inequality only matters below this ceiling: by the
#: time the argument reaches it, the candidate index is already certified
#: to be below e**8 < 3000.
_THRESHOLD_WINDOW = 3000


# ---------------------------------------------------------------------------
# certified inequality chain


def pomerance_rhs(k: int) -> int:
    """The exact size bound K**(2**K) for a hypothesized factor count K."""
    if k < 1:
        raise ValueError("k must be >= 1")
    bits_estimate = (2**k) * max(1, k.bit_length())
    if bits_estimate > _POMERANCE_MAX_BITS:
        raise ValueError(f"k={k} would need ~{bits_estimate} bits; too large")
    return k ** (2**k)


def _ineq_a_decide(n: int, k: int):
    """2**k * ln k > n/3, as an escalating certified comparison."""
    def decide(bits: int):
        lhs = ln_interval(k, bits) * (2**k)
        return lhs.gt(Fraction(n, 3))
    return decide


def _ineq_b_decide(n: int, k: int):
    """2**k > n / (4 ln ln n), rearranged to 2**(k+2) * lnln n > n."""
    def decide(bits: int):
        lhs = lnln_interval(n, bits) * (2 ** (k + 2))
        return lhs.gt(n)
    return decide


def _final_inequality_decide(a: int, b: int):
    """a**2 < 16 (a+1) (ln ln b)**2; with a == b, the final inequality at a.

    n**2/(n+1) and (ln ln n)**2 both increase for n >= 16, so a False
    verdict for a <= b proves that the final inequality fails for every n
    in [a, b].
    """
    def decide(bits: int):
        rhs = lnln_interval(b, bits).squared() * (16 * (a + 1))
        return rhs.gt(a * a)
    return decide


def final_inequality_holds(n: int) -> bool:
    """Certified check of n**2 < 16 (n+1) (ln ln n)**2 for n >= 16."""
    if n < 16:
        raise ValueError("needs n >= 16 so that ln ln n is safely positive")
    return certify(_final_inequality_decide(n, n))


_final_threshold_cache: Optional[int] = None


def final_threshold() -> int:
    """One more than the largest n >= 16 satisfying the final inequality.

    One bisection over [16, 3000): a block whose block comparison (see
    _final_inequality_decide) certifies False fails throughout and is
    dropped, any other block is halved, and each single n that certifies
    True is collected.  The collected n must be exactly 16, 17, ... with
    no gap.  Indices beyond the window are irrelevant because the
    surrounding argument has already forced n below e**8 < 3000 when this
    inequality is applied.
    """
    global _final_threshold_cache
    if _final_threshold_cache is not None:
        return _final_threshold_cache
    holding = []
    blocks = [(16, _THRESHOLD_WINDOW - 1)]
    while blocks:
        a, b = blocks.pop()
        if certify(_final_inequality_decide(a, b)):
            if a == b:
                holding.append(a)
            else:
                mid = (a + b) // 2
                blocks += [(mid + 1, b), (a, mid)]
    if not holding:
        raise AssertionError("final inequality never holds in the window")
    # blocks are taken lowest first, so holding is ascending
    for expected, n in enumerate(holding, start=16):
        if n != expected:
            raise AssertionError(f"satisfying set not contiguous at {n}")
    _final_threshold_cache = holding[-1] + 1
    return _final_threshold_cache


def e8_enclosure(bits: int = 48) -> Interval:
    """Certified enclosure of e**8."""
    return exp_interval(8, bits)


def e8_threshold_check() -> bool:
    """Certify e**8 < 3000 and the integer boundary around it.

    The boundary checks pin down that ln ln n < 3 ln 2 holds at n = 2980
    and fails at n = 2981, which (by monotonicity of ln) is the statement
    that the integers strictly below e**8 are exactly those up to 2980.
    """
    below_3000 = certify(lambda b: e8_enclosure(b).lt(3000))
    below = certify(lambda b: lnln_interval(2980, b).lt(ln2_interval(b) * 3))
    above = certify(lambda b: lnln_interval(2981, b).gt(ln2_interval(b) * 3))
    return below_3000 and below and above


@dataclass(frozen=True)
class BoundReport:
    """Certified evaluation of the proof's inequality chain at one (n, k).

    two_power_targets is the pair ((n-1)/2, (n+1)/2) for odd n (None for
    even n, where the factorization identity behind the requirement does
    not apply); two_power_satisfiable says whether 2**(2k-1) divides
    either target.
    """

    n: int
    k: int
    pomerance_rhs: int
    ineq_a_holds: bool
    ineq_b_holds: bool
    two_power_exponent: int
    two_power_targets: Optional[tuple[int, int]]
    two_power_satisfiable: bool
    two_power_min_index: int  # smallest odd index the requirement admits
    final_threshold: int


def bound_chain(n: int, k: int) -> BoundReport:
    """Evaluate the inequality chain at index n and factor count k.

    Requires n >= 16 (so ln ln n is positive with margin) and k >= 1.
    Every boolean is decided by escalating certified interval arithmetic.
    """
    if n < 16:
        raise ValueError("bound chain needs n >= 16")
    if k < 1:
        raise ValueError("k must be >= 1")
    rhs = pomerance_rhs(k)
    ineq_a = certify(_ineq_a_decide(n, k))
    ineq_b = certify(_ineq_b_decide(n, k))
    exponent = 2 * k - 1
    if n % 2 == 1:
        targets: Optional[tuple[int, int]] = ((n - 1) // 2, (n + 1) // 2)
        satisfiable = any(t > 0 and nu2(t) >= exponent for t in targets)
    else:
        targets = None
        satisfiable = False
    return BoundReport(
        n=n,
        k=k,
        pomerance_rhs=rhs,
        ineq_a_holds=ineq_a,
        ineq_b_holds=ineq_b,
        two_power_exponent=exponent,
        two_power_targets=targets,
        two_power_satisfiable=satisfiable,
        two_power_min_index=2 ** (exponent + 1) - 1,
        final_threshold=final_threshold(),
    )


# ---------------------------------------------------------------------------
# factor evidence cache

_CACHE_FACTOR_RE = re.compile(r"^(\d+)\^(\d+)$")


def _better(a: Factorization, b: Factorization) -> Factorization:
    """Prefer complete factorizations, then richer factor lists."""
    if a.complete != b.complete:
        return a if a.complete else b
    return a if len(a.factors) >= len(b.factors) else b


#: FactorCache checks each line's product against P_n modulo this prime
#: (the Mersenne prime 2**61 - 1) before building P_n.
_CACHE_CHECK_MODULUS = (1 << 61) - 1


class FactorCache:
    """Validated factor evidence for Pell indices, persisted line-by-line.

    File format, one record per line, decimal values:

        <n> <prime>^<exp> ... cofactor=<c> complete=<0|1>

    Loading re-validates each record against P_n (sizes and the product
    mod a 61-bit prime first, then the exact product identity and the
    primality of every listed prime); records that fail, including lines
    that are not UTF-8, are reported in `rejected` and discarded, never
    used.  Writing replaces the file atomically.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.entries: dict[int, Factorization] = {}
        self.rejected: list[str] = []
        self.loaded = 0
        self.stored = 0
        if path and os.path.exists(path):
            self.read_file(path)

    def load(self, n: int) -> Optional[Factorization]:
        return self.entries.get(n)

    def store(self, n: int, f: Factorization) -> None:
        """Insert or upgrade the entry for index n; invalid evidence raises."""
        expected = pell_pair(n).p
        if f.target != expected:
            raise ValueError(f"entry for index {n} has target != P_{n}")
        for p, _ in f.factors:
            if not is_probable_prime(p):
                raise ValueError(f"entry for index {n} lists non-prime {p}")
        current = self.entries.get(n)
        merged = f if current is None else _better(f, current)
        if current is not None and merged == current:
            return
        self.entries[n] = merged
        self.stored += 1

    def _parse_line(self, line: str) -> tuple[int, Factorization]:
        tokens = line.split()
        if len(tokens) < 3:
            raise ValueError("too few fields")
        if not tokens[0].isdigit():
            raise ValueError("index is not a decimal integer")
        n = int(tokens[0])
        if not tokens[-1].startswith("complete=") or not tokens[-2].startswith("cofactor="):
            raise ValueError("missing cofactor=/complete= trailer")
        cofactor = int(tokens[-2][len("cofactor="):])
        complete_flag = tokens[-1][len("complete="):]
        if complete_flag not in ("0", "1"):
            raise ValueError("complete flag must be 0 or 1")
        # Sizes are checked before P_n is computed, against
        # 2**(n-1) <= P_n < (1 + sqrt 2)**n < 2**(1.2716 n)
        # (P_1 = 1 and P_{k+1} >= 2 P_k).
        factors = []
        for tok in tokens[1:-2]:
            m = _CACHE_FACTOR_RE.match(tok)
            if not m:
                raise ValueError(f"bad factor token {tok!r}")
            p, e = int(m.group(1)), int(m.group(2))
            # p**e >= 2**((bits(p)-1)*e): no power is built that is too
            # large to divide P_n
            if 10_000 * (p.bit_length() - 1) * e >= 12_716 * n:
                raise ValueError(f"{p}^{e} exceeds P_{n}")
            factors.append((p, e))
        bits = cofactor.bit_length() + sum(p.bit_length() * e
                                           for p, e in factors)
        if bits < n:
            raise ValueError(f"product below 2^{bits} is less than "
                             f"P_{n} >= 2^{n - 1}")
        # a product that differs from P_n mod a 61-bit prime is refused
        # before P_n itself is built
        mod = _CACHE_CHECK_MODULUS
        residue = cofactor % mod
        for p, e in factors:
            residue = residue * pow(p, e, mod) % mod
        if residue != pell_residue(n, mod):
            raise ValueError(f"product differs from P_{n} mod 2^61 - 1")
        target = pell_pair(n).p
        f = Factorization(target=target, factors=tuple(factors),
                          cofactor=cofactor)
        if (complete_flag == "1") != f.complete:
            raise ValueError("complete flag inconsistent with cofactor")
        for p, _ in f.factors:
            if not is_probable_prime(p):
                raise ValueError(f"listed factor {p} is not prime")
        return n, f

    def read_file(self, path: str) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        for lineno, raw in enumerate(data.splitlines(), start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                n, f = self._parse_line(line)
            except (ValueError, OverflowError) as exc:
                # UnicodeDecodeError is a ValueError
                self.rejected.append(f"line {lineno}: {exc}")
                continue
            current = self.entries.get(n)
            self.entries[n] = f if current is None else _better(f, current)
            self.loaded += 1

    def write_file(self, path: Optional[str] = None) -> None:
        path = path or self.path
        if path is None:
            raise ValueError("no cache path configured")
        lines = []
        for n in sorted(self.entries):
            f = self.entries[n]
            parts = [str(n)]
            parts.extend(f"{p}^{e}" for p, e in f.factors)
            parts.append(f"cofactor={f.cofactor}")
            parts.append(f"complete={1 if f.complete else 0}")
            lines.append(" ".join(parts))
        # a temp file in the same directory, renamed over the old file, so
        # that a failed or interrupted write leaves the old file intact
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)), prefix=".pellcheck-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + ("\n" if lines else ""))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


# ---------------------------------------------------------------------------
# per-index verification

_DIVISOR_CANDIDATE_CAP = 4096


def _bounded_divisors(powers: dict[int, int], cap: int) -> list[int]:
    """Divisors of prod(p**e), deterministically capped to the cap smallest."""
    divs = [1]
    for p in sorted(powers):
        block = []
        for d in divs:
            v = d
            for _ in range(powers[p] + 1):
                block.append(v)
                v *= p
        divs = sorted(block)[:cap]
    return divs


def _evidence(verdict: LehmerVerdict) -> Optional[Factorization]:
    """The factor evidence a verdict leaves: its factorization, P^1 for a
    prime P, or None."""
    if (verdict.factorization is None
            and verdict.reason == LehmerReason.IS_PRIME):
        return Factorization(verdict.target, ((verdict.target, 1),))
    return verdict.factorization


class VerifyContext:
    """Shared factor knowledge across the indices of one verification run."""

    def __init__(self, policy: FactorPolicy):
        self.policy = policy
        # structural seeding never deserves deep splitting budgets
        self.seed_policy = replace(
            policy,
            rho_budget_ms=min(policy.rho_budget_ms, 1000),
            max_total_ms=min(policy.max_total_ms, 8000),
            pm1_b2=0,
        )
        self.pell_known: dict[int, Factorization] = {}
        self.q_known: dict[int, Factorization] = {}
        #: work units spent on seeding so far, per stage
        self.seed_units = dict.fromkeys(STAGES, 0)

    def _budgeted_factor(self, value: int) -> Factorization:
        meter = WorkMeter(self.seed_policy.max_total_ms * UNITS_PER_MS)
        result = factor(value, self.seed_policy, meter=meter)
        for stage, units in meter.by_stage.items():
            self.seed_units[stage] += units
        return result

    def pell_factors(self, idx: int) -> Factorization:
        hit = self.pell_known.get(idx)
        if hit is None:
            hit = self._budgeted_factor(pell_pair(idx).p)
            self.pell_known[idx] = hit
        return hit

    def q_factors(self, idx: int) -> Factorization:
        hit = self.q_known.get(idx)
        if hit is None:
            hit = self._budgeted_factor(pell_pair(idx).q)
            self.q_known[idx] = hit
        return hit

    def remember(self, n: int, verdict: LehmerVerdict) -> None:
        f = _evidence(verdict)
        if f is None:
            return
        current = self.pell_known.get(n)
        self.pell_known[n] = f if current is None else _better(f, current)

    def seeds_for(self, n: int, pell_n: int) -> tuple[int, ...]:
        """Primes known to divide P_n before any direct factoring effort.

        Two structural sources: factors of P_d for proper divisors d of n
        (P_d divides P_n), and divisor-plus-one candidates built from the
        factored parts of P_n - 1 (any prime p with (p-1) | (P_n - 1) that
        divides P_n is a legitimate harvest; witnesses can never surface
        here, by construction, but square factors and full factorizations
        can).
        """
        seeds: set[int] = set()
        for d in _proper_divisors(n):
            seeds.update(self.pell_factors(d).primes())
        if n % 2 == 1 and n >= 3:
            p_index, q_index = split_indices(n)
            powers: dict[int, int] = {}
            for p, e in (self.pell_factors(p_index).factors
                         + self.q_factors(q_index).factors):
                powers[p] = powers.get(p, 0) + e
            for d in _bounded_divisors(powers, _DIVISOR_CANDIDATE_CAP):
                c = d + 1
                if 1 < c < pell_n and pell_n % c == 0 and is_probable_prime(c):
                    seeds.add(c)
        return tuple(sorted(seeds))

    def verdict(self, n: int, pell_n: int) -> tuple[LehmerVerdict,
                                                     dict[str, int],
                                                     dict[str, int]]:
        """Seed and decide P_n in this process.

        Returns the verdict and the units spent seeding and deciding it,
        by stage; the verdict's evidence is remembered for later indices.
        """
        seed_units_before = dict(self.seed_units)
        seeds = self.seeds_for(n, pell_n) if n % 2 == 1 and pell_n > 1 else ()
        meter = WorkMeter(self.policy.max_total_ms * UNITS_PER_MS)
        verdict = lehmer_check(pell_n, self.policy, seeds=seeds, meter=meter)
        self.remember(n, verdict)
        seed_units = {stage: units - seed_units_before[stage]
                      for stage, units in self.seed_units.items()}
        return verdict, seed_units, dict(meter.by_stage)


def _sweep_task(policy: FactorPolicy, task: tuple[str, int],
                pell_known: dict[int, Factorization],
                q_known: dict[int, Factorization]):
    """One task of a pooled sweep, run in a worker with the factor
    knowledge it reads.

    ("P", a) and ("Q", b) factor P_a and Q_b under the seeding budget and
    return (factorization, seed units); ("index", n) seeds and decides P_n
    and returns what VerifyContext.verdict returns.
    """
    context = VerifyContext(policy)
    context.pell_known.update(pell_known)
    context.q_known.update(q_known)
    kind, idx = task
    if kind == "P":
        return context.pell_factors(idx), context.seed_units
    if kind == "Q":
        return context.q_factors(idx), context.seed_units
    return context.verdict(idx, pell_pair(idx).p)


def _serve(conn) -> None:
    """A sweep worker: run each task the caller sends and send back
    (True, result) or (False, (exception, its traceback)), until the
    caller kills it."""
    import signal
    import traceback

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops workers
    while True:
        task = conn.recv()
        try:
            reply = True, _sweep_task(*task)
        except Exception as exc:
            reply = False, (exc, traceback.format_exc())
        conn.send(reply)


class _SweepPool(VerifyContext):
    """A VerifyContext that seeds and decides the odd indices 3..n_max on
    forked worker processes.

    The tasks are the budgeted factorizations of the P_a (even a > 2) and
    Q_b that the splits P_n - 1 = P_a * Q_b read, each computed once, and
    each odd index's seeding and decision, which reads the evidence of its
    odd proper divisors and its split halves.  Every task depends only on
    lower indices.  Tasks start in index order, each as soon as a worker is
    idle and what it reads is known.  A factorization's units are charged
    to the lowest index that reads it, as the serial memo charges them, so
    every verdict and unit count is that of an in-process sweep.  A task
    that raises is raised again when the sweep reaches the index it is
    charged to, so every lower index is reported first, as in-process.
    The workers are not daemonic, so p-1 stage 2 inside them still forks
    its own workers.  Each worker leads its own process group, and close()
    kills each group: the worker and any stage-2 workers it runs end at
    once, with no signal handler that could miss the signal.  The workers
    are forked, as stage 2's are, before this process starts any thread.
    """

    def __init__(self, policy: FactorPolicy, n_max: int, workers: int):
        import multiprocessing

        super().__init__(policy)
        #: (index charged, task, pell indices read, Q indices read)
        self.pending: list[tuple[int, tuple[str, int], tuple[int, ...],
                                 tuple[int, ...]]] = []
        listed = set()
        for n in range(3, n_max + 1, 2):
            a, b = split_indices(n)
            for task in (("P", a), ("Q", b)):
                # P_2 = 2 is prime, so index 2's verdict already carries it
                if task != ("P", 2) and task not in listed:
                    listed.add(task)
                    self.pending.append((n, task, (), ()))
            self.pending.append((n, ("index", n),
                                 (*_proper_divisors(n), a), (b,)))
        self.charged: dict[int, dict[str, int]] = {}
        self.results: dict[int, tuple] = {}
        #: index charged -> (exception, traceback) of a task that raised
        self.failed: dict[int, tuple] = {}
        self.running: dict = {}  # connection -> (index charged, task)
        self.workers: list = []  # (process, connection)
        fork = multiprocessing.get_context("fork")
        try:
            for _ in range(min(workers, len(self.pending))):
                conn, child = fork.Pipe()
                proc = fork.Process(target=_serve, args=(child,))
                proc.start()
                self.workers.append((proc, conn))
                child.close()
                # before any task is sent, so stage-2 workers join it too
                os.setpgid(proc.pid, proc.pid)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Kill every worker with its process group and wait for it."""
        import signal

        for proc, _ in self.workers:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # gone, or not yet a group leader
                proc.kill()
        for proc, conn in self.workers:
            proc.join()
            conn.close()

    def _start(self) -> None:
        """Give each idle worker the first task, in index order, whose
        inputs are known."""
        for _, conn in self.workers:
            if conn in self.running:
                continue
            for i, (n, task, reads_p, reads_q) in enumerate(self.pending):
                if (all(d in self.pell_known for d in reads_p)
                        and all(b in self.q_known for b in reads_q)):
                    break
            else:
                return
            del self.pending[i]
            conn.send((self.policy, task,
                       {d: self.pell_known[d] for d in reads_p},
                       {b: self.q_known[b] for b in reads_q}))
            self.running[conn] = (n, task)

    def _collect(self) -> None:
        """Wait for running tasks to finish and record their results."""
        from multiprocessing.connection import wait

        busy = {conn: proc for proc, conn in self.workers
                if conn in self.running}
        ready = wait([*busy, *(proc.sentinel for proc in busy.values())])
        done = [conn for conn in busy if conn in ready]
        if not done:
            raise RuntimeError("a sweep worker exited")
        for conn in done:
            ok, result = conn.recv()
            n, (kind, idx) = self.running.pop(conn)
            if not ok:
                self.failed[n] = result
                continue
            if kind == "index":
                self.results[idx] = result
                self.remember(idx, result[0])
                continue
            factors, units = result
            (self.pell_known if kind == "P" else self.q_known)[idx] = factors
            charged = self.charged.setdefault(n, dict.fromkeys(STAGES, 0))
            for stage, u in units.items():
                charged[stage] += u

    def verdict(self, n: int, pell_n: int) -> tuple[LehmerVerdict,
                                                     dict[str, int],
                                                     dict[str, int]]:
        """Index n's verdict and units, from the pool for odd n >= 3."""
        if n % 2 == 0 or n < 3:
            return super().verdict(n, pell_n)
        while n not in self.results:
            if n in self.failed:
                # raised only now, so every lower index is reported first
                exc, trace = self.failed.pop(n)
                raise exc from RuntimeError(f"in a sweep worker:\n{trace}")
            self._start()
            self._collect()
        verdict, seed_units, decide_units = self.results.pop(n)
        charged = self.charged.pop(n, {})
        return verdict, {stage: units + charged.get(stage, 0)
                         for stage, units in seed_units.items()}, decide_units


def _proper_divisors(n: int) -> list[int]:
    """Divisors d of n with 2 <= d < n, ascending."""
    small, large = [], []
    for i in range(2, math.isqrt(n) + 1):
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
    return small + large[::-1]


@dataclass(frozen=True)
class IndexReport:
    """Everything `verify_index` learned about one index."""

    n: int
    pell_digits: int
    verdict: LehmerVerdict
    pq_relation_ok: bool
    nu2_lemma_ok: bool
    split_product_ok: Optional[bool]
    factors_found: tuple[tuple[int, int, int], ...]  # (prime, exp, mod 4)
    work_units: int
    elapsed_ms: float = field(compare=False, default=0.0)
    # work_units split by stage, for seeding and for deciding; kept out of
    # the canonical report
    seed_stage_units: dict[str, int] = field(compare=False,
                                             default_factory=dict)
    decide_stage_units: dict[str, int] = field(compare=False,
                                               default_factory=dict)

    @property
    def identities_ok(self) -> bool:
        return (self.pq_relation_ok and self.nu2_lemma_ok
                and self.split_product_ok is not False)


def verify_index(n: int, policy: FactorPolicy = FactorPolicy(), *,
                 context: Optional[VerifyContext] = None) -> IndexReport:
    """Identity checks plus the staged Lehmer screen for one index.

    Even indices short-circuit: P_n is even there, so an even composite is
    rejected on parity alone and no factor harvesting is attempted.  The
    verdict comes from context.verdict: computed here for a VerifyContext,
    or taken from verify_range's pool, waiting for it if needed, so
    elapsed_ms is then the time this call waited.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    if context is None:
        context = VerifyContext(policy)
    t0 = time.perf_counter()
    pair = pell_pair(n)

    pq_ok = pq_relation_holds(n, pair.p, pair.q)
    nu2_ok = nu2_lemma_holds(n, pair.p, pair.q)
    split_ok: Optional[bool] = None
    if n % 2 == 1 and n >= 3:
        split_pell_minus_one(n)  # raises if the product fails
        split_ok = True

    verdict, seed_units, decide_units = context.verdict(n, pair.p)

    factors: tuple[tuple[int, int, int], ...] = ()
    if verdict.factorization is not None:
        factors = tuple(
            (p, e, p % 4) for p, e in verdict.factorization.factors
        )
    return IndexReport(
        n=n,
        pell_digits=digits10(pair.p),
        verdict=verdict,
        pq_relation_ok=pq_ok,
        nu2_lemma_ok=nu2_ok,
        split_product_ok=split_ok,
        factors_found=factors,
        work_units=sum(seed_units.values()) + sum(decide_units.values()),
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
        seed_stage_units=seed_units,
        decide_stage_units=decide_units,
    )


# ---------------------------------------------------------------------------
# whole-run reports


@dataclass(frozen=True)
class BoundsSummary:
    """Bound-chain facts attached to every verification report."""

    e8_below_3000: bool
    e8_lo: Fraction
    e8_hi: Fraction
    final_threshold: int
    omega_floor: int
    two_power_exponent: int
    two_power_min_index: int  # smallest odd n the 2-power requirement allows


def bounds_summary() -> BoundsSummary:
    enclosure = e8_enclosure()
    exponent = 2 * LEHMER_OMEGA_MIN - 1
    return BoundsSummary(
        e8_below_3000=e8_threshold_check(),
        e8_lo=enclosure.lo,
        e8_hi=enclosure.hi,
        final_threshold=final_threshold(),
        omega_floor=LEHMER_OMEGA_MIN,
        two_power_exponent=exponent,
        two_power_min_index=2 ** (exponent + 1) - 1,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate outcome of verify_range, serializable both ways."""

    schema: int
    n_max: int
    policy: FactorPolicy
    indices: tuple[IndexReport, ...]
    bounds: BoundsSummary
    cache_path: Optional[str]
    cache_loaded: int
    cache_rejected: tuple[str, ...]
    cache_stored: int
    elapsed_ms: float = field(compare=False, default=0.0)

    @property
    def status_counts(self) -> dict[str, int]:
        counts = {s.value: 0 for s in LehmerStatus}
        for r in self.indices:
            counts[r.verdict.status.value] += 1
        return counts

    @property
    def reason_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.indices:
            key = r.verdict.reason.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def undecided_indices(self) -> tuple[int, ...]:
        return tuple(r.n for r in self.indices
                     if r.verdict.status == LehmerStatus.UNDECIDED)

    @property
    def holds_indices(self) -> tuple[int, ...]:
        return tuple(r.n for r in self.indices
                     if r.verdict.status == LehmerStatus.HOLDS)

    @property
    def reproduced(self) -> bool:
        """True when the sweep fully decided every index and found nothing."""
        return not self.undecided_indices and not self.holds_indices

    @property
    def total_work_units(self) -> int:
        return sum(r.work_units for r in self.indices)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "n_max": self.n_max,
            "policy": asdict(self.policy),
            "summary": {
                "status_counts": self.status_counts,
                "reason_counts": self.reason_counts,
                "undecided": list(self.undecided_indices),
                "holds": list(self.holds_indices),
                "reproduced": self.reproduced,
                "total_work_units": self.total_work_units,
            },
            "bounds": {**asdict(self.bounds),
                       "e8_lo": str(self.bounds.e8_lo),
                       "e8_hi": str(self.bounds.e8_hi)},
            "cache": {
                "path": self.cache_path,
                "loaded": self.cache_loaded,
                "rejected": list(self.cache_rejected),
                "stored": self.cache_stored,
            },
            "indices": [_index_to_dict(r) for r in self.indices],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @staticmethod
    def from_dict(data: dict) -> "VerificationReport":
        bounds = data["bounds"]
        return VerificationReport(
            schema=data["schema"],
            n_max=data["n_max"],
            policy=FactorPolicy(**data["policy"]),
            indices=tuple(_index_from_dict(d) for d in data["indices"]),
            bounds=BoundsSummary(**{**bounds,
                                    "e8_lo": Fraction(bounds["e8_lo"]),
                                    "e8_hi": Fraction(bounds["e8_hi"])}),
            cache_path=data["cache"]["path"],
            cache_loaded=data["cache"]["loaded"],
            cache_rejected=tuple(data["cache"]["rejected"]),
            cache_stored=data["cache"]["stored"],
        )

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        return VerificationReport.from_dict(parse_json(text))

    # -- human rendering ----------------------------------------------------

    def human_table(self) -> str:
        rows = []
        for r in self.indices:
            evidence = ""
            if r.verdict.evidence is not None:
                evidence = _short_int(r.verdict.evidence)
            rows.append({
                "n": str(r.n),
                "digits": str(r.pell_digits),
                "status": r.verdict.status.value,
                "reason": r.verdict.reason.value,
                "evidence": evidence,
                "factors": str(len(r.factors_found)),
                "identities": "ok" if r.identities_ok else "FAIL",
                "ms": f"{r.elapsed_ms:.0f}",
            })
        lines = [_format_table(rows)]
        counts = self.status_counts
        lines.append(
            f"indices 1..{self.n_max}: "
            f"{counts['holds']} Lehmer, {counts['undecided']} undecided, "
            f"{counts['rejected']} rejected, "
            f"{counts['not_composite']} not composite"
        )
        lines.append(
            f"bound chain: e8 in ({float(self.bounds.e8_lo):.4f}, "
            f"{float(self.bounds.e8_hi):.4f}) < 3000: "
            f"{self.bounds.e8_below_3000}; final threshold "
            f"{self.bounds.final_threshold}; omega floor "
            f"{self.bounds.omega_floor}; 2-power requirement needs index >= "
            f"{self.bounds.two_power_min_index}"
        )
        if self.cache_path:
            lines.append(
                f"cache {self.cache_path}: {self.cache_loaded} loaded, "
                f"{len(self.cache_rejected)} rejected, "
                f"{self.cache_stored} stored"
            )
        lines.append("paper reproduced" if self.reproduced
                     else "NOT reproduced (undecided or Lehmer hits remain)")
        return "\n".join(lines)


def _index_to_dict(r: IndexReport) -> dict:
    v = r.verdict
    d: dict = {
        "n": r.n,
        "pell_digits": r.pell_digits,
        "status": v.status.value,
        "reason": v.reason.value,
        "evidence": v.evidence,
        "identity_checks": {
            "pq_relation": r.pq_relation_ok,
            "nu2_lemma": r.nu2_lemma_ok,
            "split_product": r.split_product_ok,
        },
        "factors": [[p, e, res] for p, e, res in r.factors_found],
        "cofactor": v.factorization.cofactor if v.factorization else None,
        "work_units": r.work_units,
    }
    return d


def _index_from_dict(d: dict) -> IndexReport:
    pair = pell_pair(d["n"])
    factors = tuple((p, e) for p, e, _ in d["factors"])
    factorization = None
    if d["cofactor"] is not None:
        factorization = Factorization(
            target=pair.p, factors=factors, cofactor=d["cofactor"]
        )
    verdict = LehmerVerdict(
        target=pair.p,
        status=LehmerStatus(d["status"]),
        reason=LehmerReason(d["reason"]),
        evidence=d["evidence"],
        factorization=factorization,
    )
    return IndexReport(
        n=d["n"],
        pell_digits=d["pell_digits"],
        verdict=verdict,
        pq_relation_ok=d["identity_checks"]["pq_relation"],
        nu2_lemma_ok=d["identity_checks"]["nu2_lemma"],
        split_product_ok=d["identity_checks"]["split_product"],
        factors_found=tuple((p, e, res) for p, e, res in d["factors"]),
        work_units=d["work_units"],
    )


def canonical_json(data: dict) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, newline-ended."""
    with big_int_strings():
        return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def parse_json(text: str) -> dict:
    """json.loads that tolerates very large embedded integers."""
    with big_int_strings():
        return json.loads(text)


@contextmanager
def big_int_strings():
    """Lift the int/str conversion limit inside the block, then restore it.

    Reports and printed values legitimately carry integers with thousands
    of digits (P_n itself, the exact K**(2**K) bound).  The caller's limit
    is restored on exit, whatever it was.
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


def _short_int(v: int) -> str:
    s = str(v)
    if len(s) <= 24:
        return s
    return f"{s[:10]}...{s[-6:]}({len(s)}d)"


def _format_table(rows: list[dict[str, str]]) -> str:
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    widths = {c: max(len(c), max(len(r[c]) for r in rows)) for c in cols}
    header = "  ".join(c.rjust(widths[c]) for c in cols)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append("  ".join(r[c].rjust(widths[c]) for c in cols))
    return "\n".join(lines)


def verify_range(n_max: int, policy: FactorPolicy = FactorPolicy(),
                 cache: Optional[FactorCache] = None,
                 on_index: Optional[Callable[[IndexReport], None]] = None,
                 ) -> VerificationReport:
    """Run verify_index over 1..n_max and aggregate everything.

    The run reproduces the finite machine check exactly when every index
    comes back not_composite or rejected -- zero undecided, zero holds.
    verify_index is called once per index, in index order, in this
    process.  The odd indices from 3 up are seeded and decided on a fork
    pool of one worker per available CPU (see _SweepPool), started here
    and ended before this returns or raises; with one CPU, in a daemonic
    process or without fork, VerifyContext does the same work in this
    process.  Both give the same report and the same units per index.
    If given, on_index is called with each IndexReport as soon as its index
    is done, in index order (the CLI's `verify -v` prints progress with
    it); it does not affect the report.  If given, cache receives each
    index's factor evidence after the sweep; the sweep itself never reads
    it, so no verdict depends on what the cache held.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    t0 = time.perf_counter()
    workers = _stage2_workers() if n_max >= 3 else 1
    context = (_SweepPool(policy, n_max, workers) if workers > 1
               else VerifyContext(policy))
    reports = []
    try:
        for n in range(1, n_max + 1):
            reports.append(verify_index(n, policy, context=context))
            if on_index is not None:
                on_index(reports[-1])
    finally:
        if workers > 1:
            context.close()
    if cache is not None:
        for r in reports:
            f = _evidence(r.verdict)
            if f is not None:
                cache.store(r.n, f)
    return VerificationReport(
        schema=1,
        n_max=n_max,
        policy=policy,
        indices=tuple(reports),
        bounds=bounds_summary(),
        cache_path=cache.path if cache else None,
        cache_loaded=cache.loaded if cache else 0,
        cache_rejected=tuple(cache.rejected) if cache else (),
        cache_stored=cache.stored if cache else 0,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# identity sweep (shared by the CLI and the acceptance suite)


@dataclass(frozen=True)
class IdentitySuiteResult:
    n_max: int
    nu2_n_max: int
    pq_relation_ok: bool
    split_product_ok: bool
    nu2_lemma_ok: bool
    nu2_transfer_ok: bool
    failures: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return not self.failures


def run_identity_suite(n_max: int,
                       nu2_n_max: Optional[int] = None) -> IdentitySuiteResult:
    """Exhaustively check the executable identities up to the given bounds.

    Covers: the companion relation Q_n^2 - 8 P_n^2 = +/-4 (n <= n_max);
    the P_n - 1 product split for odd n (3 <= n <= n_max); the valuation
    rules nu2(Q_n) = 1, nu2(P_n) = nu2(n) (n <= nu2_n_max, defaulting to
    n_max); and the derived transfer nu2(P_n - 1) = nu2(n - eps) for odd
    n, eps = +1 when n = 1 mod 4 and -1 when n = 3 mod 4.
    """
    if nu2_n_max is None:
        nu2_n_max = n_max
    top = max(n_max, nu2_n_max)
    failures: list[str] = []
    pq_ok = split_ok = valn_ok = transfer_ok = True

    ps = pell_sequence(top)
    qs = pell_lucas_sequence(top)

    for n in range(0, n_max + 1):
        if not pq_relation_holds(n, ps[n], qs[n]):
            pq_ok = False
            failures.append(f"pq_relation fails at n={n}")
    for n in range(1, nu2_n_max + 1):
        if not nu2_lemma_holds(n, ps[n], qs[n]):
            valn_ok = False
            failures.append(f"nu2_lemma fails at n={n}")
    for n in range(3, n_max + 1, 2):
        a, b = split_indices(n)
        if not split_product_holds(ps[n], ps[a], qs[b]):
            split_ok = False
            failures.append(f"split_product fails at n={n}")
        if not nu2_transfer_holds(n, ps[n]):
            transfer_ok = False
            failures.append(f"nu2_transfer fails at n={n}")

    return IdentitySuiteResult(
        n_max=n_max,
        nu2_n_max=nu2_n_max,
        pq_relation_ok=pq_ok,
        split_product_ok=split_ok,
        nu2_lemma_ok=valn_ok,
        nu2_transfer_ok=transfer_ok,
        failures=tuple(failures),
    )
