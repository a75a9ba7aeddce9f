"""Theorem-level verification: the finite index sweep and the bound chain.

`verify_range` reproduces the finite machine check (every Pell number up
to an index bound is screened for the Lehmer property, each from P_n
alone, with nothing carried from one index to another; the odd indices
are decided on forked workers through pool.ordered_map), while
`bound_chain`, `final_threshold` and `e8_threshold_check` evaluate the
asymptotic inequalities with certified interval arithmetic.  Reports are
deterministic: identical inputs, budgets and seed give byte-identical
structured output.  BoundReport, BoundsSummary, IndexReport,
VerificationReport and IdentitySuiteResult are NamedTuples; an
IndexReport compares and hashes its first eight fields only.
"""

from __future__ import annotations

import functools
import json
import os
import re
import tempfile
import time
from contextlib import closing
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Optional

from . import pool
from .arith import (
    UNITS_PER_MS,
    FactorPolicy,
    Factorization,
    WorkMeter,
    big_int_strings,
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
    ln_interval,
    lnln_interval,
)
from .lehmer import LehmerReason, LehmerStatus, LehmerVerdict, lehmer_check
from .sequences import digits10, pell_pair, pell_pairs, pell_residue

#: The version of the canonical report's layout, written as its "schema".
REPORT_SCHEMA = 2

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


@functools.cache
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
    return holding[-1] + 1


def e8_enclosure(bits: int = 48) -> Interval:
    """Certified enclosure of e**8."""
    return exp_interval(8, bits)


def e8_threshold_check() -> bool:
    """Certify 2980 < e**8 < 2981, and so e**8 < 3000.

    ln is increasing, so ln ln n < 3 ln 2 holds exactly when n < e**8:
    the integers it admits are exactly those up to 2980.
    """
    above = certify(lambda b: e8_enclosure(b).gt(2980))
    below = certify(lambda b: e8_enclosure(b).lt(2981))
    return above and below


class BoundReport(NamedTuple):
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

#: A canonical decimal numeral, as FactorCache writes one: ASCII digits
#: only, with no sign, underscore or leading zero.
_CACHE_INT = r"0|[1-9]\d*"
_CACHE_INT_RE = re.compile(_CACHE_INT, re.ASCII)
_CACHE_FACTOR_RE = re.compile(rf"({_CACHE_INT})\^({_CACHE_INT})", re.ASCII)
#: The most digits a cache index may have: P_n for n >= 10**12 has more
#: than 3.8e11 digits, so no record of such an index could ever be checked
#: against P_n.
_CACHE_INDEX_DIGITS = 12


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

    Loading re-validates each record against P_n (canonical ASCII
    numerals, their lengths before conversion, then sizes and the product
    mod a 61-bit prime, then the exact product identity and the primality
    of every listed prime); records that fail, including lines that are
    not UTF-8, are reported in `rejected`, quoting long numbers shortened,
    and discarded, never used.  Writing replaces the file atomically.
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
        index, *factor_tokens, cofactor_token, complete_token = tokens
        if not _CACHE_INT_RE.fullmatch(index):
            raise ValueError("index is not a decimal integer")
        # A valid record carries at least n - 1 bits, and each of its other
        # tokens accounts for fewer than 10**len(token) of them, so its
        # index takes less than half of the line.
        if 2 * len(index) > len(line):
            raise ValueError(f"index {_short(index)} is too long for its line")
        if len(index) > _CACHE_INDEX_DIGITS:
            raise ValueError(f"index {_short(index)} exceeds the "
                             f"{_CACHE_INDEX_DIGITS}-digit index cap")
        n = int(index)
        pn = f"P_{_short(index)}"
        if (not complete_token.startswith("complete=")
                or not cofactor_token.startswith("cofactor=")):
            raise ValueError("missing cofactor=/complete= trailer")
        # Sizes are checked before any value is converted or P_n computed,
        # against 2**(n-1) <= P_n < (1 + sqrt 2)**n < 2**(1.2716 n)
        # (P_1 = 1 and P_{k+1} >= 2 P_k).  So no value in a valid record
        # has more than max_digits digits, as 10**0.3828 > 1 + sqrt 2, and
        # no exponent reaches 2n.
        max_digits = 3828 * n // 10_000 + 1
        cofactor_text = cofactor_token[len("cofactor="):]
        if not _CACHE_INT_RE.fullmatch(cofactor_text):
            raise ValueError("cofactor is not a decimal integer")
        if len(cofactor_text) > max_digits:
            raise ValueError(f"cofactor {_short(cofactor_text)} exceeds {pn}")
        cofactor = int(cofactor_text)
        complete_flag = complete_token[len("complete="):]
        if complete_flag not in ("0", "1"):
            raise ValueError("complete flag must be 0 or 1")
        factors = []
        for tok in factor_tokens:
            m = _CACHE_FACTOR_RE.fullmatch(tok)
            if not m:
                raise ValueError(f"bad factor token {_short(tok)!r}")
            if len(m[1]) > max_digits or len(m[2]) > len(index) + 1:
                raise ValueError(f"{_short(tok)} exceeds {pn}")
            p, e = int(m[1]), int(m[2])
            # p**e >= 2**((bits(p)-1)*e): no power is built that is too
            # large to divide P_n
            if 10_000 * (p.bit_length() - 1) * e >= 12_716 * n:
                raise ValueError(f"{_short(tok)} exceeds {pn}")
            factors.append((p, e))
        bits = cofactor.bit_length() + sum(p.bit_length() * e
                                           for p, e in factors)
        if bits < n:
            raise ValueError(f"product below 2^{_short(bits)} is less than "
                             f"{pn} >= 2^{_short(n - 1)}")
        # a product that differs from P_n mod a 61-bit prime is refused
        # before P_n itself is built
        mod = _CACHE_CHECK_MODULUS
        residue = cofactor % mod
        for p, e in factors:
            residue = residue * pow(p, e, mod) % mod
        if residue != pell_residue(n, mod):
            raise ValueError(f"product differs from {pn} mod 2^61 - 1")
        target = pell_pair(n).p
        f = Factorization(target=target, factors=tuple(factors),
                          cofactor=cofactor)
        if (complete_flag == "1") != f.complete:
            raise ValueError("complete flag inconsistent with cofactor")
        for p, _ in f.factors:
            if not is_probable_prime(p):
                raise ValueError(f"listed factor {_short(p)} is not prime")
        return n, f

    def read_file(self, path: str) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        for lineno, raw in enumerate(data.splitlines(), start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                with big_int_strings():
                    n, f = self._parse_line(line)
            except (ValueError, OverflowError) as exc:
                # UnicodeDecodeError is a ValueError
                self.rejected.append(f"line {lineno}: {exc}")
                continue
            current = self.entries.get(n)
            self.entries[n] = f if current is None else _better(f, current)
            self.loaded += 1

    def write_file(self) -> None:
        if self.path is None:
            raise ValueError("no cache path configured")
        lines = []
        with big_int_strings():
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
            dir=os.path.dirname(os.path.abspath(self.path)),
            prefix=".pellcheck-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + ("\n" if lines else ""))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            os.unlink(tmp)
            raise


# ---------------------------------------------------------------------------
# per-index verification


def _evidence(verdict: LehmerVerdict) -> Optional[Factorization]:
    """The factor evidence a verdict leaves: its factorization, P^1 for a
    prime P, or None."""
    if (verdict.factorization is None
            and verdict.reason == LehmerReason.IS_PRIME):
        return Factorization(verdict.target, ((verdict.target, 1),))
    return verdict.factorization


class VerifyContext:
    """Where verify_index gets each verdict: decided here from P_n alone,
    or for the odd indices 3, 5, ... taken, in index order, from
    odd_verdicts, verify_range's ordered map of them."""

    def __init__(self, policy: FactorPolicy,
                 odd_verdicts: Optional[Iterator] = None):
        self.policy = policy
        self.odd_verdicts = odd_verdicts

    def seeds_for(self, n: int) -> tuple[int, ...]:
        return ()  # perfbench/child.py wraps this method by name

    def verdict(self, n: int,
                pell_n: int) -> tuple[LehmerVerdict, dict[str, int]]:
        """P_n's verdict and its work units by stage."""
        if self.odd_verdicts is not None and n % 2 == 1 and n >= 3:
            return next(self.odd_verdicts)
        meter = WorkMeter(self.policy.max_total_ms * UNITS_PER_MS)
        verdict = lehmer_check(pell_n, self.policy, meter=meter)
        return verdict, dict(meter.by_stage)


class IndexReport(NamedTuple):
    """Everything `verify_index` learned about one index.

    Equality and the hash cover the first eight fields only: elapsed_ms
    and decide_stage_units never decide whether two reports agree.
    """

    n: int
    pell_digits: int
    verdict: LehmerVerdict
    pq_relation_ok: bool
    nu2_lemma_ok: bool
    split_product_ok: Optional[bool]
    factors_found: tuple[tuple[int, int, int], ...]  # (prime, exp, mod 4)
    work_units: int
    elapsed_ms: float = 0.0
    # work_units split by stage, which verify_index always sets; kept out
    # of the canonical report
    decide_stage_units: Optional[dict[str, int]] = None

    def __eq__(self, other):
        if not isinstance(other, IndexReport):
            return NotImplemented
        return self[:8] == other[:8]

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self[:8])

    @property
    def identities_ok(self) -> bool:
        return (self.pq_relation_ok and self.nu2_lemma_ok
                and self.split_product_ok is not False)


def verify_index(n: int, policy: FactorPolicy = FactorPolicy(), *,
                 context: Optional[VerifyContext] = None) -> IndexReport:
    """Identity checks plus the staged Lehmer screen for one index.

    Even indices short-circuit: P_n is even there, so an even composite is
    rejected on parity alone and no factor harvesting is attempted.  The
    verdict comes from context.verdict: computed here, or taken from
    verify_range's ordered map, waiting for it if needed, so elapsed_ms
    is then the time this call waited.  Either way the verdict
    and work_units depend only on n and the policy, so a lone call gives
    the entry a sweep gives for n.
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
        split_ok = split_product_holds(pair.p, *split_pell_minus_one(n))

    verdict, decide_units = context.verdict(n, pair.p)

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
        work_units=sum(decide_units.values()),
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
        decide_stage_units=decide_units,
    )


# ---------------------------------------------------------------------------
# whole-run reports


class BoundsSummary(NamedTuple):
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


class VerificationReport(NamedTuple):
    """Aggregate outcome of verify_range; to_json gives its canonical
    report."""

    n_max: int
    policy: FactorPolicy
    indices: tuple[IndexReport, ...]
    bounds: BoundsSummary
    cache_path: Optional[str]
    cache_loaded: int
    cache_rejected: tuple[str, ...]
    cache_stored: int

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
        """True when the sweep fully decided every index, found nothing,
        and every identity check held."""
        return (not self.undecided_indices and not self.holds_indices
                and all(r.identities_ok for r in self.indices))

    @property
    def total_work_units(self) -> int:
        return sum(r.work_units for r in self.indices)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "n_max": self.n_max,
            "policy": self.policy._asdict(),
            "summary": {
                "status_counts": self.status_counts,
                "reason_counts": self.reason_counts,
                "undecided": list(self.undecided_indices),
                "holds": list(self.holds_indices),
                "reproduced": self.reproduced,
                "total_work_units": self.total_work_units,
            },
            "bounds": {**self.bounds._asdict(),
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

    # -- human rendering ----------------------------------------------------

    def human_table(self) -> str:
        rows = []
        for r in self.indices:
            evidence = ""
            if r.verdict.evidence is not None:
                evidence = _short(r.verdict.evidence)
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
                     else "NOT reproduced (undecided indices, Lehmer hits "
                          "or failed identities remain)")
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


def canonical_json(data: dict) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, newline-ended."""
    with big_int_strings():
        return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _short(v: int | str) -> str:
    """The text of v, or its head, tail and length once it is long."""
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
    process.  The odd indices from 3 up are decided by pool.ordered_map,
    whose workers end before this returns or raises; wherever it decides
    them, the report and the units per index are the same.
    If given, on_index is called with each IndexReport as soon as its index
    is done, in index order (the CLI's `verify -v` prints progress with
    it); it does not affect the report.  If given, cache receives each
    index's factor evidence after the sweep; the sweep itself never reads
    it, so no verdict depends on what the cache held.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    decide = VerifyContext(policy).verdict
    odd_verdicts = pool.ordered_map(
        lambda n: decide(n, pell_pair(n).p), range(3, n_max + 1, 2), "sweep")
    context = VerifyContext(policy, odd_verdicts)
    reports = []
    with closing(odd_verdicts):
        for n in range(1, n_max + 1):
            reports.append(verify_index(n, policy, context=context))
            if on_index is not None:
                on_index(reports[-1])
    if cache is not None:
        for r in reports:
            f = _evidence(r.verdict)
            if f is not None:
                cache.store(r.n, f)
    return VerificationReport(
        n_max=n_max,
        policy=policy,
        indices=tuple(reports),
        bounds=bounds_summary(),
        cache_path=cache.path if cache else None,
        cache_loaded=cache.loaded if cache else 0,
        cache_rejected=tuple(cache.rejected) if cache else (),
        cache_stored=cache.stored if cache else 0,
    )


# ---------------------------------------------------------------------------
# identity sweep (shared by the CLI and the acceptance suite)


class IdentitySuiteResult(NamedTuple):
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

    One walk of pell_pairs() feeds every check, and a lagging walk holds
    the pairs at (n - 1) / 2 and (n + 1) / 2 for the split, so the suite
    holds a constant number of values.
    """
    if nu2_n_max is None:
        nu2_n_max = n_max
    top = max(n_max, nu2_n_max)
    if top < 0:
        raise ValueError("index must be >= 0")
    pq_failures: list[str] = []
    valn_failures: list[str] = []
    odd_failures: list[str] = []
    split_ok = transfer_ok = True

    lagging = pell_pairs()
    window = (next(lagging), next(lagging))
    for n, (p, q) in enumerate(islice(pell_pairs(), top + 1)):
        if n <= n_max and not pq_relation_holds(n, p, q):
            pq_failures.append(f"pq_relation fails at n={n}")
        if 1 <= n <= nu2_n_max and not nu2_lemma_holds(n, p, q):
            valn_failures.append(f"nu2_lemma fails at n={n}")
        if n < 3 or n % 2 == 0 or n > n_max:
            continue
        window = (window[1], next(lagging))
        h = (n - 1) // 2
        a, b = split_indices(n)
        if not split_product_holds(p, window[a - h][0], window[b - h][1]):
            split_ok = False
            odd_failures.append(f"split_product fails at n={n}")
        if not nu2_transfer_holds(n, p):
            transfer_ok = False
            odd_failures.append(f"nu2_transfer fails at n={n}")

    return IdentitySuiteResult(
        n_max=n_max,
        nu2_n_max=nu2_n_max,
        pq_relation_ok=not pq_failures,
        split_product_ok=split_ok,
        nu2_lemma_ok=not valn_failures,
        nu2_transfer_ok=transfer_ok,
        failures=tuple(pq_failures + valn_failures + odd_failures),
    )
