"""Output checks for the benchmark that share no code with pellcheck.

Nothing here imports pellcheck.  Pell values come from this file's own
recurrence, primality from sympy, real-valued comparisons from mpmath at
high precision, and Euler's totient from a segmented sieve.  Each check
returns a list of failure strings; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

import mpmath
import sympy

_PELL: list[int] = [0, 1]

#: Statuses a verdict may carry for each reason.
_REASON_STATUS = {
    "is_unit": "not_composite",
    "is_prime": "not_composite",
    "even": "rejected",
    "not_squarefree": "rejected",
    "factor_witness": "rejected",
    "full_check_failed": "rejected",
}

#: Decimal digits used for every mpmath comparison.
_DPS = 60


def pell(n: int) -> int:
    """P_n from P_0 = 0, P_1 = 1, P_{k+2} = 2 P_{k+1} + P_k."""
    while len(_PELL) <= n:
        _PELL.append(2 * _PELL[-1] + _PELL[-2])
    return _PELL[n]


def digits(x: int) -> int:
    """Decimal digits of x > 0, without str() and its size limit."""
    d = max(1, int(x.bit_length() * 0.30102999566398120))
    while 10 ** (d - 1) > x:
        d -= 1
    while 10 ** d <= x:
        d += 1
    return d


def v2(t: int) -> int:
    """2-adic valuation of t > 0."""
    return (t & -t).bit_length() - 1


_prime_memo: dict[int, bool] = {}


def is_prime(p: int) -> bool:
    hit = _prime_memo.get(p)
    if hit is None:
        hit = _prime_memo[p] = bool(sympy.isprime(p))
    return hit


# ---------------------------------------------------------------------------
# verdict evidence, shared by the sweep and lehmer-range checks


def check_evidence(value: int, status: str, reason: str, evidence,
                   prime: bool) -> list[str]:
    """Check one verdict on `value` against the definition of its reason.

    `prime` is the oracle's own primality answer for `value`.  A verdict
    that says `holds` or `undecided`, or carries a reason this file does
    not know, is a failure: no Pell number and no integer in the checked
    ranges has the Lehmer property, and every one must be decided.
    """
    want = _REASON_STATUS.get(reason)
    if want is None:
        return [f"reason {reason!r} with status {status!r} is not accepted"]
    if status != want:
        return [f"reason {reason} needs status {want}, got {status}"]
    if reason == "is_unit":
        return [] if value == 1 else [f"is_unit on {value}"]
    if reason == "is_prime":
        return [] if prime else [f"is_prime on composite {value}"]
    if value == 1 or prime:
        return [f"{reason} on non-composite {value}"]
    if reason == "even":
        return [] if value % 2 == 0 else [f"even on odd {value}"]
    if reason == "full_check_failed":
        return []  # the caller checks phi(N) against N - 1 itself
    if not isinstance(evidence, int) or evidence < 2 or not is_prime(evidence):
        return [f"{reason} evidence {evidence!r} is not a prime"]
    p = evidence
    if reason == "not_squarefree":
        return [] if value % (p * p) == 0 else [f"{p}^2 does not divide"]
    if value % p != 0:
        return [f"witness {p} does not divide"]
    if (value - 1) % (p - 1) == 0:
        return [f"witness {p}: (p-1) divides N-1"]
    return []


# ---------------------------------------------------------------------------
# the bound chain


_threshold_memo: list[int] = []


def final_threshold() -> int:
    """One more than the largest n in [16, 3000) with n^2 < 16(n+1)(ln ln n)^2.

    Raises if the satisfying set is not an initial block of the window.
    """
    if not _threshold_memo:
        with mpmath.workdps(_DPS):
            holds = [n for n in range(16, 3000)
                     if n * n < 16 * (n + 1) * mpmath.log(mpmath.log(n)) ** 2]
        if not holds or holds != list(range(16, holds[-1] + 1)):
            raise AssertionError("final inequality set is not 16..m")
        _threshold_memo.append(holds[-1] + 1)
    return _threshold_memo[0]


def check_bounds_summary(bounds: dict) -> list[str]:
    """The bound-chain block that every verify report carries."""
    errors = []
    with mpmath.workdps(_DPS):
        e8 = mpmath.e ** 8
        lo = Fraction(bounds["e8_lo"])
        hi = Fraction(bounds["e8_hi"])
        inside = (mpmath.mpf(lo.numerator) / lo.denominator < e8
                  < mpmath.mpf(hi.numerator) / hi.denominator)
    if not inside:
        errors.append("e8 enclosure does not contain e^8")
    if bounds["e8_below_3000"] is not True:
        errors.append("e8_below_3000 is not true")
    if bounds["final_threshold"] != final_threshold():
        errors.append(f"final_threshold {bounds['final_threshold']} "
                      f"!= {final_threshold()}")
    exp = bounds["two_power_exponent"]
    if exp != 2 * bounds["omega_floor"] - 1:
        errors.append("two_power_exponent != 2 * omega_floor - 1")
    if bounds["two_power_min_index"] != 2 ** (exp + 1) - 1:
        errors.append("two_power_min_index != 2^(exponent+1) - 1")
    return errors


def check_bounds_call(n: int, k: int, out: dict) -> list[str]:
    """Output of `pellcheck bounds --n n --k k --format structured`."""
    errors = []
    with mpmath.workdps(_DPS):
        ineq_a = 2 ** k * mpmath.log(k) > mpmath.mpf(n) / 3
        ineq_b = 2 ** k > n / (4 * mpmath.log(mpmath.log(n)))
    exponent = 2 * k - 1
    targets = [(n - 1) // 2, (n + 1) // 2] if n % 2 else None
    satisfiable = bool(targets) and any(
        t > 0 and v2(t) >= exponent for t in targets)
    rhs = k ** (2 ** k)
    expected = {
        "n": n,
        "k": k,
        "pomerance_rhs": rhs,
        "pomerance_rhs_digits": digits(rhs),
        "ineq_a_holds": bool(ineq_a),
        "ineq_b_holds": bool(ineq_b),
        "two_power_exponent": exponent,
        "two_power_targets": targets,
        "two_power_satisfiable": satisfiable,
        "two_power_min_index": 2 ** (exponent + 1) - 1,
        "final_threshold": final_threshold(),
    }
    for key, want in expected.items():
        if out.get(key) != want:
            shown = out.get(key)
            if isinstance(shown, int) and shown > 10 ** 30:
                shown = f"<{digits(shown)}-digit integer>"
            errors.append(f"bounds n={n} k={k}: {key} = {shown!r}")
    return errors


def check_identities_call(m: int, rc: int, out: dict) -> list[str]:
    """Output of `pellcheck identities --n-max m --format structured`."""
    errors = []
    if rc != 0:
        errors.append(f"identities exited {rc}")
    if out.get("n_max") != m:
        errors.append(f"identities n_max {out.get('n_max')} != {m}")
    if out.get("all_ok") is not True or out.get("failures"):
        errors.append(f"identities not all_ok: {out.get('failures')}")
    return errors


# ---------------------------------------------------------------------------
# the sweep


def _check_factors(n: int, value: int, entry: dict) -> list[str]:
    errors = []
    factors = entry["factors"]
    cofactor = entry["cofactor"]
    if cofactor is None:
        return ["factors listed without a cofactor"] if factors else []
    product = cofactor
    for item in factors:
        p, e, residue = item
        if not is_prime(p):
            errors.append(f"listed factor {p} is not prime")
        if e < 1 or residue != p % 4:
            errors.append(f"listed factor {p}: bad exponent or residue")
        if n % 2 == 1 and p % 4 != 1:
            errors.append(f"factor {p} of odd-index P_n is not 1 mod 4")
        product *= p ** e
    if product != value:
        errors.append("factors times cofactor do not give P_n")
    return errors


def check_sweep_entry(n: int, entry: dict) -> list[str]:
    """Every check on one index of a verify report."""
    value = pell(n)
    errors = []
    if entry.get("n") != n:
        return [f"expected index {n}, got {entry.get('n')}"]
    if entry["pell_digits"] != len(str(value)):
        errors.append("pell_digits is wrong")
    reason, status = entry["reason"], entry["status"]
    prime = value > 1 and is_prime(value)
    errors += check_evidence(value, status, reason, entry["evidence"], prime)
    errors += _check_factors(n, value, entry)
    if reason == "full_check_failed":
        phi = 1
        for p, e, _ in entry["factors"]:
            phi *= p ** (e - 1) * (p - 1)
        if entry["cofactor"] != 1 or (value - 1) % phi == 0:
            errors.append("full_check_failed without a complete failing phi")
    want_split = True if n % 2 == 1 and n >= 3 else None
    checks = entry["identity_checks"]
    if (checks["pq_relation"] is not True or checks["nu2_lemma"] is not True
            or checks["split_product"] is not want_split):
        errors.append(f"identity checks wrong: {checks}")
    return [f"n={n}: {e}" for e in errors]


def _check_summary(report: dict, n_max: int) -> list[str]:
    errors = []
    entries = report["indices"]
    if len(entries) != n_max or report["n_max"] != n_max:
        errors.append(f"report covers {len(entries)} indices, want {n_max}")
    summary = report["summary"]
    statuses = {k: v for k, v in summary["status_counts"].items() if v}
    if summary["reason_counts"] != dict(Counter(e["reason"] for e in entries)):
        errors.append("summary reason_counts disagree with the entries")
    if statuses != dict(Counter(e["status"] for e in entries)):
        errors.append("summary status_counts disagree with the entries")
    if summary["holds"] != [] or summary["undecided"] != [] \
            or summary["reproduced"] is not True:
        errors.append("summary does not say reproduced with 0 holds, "
                      "0 undecided")
    if summary["total_work_units"] != sum(e["work_units"] for e in entries):
        errors.append("total_work_units is not the sum over indices")
    return errors + check_bounds_summary(report["bounds"])


def check_cache_block(report: dict, path, lines: int) -> list[str]:
    """The report's `cache` block: the file read and what it gave.

    With a cache file of `lines` records at `path`, every record must have
    been loaded and none rejected; without one (`path` None), nothing.
    """
    cache = report["cache"]
    if cache["path"] != path or cache["loaded"] != lines \
            or cache["rejected"] != []:
        return [f"cache block {cache['path']!r}: {cache['loaded']} loaded, "
                f"{len(cache['rejected'])} rejected; want {path!r} with "
                f"{lines} loaded, 0 rejected"]
    return []


def check_sweep_report(text: str, n_max: int,
                       cache: tuple = (None, 0)) -> tuple[int, list[str]]:
    """Check a `verify --format structured` report.

    `cache` is the (path, record count) of the cache file the run was given,
    or (None, 0).  Returns (failed_indices, errors).  An index fails when
    its own entry is wrong, malformed or missing; the summary, the cache
    and the bound-chain blocks add errors without failing an index.
    """
    try:
        report = json.loads(text)
        entries = report["indices"]
    except (ValueError, KeyError, TypeError) as exc:
        return n_max, [f"report is not a verify report: {exc!r}"]
    errors: list[str] = []
    failed = 0
    for n in range(1, n_max + 1):
        try:
            entry_errors = (check_sweep_entry(n, entries[n - 1])
                            if n - 1 < len(entries) else [f"n={n}: missing"])
        except (KeyError, TypeError, ValueError) as exc:
            entry_errors = [f"n={n}: malformed entry {exc!r}"]
        if entry_errors:
            failed += 1
            errors += entry_errors
    try:
        errors += _check_summary(report, n_max)
        errors += check_cache_block(report, *cache)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        errors.append(f"malformed summary or bounds: {exc!r}")
    return failed, errors


def reason_counts(text: str) -> dict[str, int]:
    return dict(sorted(Counter(e["reason"] for e in
                               json.loads(text)["indices"]).items()))


# ---------------------------------------------------------------------------
# lehmer-range


def primes_upto(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, bound + 1, i)))
    return [i for i, flag in enumerate(sieve) if flag]


def totients(start: int, count: int) -> list[int]:
    """phi(N) for N in [start, start + count), by a segmented sieve."""
    rem = list(range(start, start + count))
    phi = rem[:]
    for p in primes_upto(math.isqrt(start + count - 1)):
        first = -start % p
        for i in range(first, count, p):
            phi[i] -= phi[i] // p
            r = rem[i] // p
            while r % p == 0:
                r //= p
            rem[i] = r
    for i, r in enumerate(rem):
        if r > 1:  # one prime factor above the square root is left
            phi[i] -= phi[i] // r
    return phi


def check_lehmer_block(start: int, phis: list[int],
                       lines: list[str]) -> list[str]:
    """Check `status reason evidence` lines for N = start, start+1, ...

    The sieve decides, by the definition phi(N) | N - 1, whether N is
    prime, Lehmer or neither; each verdict must agree and carry valid
    evidence.  Returns one string per failed candidate.
    """
    failures = []
    for i, phi in enumerate(phis):
        value = start + i
        if i >= len(lines):
            failures.append(f"N={value}: no verdict")
            continue
        parts = lines[i].split()
        if len(parts) != 3:
            failures.append(f"N={value}: malformed line {lines[i]!r}")
            continue
        status, reason, raw = parts
        evidence = None if raw == "-" else int(raw)
        prime = value > 1 and phi == value - 1
        if value > 1 and not prime and (value - 1) % phi == 0:
            errors = [f"N={value} is a Lehmer number; the program says "
                      f"{status}"] if status != "holds" else []
        else:
            errors = check_evidence(value, status, reason, evidence, prime)
            if reason == "full_check_failed" and (value - 1) % phi == 0:
                errors.append("full_check_failed but phi(N) | N - 1")
        if errors:
            failures.append(f"N={value}: " + "; ".join(errors))
    return failures
