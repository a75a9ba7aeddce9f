"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The full-range verification runs once in this process
and is shared across the criteria that inspect it; the determinism
criterion runs it again as `python -m pellcheck` in a fresh process.
"""

import hashlib
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from pellcheck.arith import FactorPolicy, factor, euler_phi
from pellcheck.lehmer import LehmerStatus, lehmer_check
from pellcheck.sequences import (
    pell_lucas_sequence,
    pell_pair,
    pell_sequence,
)
from pellcheck.verifier import (
    canonical_json,
    e8_enclosure,
    e8_threshold_check,
    final_inequality_holds,
    final_threshold,
    run_identity_suite,
    verify_range,
)

DEFAULT_POLICY = FactorPolicy()
SMALL_POLICY = FactorPolicy(trial_bound=400, max_total_ms=1000)

_cache: dict = {}


def full_run(key: str):
    """The full-range run in this process, computed once and shared."""
    if key not in _cache:
        t0 = time.perf_counter()
        _cache[key] = (verify_range(200, DEFAULT_POLICY),
                       time.perf_counter() - t0)
    return _cache[key]


def report_line(num: int, label: str, ok: bool, elapsed: float) -> None:
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.1f} s]")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_paper_reproduction():
    report, elapsed = full_run("a")
    ok = (report.reproduced
          and report.holds_indices == ()
          and report.undecided_indices == ()
          and len(report.indices) == 200
          and elapsed < 600.0)
    report_line(1, "machine check to 200: 0 holds, 0 undecided, <10 min",
                ok, elapsed)


def test_criterion_2_final_threshold():
    t0 = time.perf_counter()
    ok = (final_threshold() == 21
          and final_inequality_holds(20) is True
          and final_inequality_holds(21) is False)
    report_line(2, "final threshold == 21; holds at 20, fails at 21",
                ok, time.perf_counter() - t0)


def test_criterion_3_e8_bound():
    t0 = time.perf_counter()
    enc = e8_enclosure()
    ok = (e8_threshold_check() is True
          and float(enc.hi) < 3000.0)
    report_line(3, "e^8 certified below 3000", ok, time.perf_counter() - t0)


def test_criterion_4_identity_suites():
    t0 = time.perf_counter()
    result = run_identity_suite(5000, nu2_n_max=10**4)
    elapsed = time.perf_counter() - t0
    ok = result.all_ok and elapsed < 120.0
    report_line(4, "identities: companion<=5000, split<=5000, "
                   "valuations<=10^4, transfer<=5000, <2 min", ok, elapsed)


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()

    # (a) doubling ladder vs straight iteration, both sequences, n <= 5000
    ps = pell_sequence(5000)
    qs = pell_lucas_sequence(5000)
    seq_ok = all(
        (pair := pell_pair(n)).p == ps[n] and pair.q == qs[n]
        for n in range(5001)
    )

    # (b) euler_phi vs exhaustive gcd counting, N <= 10^4
    bound_b = 10**4
    base = np.arange(1, bound_b + 1, dtype=np.int64)
    buf = np.empty(bound_b, dtype=np.int64)
    gcd_phi = np.zeros(bound_b + 1, dtype=np.int64)
    for n in range(1, bound_b + 1):
        np.gcd(base[:n], n, out=buf[:n])
        gcd_phi[n] = np.count_nonzero(buf[:n] == 1)
    phi_ok = all(
        euler_phi(factor(n, SMALL_POLICY)) == int(gcd_phi[n])
        for n in range(1, bound_b + 1)
    )

    # (c) lehmer_check vs the definitional test phi(N) | N-1 for all
    # composite N <= 10^5.  The totient oracle is a linear sieve,
    # cross-validated against the exhaustive gcd counting above on their
    # shared range, and fully independent of the factor()/euler_phi path
    # under test.
    bound_c = 10**5
    sieve_phi = list(range(bound_c + 1))
    for p in range(2, bound_c + 1):
        if sieve_phi[p] == p:  # p prime
            for m in range(p, bound_c + 1, p):
                sieve_phi[m] -= sieve_phi[m] // p
    cross_ok = all(sieve_phi[n] == int(gcd_phi[n])
                   for n in range(1, bound_b + 1))

    lehmer_ok = True
    holds_found = 0
    for n in range(2, bound_c + 1):
        is_prime = sieve_phi[n] == n - 1
        verdict = lehmer_check(n, SMALL_POLICY)
        if is_prime:
            if verdict.status != LehmerStatus.NOT_COMPOSITE:
                lehmer_ok = False
                break
            continue
        brute_is_lehmer = (n - 1) % sieve_phi[n] == 0
        if brute_is_lehmer:
            holds_found += 1
        expected = (LehmerStatus.HOLDS if brute_is_lehmer
                    else LehmerStatus.REJECTED)
        if verdict.status != expected:
            lehmer_ok = False
            break

    elapsed = time.perf_counter() - t0
    ok = seq_ok and phi_ok and cross_ok and lehmer_ok and holds_found == 0
    report_line(5, "oracle equivalence: sequences<=5000, phi<=10^4, "
                   "lehmer<=10^5, zero Lehmer numbers", ok, elapsed)


def test_criterion_6_residues_mod_4():
    report, _ = full_run("a")
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for idx in report.indices:
        if idx.n % 2 == 0:
            continue
        for p, e, res in idx.factors_found:
            checked += 1
            if res != 1 or p % 4 != 1:
                ok = False
    ok = ok and checked > 100  # the sweep harvests well over 100 factors
    report_line(6, f"all {checked} harvested factors for odd n are "
                   "1 mod 4", ok, time.perf_counter() - t0)


def test_criterion_7_determinism():
    # the second run is the command line's, in a fresh process with another
    # hash seed, pinned to one CPU, so that it decides every index (and
    # walks every ECM curve) in that one process
    report_a, elapsed_a = full_run("a")
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["pellcheck"].__file__)))
    script = (
        "import os, runpy, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "sys.argv = ['pellcheck', 'verify', '--n-max', '200',\n"
        "            '--format', 'structured']\n"
        "runpy.run_module('pellcheck', run_name='__main__')\n"
    )
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    t0 = time.perf_counter()
    run_b = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, timeout=600,
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed})
    elapsed_b = time.perf_counter() - t0
    ok = (run_b.returncode == 0
          and run_b.stdout == report_a.to_json().encode("utf-8")
          and elapsed_b < 600.0)
    report_line(7, "a fresh one-CPU process writes the same bytes", ok,
                elapsed_a + elapsed_b)


def test_criterion_8_pinned_report():
    # the canonical report of the sweep to 200 under the default policy;
    # a change that alters the report on purpose updates this pin
    report, _ = full_run("a")
    t0 = time.perf_counter()
    text = report.to_json().encode("utf-8")
    ok = (len(text) == 45728
          and hashlib.sha256(text).hexdigest() == "7874287ca771f8e7a1629"
          "de1dbf1d616bce174dded2bcf7a56b5c836d3f3607a")
    report_line(8, "report to 200 matches the pinned 45,728 bytes",
                ok, time.perf_counter() - t0)


def test_criterion_8_pinned_verdicts():
    # the same report without its work units: every verdict, its evidence
    # and the harvested factors; a change to the factoring pipeline's cost
    # alone leaves this pin as it is
    report, _ = full_run("a")
    t0 = time.perf_counter()
    data = report.to_dict()
    del data["summary"]["total_work_units"]
    for entry in data["indices"]:
        del entry["work_units"]
    text = canonical_json(data).encode("utf-8")
    ok = (len(text) == 42428
          and hashlib.sha256(text).hexdigest() == "842162f313dcc73eeca22"
          "52c80e39c4af0e13419e8d0ac53dafd50b94a6a13c7")
    report_line(8, "report to 200 without work units matches the pinned "
                   "42,428 bytes", ok, time.perf_counter() - t0)
