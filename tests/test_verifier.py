import errno
import json
import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from pellcheck import arith, cli, pool, verifier
from pellcheck.arith import STAGES, FactorPolicy, Factorization, factor
from pellcheck.identities import split_indices
from pellcheck.lehmer import LehmerReason, LehmerStatus
from pellcheck.sequences import digits10, pell_pair
from pellcheck.verifier import (
    FactorCache,
    IndexReport,
    bound_chain,
    e8_enclosure,
    e8_threshold_check,
    final_inequality_holds,
    final_threshold,
    pomerance_rhs,
    run_identity_suite,
    verify_index,
    verify_range,
    _ineq_a_decide,
    _ineq_b_decide,
)
from pellcheck.intervals import certify
from processes import (HAS_PROC, assert_workers_die_with_caller, gone,
                       wait_until)

FAST = FactorPolicy(trial_bound=10**4, max_total_ms=5000)
STARVED = FactorPolicy(trial_bound=100, max_total_ms=50)


# ---------------------------------------------------------------------------
# verify_index


def test_verify_index_examples():
    r = verify_index(7, FAST)
    assert (r.verdict.status, r.verdict.reason, r.verdict.evidence) == (
        LehmerStatus.REJECTED, LehmerReason.NOT_SQUAREFREE, 13)
    r = verify_index(2, FAST)
    assert (r.verdict.status, r.verdict.reason) == (
        LehmerStatus.NOT_COMPOSITE, LehmerReason.IS_PRIME)
    r = verify_index(9, FAST)
    assert (r.verdict.status, r.verdict.reason, r.verdict.evidence) == (
        LehmerStatus.REJECTED, LehmerReason.FACTOR_WITNESS, 197)
    r = verify_index(1, FAST)
    assert (r.verdict.status, r.verdict.reason) == (
        LehmerStatus.NOT_COMPOSITE, LehmerReason.IS_UNIT)


def test_verify_index_invariants():
    for n in (1, 2, 4, 7, 9, 12, 15):
        r = verify_index(n, FAST)
        assert r.verdict.target == pell_pair(n).p
        assert r.pell_digits == digits10(pell_pair(n).p)
        assert r.pq_relation_ok and r.nu2_lemma_ok
        assert r.split_product_ok is (None if n % 2 == 0 or n < 3 else True)
        for p, e, res in r.factors_found:
            assert pell_pair(n).p % p**e == 0
            assert res == p % 4


def test_verify_index_rejects_zero():
    with pytest.raises(ValueError):
        verify_index(0, FAST)


def test_even_indices_short_circuit():
    r = verify_index(10, FAST)
    assert (r.verdict.status, r.verdict.reason) == (
        LehmerStatus.REJECTED, LehmerReason.EVEN)
    assert r.work_units < 1000  # no factoring happened


def test_elapsed_excluded_from_equality():
    a = verify_index(9, FAST)
    fields = dict(
        n=a.n, pell_digits=a.pell_digits, verdict=a.verdict,
        pq_relation_ok=a.pq_relation_ok, nu2_lemma_ok=a.nu2_lemma_ok,
        split_product_ok=a.split_product_ok, factors_found=a.factors_found,
        work_units=a.work_units,
    )
    # neither the time nor the split by stage decides whether two agree
    for extra in ({"elapsed_ms": a.elapsed_ms + 123.0},
                  {"decide_stage_units": {"trial": a.work_units + 1}}):
        b = IndexReport(**fields, **extra)
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert a != IndexReport(**{**fields, "work_units": a.work_units + 1})


def test_records_survive_pickle():
    # verdicts and their factorizations cross the sweep's worker pipes
    policy = FactorPolicy(trial_bound=500, max_total_ms=7000, seed=3)
    report = verify_index(43, policy)
    verdict = report.verdict
    assert isinstance(verdict.factorization, Factorization)
    assert verdict.factorization.factors
    for record in (verdict, verdict.factorization, report, policy):
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)
    assert pickle.loads(pickle.dumps(report)).decide_stage_units == (
        report.decide_stage_units)


# ---------------------------------------------------------------------------
# verify_range


def test_verify_range_small():
    seen = []
    report = verify_range(12, FAST, on_index=seen.append)
    assert tuple(seen) == report.indices  # one call per index, in order
    statuses = {r.n: r.verdict.status for r in report.indices}
    assert statuses[1] == LehmerStatus.NOT_COMPOSITE
    assert statuses[2] == LehmerStatus.NOT_COMPOSITE   # P_2 = 2 is prime
    assert statuses[4] == LehmerStatus.REJECTED        # P_4 = 12, even
    assert statuses[7] == LehmerStatus.REJECTED
    assert report.status_counts["not_composite"] == 5  # n = 1, 2, 3, 5, 11
    assert report.status_counts["rejected"] == 7
    assert report.holds_indices == ()
    assert report.undecided_indices == ()
    assert report.reproduced
    assert report.bounds.final_threshold == 21
    assert report.bounds.omega_floor == 15


def test_verify_range_stage_units_sum_to_work_units():
    report = verify_range(60, FAST)
    for r in report.indices:
        assert tuple(r.decide_stage_units) == STAGES
        assert sum(r.decide_stage_units.values()) == r.work_units, r.n
    # P_43 is decided by ECM's first curve
    r43 = report.indices[42]
    assert r43.decide_stage_units["ecm"] > 0
    # the split is kept out of the canonical report
    assert "stage" not in report.to_json()


def test_sweep_pool_matches_the_in_process_sweep(monkeypatch):
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(pool, "worker_count", lambda: workers)
        seen = []
        runs[workers] = verify_range(60, FAST,
                                     on_index=lambda r: seen.append(r.n))
        assert seen == list(range(1, 61))
        assert multiprocessing.active_children() == []
    serial, pooled = runs[1], runs[2]
    assert pooled.to_json() == serial.to_json()
    for a, b in zip(serial.indices, pooled.indices):
        assert a.decide_stage_units == b.decide_stage_units, a.n


def test_index_report_does_not_depend_on_the_sweep():
    # each index is decided from P_n alone, so a lone call pays for the
    # same work as the sweep's entry for n
    report = verify_range(60, FAST)
    for r in report.indices:
        assert verify_index(r.n, FAST) == r, r.n


def test_sweep_pool_leaves_no_worker_when_a_task_raises(monkeypatch):
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    bad = pell_pair(41).p
    real = verifier.lehmer_check

    def failing(n, *args, **kwargs):
        if n == bad:
            raise ArithmeticError("planted failure")
        return real(n, *args, **kwargs)

    monkeypatch.setattr(verifier, "lehmer_check", failing)
    seen = []
    with pytest.raises(ArithmeticError, match="planted failure"):
        verify_range(60, FAST, on_index=lambda r: seen.append(r.n))
    assert seen == list(range(1, 41))
    assert multiprocessing.active_children() == []


def _first_batch_misses_rest_hang(n, seed, curves, first):
    """An ECM batch walk: batch 0, which runs in the caller, finds nothing;
    each later batch, on a worker of the caller's ECM map, logs its pid and
    hangs."""
    if first == 0:
        return arith._ECM_BATCH, None
    with open(os.environ["HUNG_BATCH_LOG"], "a", encoding="ascii") as fh:
        fh.write(f"{os.getpid()}\n")
    time.sleep(60)


@pytest.mark.skipif(not HAS_PROC, reason="needs /proc")
def test_sweep_pool_ends_the_stage2_pools_of_its_workers(monkeypatch,
                                                         tmp_path):
    # the stage-2 pools are now ECM's, which took over from p-1 stage 2:
    # every odd index up to 120 that trial division leaves to ECM (the
    # first is 43) gets past its first batch, and its later batches hang
    # in the ECM pool of its sweep worker until an interrupt (here from a
    # timer) ends the sweep: that must end those pools too
    log = tmp_path / "ecm-pids.txt"
    monkeypatch.setenv("HUNG_BATCH_LOG", str(log))
    monkeypatch.setattr(arith, "_ecm_batch", _first_batch_misses_rest_hang)
    monkeypatch.setattr(pool, "worker_count", lambda: 2)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        with pytest.raises(KeyboardInterrupt):
            verify_range(120, FAST)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
    pids = [int(pid) for pid in log.read_text().split()]
    assert len(pids) >= 2
    wait_until(lambda: all(gone(pid) for pid in pids), 5)
    assert all(gone(pid) for pid in pids)


@pytest.mark.skipif(not HAS_PROC, reason="needs /proc")
@pytest.mark.skipif(pool.worker_count() < 2, reason="needs two CPUs")
def test_sweep_workers_end_when_the_cli_is_killed():
    # SIGKILL gives the CLI no chance to end its sweep workers, so each
    # must die with it
    flags = [x for flag, name, _ in cli._POLICY_FLAGS
             for x in (flag, str(getattr(FAST, name)))]
    assert_workers_die_with_caller(
        [sys.executable, "-m", "pellcheck", "verify", "--n-max", "199",
         *flags], 2, 30,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


@pytest.mark.skipif(not HAS_PROC, reason="needs /proc")
def test_stage2_workers_end_when_their_caller_is_killed():
    # the workers are ECM's, which took over from p-1 stage 2: ECM on the
    # product of the Mersenne primes 2^107 - 1 and 2^127 - 1,
    # far beyond its bounds, with 2 workers and a budget of 10^6 curves:
    # after a SIGKILL to its caller, each worker must end
    src = os.path.dirname(os.path.dirname(os.path.abspath(arith.__file__)))
    script = (
        "from pellcheck import arith, pool\n"
        "pool.worker_count = lambda: 2\n"
        "n = ((1 << 107) - 1) * ((1 << 127) - 1)\n"
        "meter = arith.WorkMeter(10**6 * arith._ecm_tables()[3])\n"
        "arith._find_divisor(n, arith.FactorPolicy(), meter)\n"
    )
    assert_workers_die_with_caller(
        [sys.executable, "-c", script], 2, 5,
        env={**os.environ, "PYTHONPATH": src})


@pytest.mark.skipif(not HAS_PROC, reason="needs /proc")
def test_nested_map_workers_end_when_the_caller_is_killed():
    # an outer map of 2 items on 2 workers, each item an inner map of 100
    # items of 0.2 s on 2 workers: the outer workers stay busy, and each
    # takes its own inner workers with it when it dies
    src = os.path.dirname(os.path.dirname(os.path.abspath(arith.__file__)))
    script = (
        "import time\n"
        "from contextlib import closing\n"
        "from pellcheck import pool\n"
        "pool.worker_count = lambda: 2\n"
        "def outer(x):\n"
        "    it = pool.ordered_map(time.sleep, [0.2] * 100, 'inner')\n"
        "    with closing(it):\n"
        "        return len(list(it))\n"
        "with closing(pool.ordered_map(outer, [0, 1], 'outer')) as it:\n"
        "    list(it)\n"
    )
    assert_workers_die_with_caller(
        [sys.executable, "-c", script], 6, 5,
        env={**os.environ, "PYTHONPATH": src})


def test_verify_range_rejects_zero():
    with pytest.raises(ValueError):
        verify_range(0, FAST)


def test_verify_range_starved_budgets_never_hold():
    # undecided entries are permitted under tiny budgets, holds never are
    report = verify_range(50, STARVED)
    assert report.holds_indices == ()
    for r in report.indices:
        assert r.verdict.status in (LehmerStatus.NOT_COMPOSITE,
                                    LehmerStatus.REJECTED,
                                    LehmerStatus.UNDECIDED)


def test_verify_range_can_surface_undecided():
    # a 1 ms total budget cannot even pay for the default trial sweep, so
    # odd composite targets must come back undecided, honestly reported
    policy = FactorPolicy(trial_bound=10**6, max_total_ms=1)
    report = verify_range(10, policy)
    assert report.holds_indices == ()
    # P_7 = 169 and P_9 = 5 * 197 stay unfactored
    assert report.undecided_indices == (7, 9)
    assert not report.reproduced


def test_verify_range_with_a_failed_identity_is_not_reproduced(monkeypatch):
    real = verifier.pq_relation_holds
    monkeypatch.setattr(verifier, "pq_relation_holds",
                        lambda n, p, q: n != 5 and real(n, p, q))
    report = verify_range(10, FAST)
    assert report.undecided_indices == report.holds_indices == ()
    assert [r.n for r in report.indices if not r.identities_ok] == [5]
    assert not report.reproduced
    assert report.human_table().endswith("failed identities remain)")


def test_verify_range_deterministic():
    a = verify_range(30, FAST)
    b = verify_range(30, FAST)
    assert a.to_json() == b.to_json()
    assert a == b


def test_report_round_trip():
    report = verify_range(15, FAST)
    data = json.loads(report.to_json())
    assert data == report.to_dict()
    assert json.dumps(data, sort_keys=True,
                      separators=(",", ":")) + "\n" == report.to_json()
    assert [d["n"] for d in data["indices"]] == list(range(1, 16))
    assert data["indices"][8]["factors"] == [[5, 1, 1], [197, 1, 1]]
    # canonical form carries no volatile timing
    assert data["schema"] == 2
    assert "elapsed" not in json.dumps(data)


# ---------------------------------------------------------------------------
# bound chain


def test_bound_chain_examples():
    r = bound_chain(300, 15)
    assert r.ineq_a_holds is True
    r = bound_chain(3000, 15)
    assert r.two_power_satisfiable is False
    assert r.two_power_min_index == 2**30 - 1
    assert r.two_power_targets is None  # even index
    r = bound_chain(201, 15)
    assert digits10(r.pomerance_rhs) == 38539
    assert r.pomerance_rhs == 15 ** (2**15)


def test_bound_chain_odd_indices_get_exact_targets():
    r = bound_chain(3001, 15)
    assert r.two_power_targets == (1500, 1501)
    assert r.two_power_satisfiable is False
    r = bound_chain(2**30 - 1, 15)
    assert r.two_power_targets == (2**29 - 1, 2**29)
    assert r.two_power_satisfiable is True


def test_bound_chain_small_k():
    # ln 1 = 0, so inequality (a) must certify False without escalating
    r = bound_chain(300, 1)
    assert r.ineq_a_holds is False


def test_bound_chain_validates_inputs():
    with pytest.raises(ValueError):
        bound_chain(15, 15)
    with pytest.raises(ValueError):
        bound_chain(300, 0)
    with pytest.raises(ValueError):
        pomerance_rhs(64)  # far beyond the materialization cap


def test_bound_chain_booleans_stable_under_refinement():
    for n, k in ((300, 15), (3000, 15), (300, 1), (10**6, 15)):
        for decide in (_ineq_a_decide(n, k), _ineq_b_decide(n, k)):
            verdict = certify(decide)
            assert decide(768) == verdict
            assert decide(3072) == verdict
    # the final inequality around its threshold, and the two comparisons
    # of e8_threshold_check
    for decide in (
            *(verifier._final_inequality_decide(a, a) for a in range(16, 26)),
            lambda bits: e8_enclosure(bits).gt(2980),
            lambda bits: e8_enclosure(bits).lt(2981)):
        assert decide(768) == certify(decide)


#: bound_chain's indices for the mpmath oracle: both sides of the final
#: threshold and of e**8, the window's top, and 20 seeded others
ORACLE_NS = sorted({16, 17, 20, 21, 300, 2980, 2981, 2999,
                    *random.Random(2023).sample(range(16, 3000), 20)})


@pytest.mark.parametrize("n", ORACLE_NS)
def test_bound_chain_booleans_match_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.dps = 60
    margin = ctx.mpf(10) ** -40
    for k in range(1, 17):
        r = bound_chain(n, k)
        # 2**k ln k > n/3, and 2**(k+2) ln ln n > n; a difference within
        # the margin would leave the oracle itself in doubt
        a = ctx.mpf(2) ** k * ctx.log(k) - ctx.mpf(n) / 3
        b = ctx.mpf(2) ** (k + 2) * ctx.log(ctx.log(n)) - n
        assert abs(a) > margin and abs(b) > margin, (n, k)
        assert (r.ineq_a_holds, r.ineq_b_holds) == (a > 0, b > 0), (n, k)


def test_final_inequality_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.dps = 60
    for n in range(16, 41):
        d = 16 * (n + 1) * ctx.log(ctx.log(n)) ** 2 - n * n
        assert abs(d) > ctx.mpf(10) ** -40, n
        assert final_inequality_holds(n) == (d > 0), n


def test_final_threshold():
    assert final_threshold() == 21
    assert final_inequality_holds(16) is True
    assert final_inequality_holds(20) is True
    assert final_inequality_holds(21) is False
    assert final_inequality_holds(22) is False
    with pytest.raises(ValueError):
        final_inequality_holds(15)


def test_final_threshold_agrees_with_exhaustive_scan():
    holding = [n for n in range(16, 3000) if final_inequality_holds(n)]
    assert holding == list(range(16, final_threshold()))


def test_final_inequality_block_check():
    # 70^2/71 < 16 (ln ln 2999)^2, so [70, 2999] must be split, while
    # 70^2/71 >= 16 (ln ln 1534)^2 proves failure on all of [70, 1534]
    assert certify(verifier._final_inequality_decide(70, 2999)) is True
    assert certify(verifier._final_inequality_decide(70, 1534)) is False
    assert certify(verifier._final_inequality_decide(1535, 2999)) is False


@pytest.fixture
def fresh_final_threshold():
    """final_threshold computed afresh inside the test, and nothing the
    test plants kept for later ones."""
    final_threshold.cache_clear()
    yield
    final_threshold.cache_clear()


@pytest.mark.usefixtures("fresh_final_threshold")
def test_final_threshold_finds_a_planted_late_satisfying_index(monkeypatch):
    # the block proof must bisect down to a satisfying n far past the scan
    real = verifier._final_inequality_decide

    def planted(a, b):
        return (lambda bits: True) if a <= 500 <= b else real(a, b)

    monkeypatch.setattr(verifier, "_final_inequality_decide", planted)
    with pytest.raises(AssertionError, match="not contiguous at 500"):
        final_threshold()


@pytest.mark.usefixtures("fresh_final_threshold")
def test_final_threshold_refuses_a_planted_gap(monkeypatch):
    real = verifier._final_inequality_decide

    def planted(a, b):
        return (lambda bits: False) if a == b == 18 else real(a, b)

    monkeypatch.setattr(verifier, "_final_inequality_decide", planted)
    with pytest.raises(AssertionError, match="not contiguous at 19"):
        final_threshold()


@pytest.mark.usefixtures("fresh_final_threshold")
def test_final_threshold_makes_few_certified_comparisons(monkeypatch):
    calls = []

    def counting_certify(decide):
        calls.append(decide)
        return certify(decide)

    monkeypatch.setattr(verifier, "certify", counting_certify)
    assert final_threshold() == 21
    assert len(calls) <= 40


def test_e8_threshold():
    assert e8_threshold_check() is True
    enc = e8_enclosure()
    assert Fraction("2980.9") < enc.lo <= enc.hi < Fraction("2981.0")
    assert enc.lo <= Fraction(
        "2980.9579870417282747435920994528886737559679391328") <= enc.hi


# ---------------------------------------------------------------------------
# factor cache


def test_cache_store_load_round_trip(tmp_path):
    path = tmp_path / "cache.txt"
    cache = FactorCache(str(path))
    f9 = factor(pell_pair(9).p, FAST)
    cache.store(9, f9)
    assert cache.load(9) == f9
    assert cache.load(11) is None
    cache.write_file()

    reloaded = FactorCache(str(path))
    assert reloaded.load(9) == f9
    assert reloaded.rejected == []
    assert reloaded.loaded == 1


def test_cache_file_format(tmp_path):
    path = tmp_path / "cache.txt"
    cache = FactorCache(str(path))
    cache.store(9, factor(pell_pair(9).p, FAST))
    cache.store(15, Factorization(target=pell_pair(15).p,
                                  factors=((5, 2),), cofactor=7801))
    cache.write_file()
    lines = path.read_text().splitlines()
    assert lines == [
        "9 5^1 197^1 cofactor=1 complete=1",
        "15 5^2 cofactor=7801 complete=0",
    ]


def test_cache_rejects_corrupt_entries(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("\n".join([
        "9 5^1 196^1 cofactor=1 complete=1",    # wrong product
        "9 5^1 197^1 cofactor=1 complete=0",    # inconsistent flag
        "9 985^1 cofactor=1 complete=1",        # listed factor not prime
        "this is not a record",
        "9 5^1 197^1 cofactor=1 complete=1",    # the one valid line
    ]) + "\n")
    cache = FactorCache(str(path))
    assert cache.loaded == 1
    assert len(cache.rejected) == 4
    assert cache.load(9) == factor(pell_pair(9).p, FAST)


def test_cache_rejects_non_utf8_line(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_bytes(b"9 5^1 197^1 cofactor=1 complete=1\n\xff\xfe garbage\n")
    cache = FactorCache(str(path))
    assert cache.loaded == 1
    assert len(cache.rejected) == 1
    assert cache.rejected[0].startswith("line 2: 'utf-8' codec")
    assert cache.load(9) == factor(pell_pair(9).p, FAST)


def test_cache_rejects_oversized_exponent(tmp_path):
    # 5^30000000 would take seconds to build; the line must be rejected
    # on the exponent alone, since 2^bits(P_9) already exceeds P_9
    path = tmp_path / "cache.txt"
    path.write_text("9 5^30000000 cofactor=1 complete=1\n"
                    "9 5^1 197^1 cofactor=1 complete=1\n")
    cache = FactorCache(str(path))
    assert cache.loaded == 1
    assert cache.rejected == ["line 1: 5^30000000 exceeds P_9"]


@pytest.mark.parametrize("n", [20000, 3000000])
def test_cache_rejects_short_line_for_large_index_quickly(tmp_path, n):
    # P_n has at least n - 1 bits, so a 3-bit product is refused before
    # P_n is built (computing P_3000000 alone takes about half a second)
    path = tmp_path / "cache.txt"
    path.write_text(f"{n} 2^1 cofactor=1 complete=1\n")
    t0 = time.perf_counter()
    cache = FactorCache(str(path))
    assert time.perf_counter() - t0 < 0.1
    assert cache.loaded == 0
    assert cache.rejected == [
        f"line 1: product below 2^3 is less than P_{n} >= 2^{n - 1}"]


def test_cache_rejects_oversized_exponent_for_large_index_quickly(tmp_path):
    # P_20000000 < 2^25432000 < 2^30000000, so the line is refused before
    # P_20000000 (ten seconds of work) is built
    path = tmp_path / "cache.txt"
    path.write_text("20000000 2^30000000 cofactor=1 complete=1\n")
    t0 = time.perf_counter()
    cache = FactorCache(str(path))
    assert time.perf_counter() - t0 < 0.1
    assert cache.rejected == ["line 1: 2^30000000 exceeds P_20000000"]


def test_cache_rejects_plausible_size_product_mismatch_quickly(tmp_path):
    # 2^20000000 passes both size checks (40,000,000 claimed bits, below
    # the 2^25432000 ceiling for the power alone), so only the product mod
    # 2^61 - 1 refuses it before P_20000000 is built
    path = tmp_path / "cache.txt"
    path.write_text("20000000 2^20000000 cofactor=1 complete=1\n")
    t0 = time.perf_counter()
    cache = FactorCache(str(path))
    assert time.perf_counter() - t0 < 0.1
    assert cache.rejected == [
        "line 1: product differs from P_20000000 mod 2^61 - 1"]


@pytest.mark.parametrize("line, reason", [
    # P_5 = 29 has 2 digits, so a 600,000-digit factor or cofactor cannot
    # be part of it and is refused before int() spends seconds on it
    ("5 " + "7" * 600_000 + "^1 cofactor=1 complete=1",
     "7777777777...7777^1(600002d) exceeds P_5"),
    ("5 cofactor=" + "7" * 600_000 + " complete=1",
     "cofactor 7777777777...777777(600000d) exceeds P_5"),
    # an index of 600,000 digits needs as many digits elsewhere to carry
    # the bits of P_n
    ("7" * 600_000 + " 2^1 cofactor=1 complete=1",
     "index 7777777777...777777(600000d) is too long for its line"),
    # the exponent of a factor of P_9 is below 2 * 9
    ("9 5^" + "7" * 600_000 + " cofactor=1 complete=1",
     "5^77777777...777777(600002d) exceeds P_9"),
    # an index that takes less than half of its line is capped at 12
    # digits before int() spends time on it
    ("7" * 300_000 + " 2^" + "7" * 300_001 + " cofactor=1 complete=1",
     "index 7777777777...777777(300000d) exceeds the 12-digit index cap"),
    ("1" + "0" * 12 + " 2^1 cofactor=1 complete=1",
     "index 1000000000000 exceeds the 12-digit index cap"),
    ("9" * 12 + " 2^1 cofactor=1 complete=1",
     "product below 2^3 is less than P_999999999999 >= 2^999999999998"),
], ids=["factor", "cofactor", "index", "exponent", "index-cap",
        "index-13-digits", "index-12-digits"])
def test_cache_rejects_long_numerals_quickly(tmp_path, line, reason):
    path = tmp_path / "cache.txt"
    path.write_text(line + "\n")
    t0 = time.perf_counter()
    cache = FactorCache(str(path))
    assert time.perf_counter() - t0 < 0.1
    assert cache.rejected == [f"line 1: {reason}"]


@pytest.mark.parametrize("line, reason", [
    ("9 5^1 cofactor=19_7 complete=0", "cofactor is not a decimal integer"),
    ("9 5^1 197^1 cofactor=+1 complete=1",
     "cofactor is not a decimal integer"),
    ("9 5^1 cofactor=\u0661\u0669\u0667 complete=0",
     "cofactor is not a decimal integer"),
    ("9 \u0665^1 197^1 cofactor=1 complete=1",
     "bad factor token '\u0665^1'"),
    ("9 5^\u0661 197^1 cofactor=1 complete=1",
     "bad factor token '5^\u0661'"),
    ("\u0669 5^1 197^1 cofactor=1 complete=1",
     "index is not a decimal integer"),
    ("09 5^1 197^1 cofactor=1 complete=1", "index is not a decimal integer"),
    ("9 05^1 197^1 cofactor=1 complete=1", "bad factor token '05^1'"),
    ("9 5^1 197^1 cofactor=01 complete=1",
     "cofactor is not a decimal integer"),
], ids=["underscore", "sign", "arabic-indic-cofactor", "arabic-indic-prime",
        "arabic-indic-exponent", "arabic-indic-index", "zero-index",
        "zero-prime", "zero-cofactor"])
def test_cache_accepts_only_canonical_ascii_numerals(tmp_path, line, reason):
    # each line has the value of a valid record for P_9 = 5 * 197, written
    # in a form that int() reads but FactorCache never writes
    path = tmp_path / "cache.txt"
    path.write_text(line + "\n", encoding="utf-8")
    cache = FactorCache(str(path))
    assert cache.loaded == 0
    assert cache.rejected == [f"line 1: {reason}"]


def test_cache_genuine_lines_pass_the_residue_check(tmp_path):
    path = tmp_path / "cache.txt"
    cache = FactorCache(str(path))
    verify_range(40, FAST, cache=cache)
    cache.write_file()
    lines = path.read_text().splitlines()
    reloaded = FactorCache(str(path))
    assert reloaded.rejected == []
    assert reloaded.loaded == len(lines) == len(cache.entries) > 0
    assert reloaded.entries == cache.entries


def test_cache_round_trips_values_above_the_int_str_limit(tmp_path):
    # the cofactor P_11300 / 4 has 4,325 digits, above the 4,300 that
    # int/str conversion allows by default
    target = pell_pair(11300).p
    f = Factorization(target=target, factors=((2, 2),), cofactor=target >> 2)
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "cache.txt"
    cache = FactorCache(str(path))
    cache.store(11300, f)
    cache.write_file()
    reloaded = FactorCache(str(path))
    assert reloaded.rejected == []
    assert reloaded.entries == {11300: f}
    assert sys.get_int_max_str_digits() == limit


def test_cache_product_mismatch_names_size_not_digits(tmp_path):
    # P_6000 has 2,297 digits; the reason must not print them
    f = factor(pell_pair(6000).p, FAST, on_prime=lambda p, e: p > 100)
    wrong = f.cofactor + 2
    path = tmp_path / "cache.txt"
    path.write_text(" ".join(["6000"] + [f"{p}^{e}" for p, e in f.factors]
                             + [f"cofactor={wrong}", "complete=0"]) + "\n")
    cache = FactorCache(str(path))
    assert cache.rejected == [
        "line 1: product differs from P_6000 mod 2^61 - 1"]


def test_cache_failed_write_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "cache.txt"
    cache = FactorCache(str(path))
    cache.store(9, factor(pell_pair(9).p, FAST))
    cache.write_file()
    old = path.read_bytes()

    cache.store(15, Factorization(target=pell_pair(15).p,
                                  factors=((5, 2),), cofactor=7801))
    real_fdopen = os.fdopen

    class FullDisk:
        """Writes half of what it is given, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(
        os, "fdopen", lambda fd, *a, **kw: FullDisk(real_fdopen(fd, *a, **kw)))
    with pytest.raises(OSError):
        cache.write_file()
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["cache.txt"]  # no temp file left behind


def test_cache_store_validates_target():
    cache = FactorCache()
    with pytest.raises(ValueError):
        cache.store(9, factor(12, FAST))  # target is not P_9
    with pytest.raises(ValueError):
        cache.store(9, Factorization(target=pell_pair(9).p,
                                     factors=((985, 1),)))


def test_cache_upgrade_prefers_complete():
    cache = FactorCache()
    partial = Factorization(target=pell_pair(9).p, factors=((5, 1),),
                            cofactor=197)
    full = factor(pell_pair(9).p, FAST)
    cache.store(9, full)
    cache.store(9, partial)          # must not downgrade
    assert cache.load(9) == full


def test_verify_range_uses_cache(tmp_path):
    path = tmp_path / "cache.txt"
    cache = FactorCache(str(path))
    report = verify_range(20, FAST, cache=cache)
    assert report.cache_stored > 0
    cache.write_file()
    first = path.read_bytes()
    # a second run loads what the first stored, adds nothing and rewrites
    # the same file; only the cache block of its report differs
    cache2 = FactorCache(str(path))
    report2 = verify_range(20, FAST, cache=cache2)
    assert report2 == report._replace(cache_loaded=report.cache_stored,
                                      cache_stored=0)
    cache2.write_file()
    assert path.read_bytes() == first


def test_verify_range_never_reads_the_cache(monkeypatch):
    expected = FactorCache()
    first = verify_range(40, FAST, cache=expected)
    # every index with evidence is stored: P_2 = 2 and each odd n >= 3
    assert sorted(expected.entries) == [2, *range(3, 41, 2)]
    for r in first.indices:
        if r.verdict.reason == LehmerReason.IS_PRIME:
            assert expected.entries[r.n].factors == ((r.verdict.target, 1),)
        elif r.n in expected.entries:
            assert expected.entries[r.n] == r.verdict.factorization

    def refuse(self, n):
        raise AssertionError(f"the sweep looked up index {n}")

    monkeypatch.setattr(FactorCache, "load", refuse)
    cache = FactorCache()
    report = verify_range(40, FAST, cache=cache)
    assert report.reproduced
    assert cache.entries == expected.entries


# ---------------------------------------------------------------------------
# identity suite runner


def test_identity_suite():
    result = run_identity_suite(400, nu2_n_max=600)
    assert result.all_ok
    assert result.n_max == 400 and result.nu2_n_max == 600
    assert result.pq_relation_ok and result.split_product_ok
    assert result.nu2_lemma_ok and result.nu2_transfer_ok
    assert result.failures == ()


# (label in the failure lines, result flag, the n a call of the predicate
# is for, the last index the suite checks with it)
_PREDICATES = {
    "pq_relation_holds": ("pq_relation", "pq_relation_ok",
                          lambda n, p, q: n, lambda n_max, nu2_max: n_max),
    "nu2_lemma_holds": ("nu2_lemma", "nu2_lemma_ok",
                        lambda n, p, q: n, lambda n_max, nu2_max: nu2_max),
    "split_product_holds": ("split_product", "split_product_ok",
                            lambda p_n, p_a, q_b: _INDEX_OF_P.get(p_n),
                            lambda n_max, nu2_max: n_max),
    "nu2_transfer_holds": ("nu2_transfer", "nu2_transfer_ok",
                           lambda n, p: n, lambda n_max, nu2_max: n_max),
}
_INDEX_OF_P = {pell_pair(n).p: n for n in range(80)}


@pytest.mark.parametrize("bounds", [(41, 60), (61, 41)])
@pytest.mark.parametrize("name", sorted(_PREDICATES))
def test_identity_suite_reports_planted_failures(monkeypatch, name, bounds):
    # faults at an n = 1 (mod 4), an n = 3 (mod 4), the last checked index
    # and one past it, which the suite must not reach
    label, flag, index_of, last = _PREDICATES[name]
    n_max, nu2_n_max = bounds
    top = last(n_max, nu2_n_max)
    planted = (13, 19, top, top + 2)
    real = getattr(verifier, name)
    monkeypatch.setattr(
        verifier, name,
        lambda *args: real(*args) and index_of(*args) not in planted)
    result = run_identity_suite(n_max, nu2_n_max=nu2_n_max)
    assert result.failures == (f"{label} fails at n=13",
                               f"{label} fails at n=19",
                               f"{label} fails at n={top}")
    for other in ("pq_relation_ok", "split_product_ok", "nu2_lemma_ok",
                  "nu2_transfer_ok"):
        assert getattr(result, other) is (other != flag)


def test_identity_suite_lists_failures_check_by_check(monkeypatch):
    for name in _PREDICATES:
        monkeypatch.setattr(verifier, name, lambda *args: False)
    result = run_identity_suite(5, nu2_n_max=2)
    assert result.failures == (
        *(f"pq_relation fails at n={n}" for n in range(6)),
        "nu2_lemma fails at n=1", "nu2_lemma fails at n=2",
        "split_product fails at n=3", "nu2_transfer fails at n=3",
        "split_product fails at n=5", "nu2_transfer fails at n=5")


def test_identity_suite_splits_with_the_ladder_values(monkeypatch):
    # the lagging window must hand the split exactly P_n, P_a and Q_b
    calls = []
    real = verifier.split_product_holds

    def spy(p_n, p_a, q_b):
        calls.append((p_n, p_a, q_b))
        return real(p_n, p_a, q_b)

    monkeypatch.setattr(verifier, "split_product_holds", spy)
    assert run_identity_suite(301).all_ok
    expected = []
    for n in range(3, 302, 2):
        a, b = split_indices(n)
        expected.append((pell_pair(n).p, pell_pair(a).p, pell_pair(b).q))
    assert calls == expected


def test_identity_suite_holds_a_constant_number_of_values():
    # keeping every P_n and Q_n to 10^4 would take about 17 MB
    tracemalloc.start()
    try:
        result = run_identity_suite(5000, nu2_n_max=10**4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.all_ok
    assert peak < 1 << 20
