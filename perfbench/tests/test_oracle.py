"""The benchmark's own checks catch planted faults in real program output.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest
import sympy

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import run  # noqa: E402

N_MAX = 40
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _child(tmp_path, mode, *job):
    """Run child.py; returns its output and its record with `wall_s`."""
    out, trace = tmp_path / "out", tmp_path / "trace"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), mode, str(out),
         str(trace), *job], env=ENV, cwd=ROOT, check=False)
    wall_s = time.perf_counter() - t0
    assert proc.returncode == 0
    return out.read_text(), dict(json.loads(trace.read_text()),
                                 wall_s=wall_s)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    text, _ = _child(tmp_path_factory.mktemp("sweep"), "index", "cli",
                     "verify", "--n-max", str(N_MAX), "--format",
                     "structured")
    return json.loads(text)


def _check(data):
    return oracle.check_sweep_report(json.dumps(data), N_MAX)


def _entry(data, reason):
    return next(e for e in data["indices"] if e["reason"] == reason)


def test_real_report_passes(report):
    assert _check(report) == (0, [])


def test_digits():
    assert [oracle.digits(x) for x in (1, 9, 10, 99, 100, 10 ** 50)] == [
        1, 1, 2, 2, 3, 51]


def test_pell_recurrence():
    assert [oracle.pell(n) for n in range(8)] == [0, 1, 2, 5, 12, 29, 70,
                                                  169]


def test_wrong_witness_is_a_failed_index(report):
    data = copy.deepcopy(report)
    entry = _entry(data, "factor_witness")
    entry["evidence"] = 5 if entry["evidence"] != 5 else 29
    failed, errors = _check(data)
    assert failed == 1 and errors


def test_witness_that_is_not_a_witness_fails(report):
    data = copy.deepcopy(report)
    entry = next(e for e in data["indices"] if e["n"] == 9)  # 985 = 5 * 197
    entry["evidence"] = 5  # 5 - 1 divides 984
    assert _check(data)[0] == 1


def test_wrong_square_factor_fails(report):
    data = copy.deepcopy(report)
    entry = _entry(data, "not_squarefree")
    entry["evidence"] = 2
    assert _check(data)[0] == 1


def test_holds_verdict_fails(report):
    data = copy.deepcopy(report)
    entry = _entry(data, "factor_witness")
    entry.update(status="holds", reason="full_check_passed", evidence=None)
    failed, errors = _check(data)
    assert failed == 1 and errors


def test_undecided_verdict_fails(report):
    data = copy.deepcopy(report)
    entry = _entry(data, "factor_witness")
    entry.update(status="undecided", reason="budget_exhausted",
                 evidence=None)
    assert _check(data)[0] == 1


def test_factors_that_do_not_multiply_back_fail(report):
    data = copy.deepcopy(report)
    entry = next(e for e in data["indices"] if e["n"] == 9)
    entry["cofactor"] = 2
    failed, errors = _check(data)
    assert failed == 1 and any("multiply" in e or "give P_n" in e
                               for e in errors)


def test_composite_factor_fails(report):
    data = copy.deepcopy(report)
    entry = next(e for e in data["indices"] if e["n"] == 9)
    entry["factors"] = [[985, 1, 1]]
    assert _check(data)[0] == 1


def test_prime_claim_on_composite_fails(report):
    data = copy.deepcopy(report)
    entry = next(e for e in data["indices"] if e["n"] == 9)
    entry.update(status="not_composite", reason="is_prime", evidence=None,
                 factors=[], cofactor=None)
    assert _check(data)[0] == 1


def test_wrong_threshold_fails(report):
    data = copy.deepcopy(report)
    data["bounds"]["final_threshold"] = 22
    failed, errors = _check(data)
    assert failed == 0 and any("final_threshold" in e for e in errors)


def test_summary_must_match_entries(report):
    data = copy.deepcopy(report)
    data["summary"]["reason_counts"]["even"] += 1
    assert _check(data)[1]


def test_missing_index_fails(report):
    data = copy.deepcopy(report)
    del data["indices"][-1]
    assert _check(data)[0] == 1


def test_bounds_oracle():
    assert oracle.final_threshold() == 21
    rhs = 15 ** (2 ** 15)
    good = {
        "n": 2979, "k": 15, "pomerance_rhs": rhs,
        "pomerance_rhs_digits": 38539,
        "ineq_a_holds": True, "ineq_b_holds": True,
        "two_power_exponent": 29, "two_power_targets": [1489, 1490],
        "two_power_satisfiable": False,
        "two_power_min_index": 2 ** 30 - 1, "final_threshold": 21,
    }
    assert oracle.check_bounds_call(2979, 15, good) == []
    for key, wrong in (("final_threshold", 20), ("ineq_a_holds", False),
                       ("two_power_satisfiable", True)):
        assert oracle.check_bounds_call(2979, 15, dict(good, **{key: wrong}))


def test_totient_sieve_matches_sympy():
    start = 10 ** 12 - 500
    phis = oracle.totients(start, 400)
    assert phis == [sympy.totient(start + i) for i in range(400)]


def test_lehmer_block_and_planted_faults(tmp_path):
    start, count = 999_999_000_000, 3000
    text, _ = _child(tmp_path, "index", "lehmer", str(start), str(count))
    lines = text.splitlines()
    phis = oracle.totients(start, count)
    assert oracle.check_lehmer_block(start, phis, lines) == []
    prime_at = next(i for i, phi in enumerate(phis)
                    if phi == start + i - 1)
    composite_at = next(i for i, line in enumerate(lines)
                        if line.startswith("rejected factor_witness"))
    bad = list(lines)
    bad[prime_at] = "rejected factor_witness 3"
    bad[composite_at] = "not_composite is_prime -"
    failures = oracle.check_lehmer_block(start, phis, bad)
    assert len(failures) == 2


def test_warm_report_must_have_read_the_cache(tmp_path):
    cache = tmp_path / "cache.txt"
    argv = ("cli", "verify", "--n-max", str(N_MAX), "--format",
            "structured", "--cache", str(cache))
    _child(tmp_path, "index", *argv)
    lines = len(cache.read_text().split("\n")) - 1
    text, _ = _child(tmp_path, "index", *argv)
    assert oracle.check_sweep_report(text, N_MAX, (str(cache), lines)) \
        == (0, [])
    data = json.loads(text)
    data["cache"]["loaded"] = 0
    assert oracle.check_sweep_report(json.dumps(data), N_MAX,
                                     (str(cache), lines))[1]
    data = json.loads(text)
    data["cache"]["rejected"] = ["line 3: listed factor 9 is not prime"]
    assert oracle.check_sweep_report(json.dumps(data), N_MAX,
                                     (str(cache), lines))[1]
    # a warm report is not a cold one, and the other way round
    assert oracle.check_sweep_report(text, N_MAX)[1]


def test_trace_has_cli_main_as_its_only_root(tmp_path):
    _, trace = _child(tmp_path, "trace", "cli", "verify", "--n-max", "30",
                      "--format", "structured")
    stats = trace["stats"]
    assert stats["lehmer.lehmer_check"][0] == 30
    assert stats["arith.factor.decide"][0] > 0
    assert stats["arith.factor.seed"][0] > 0
    assert run.check_trace(trace) == []
    # self times add up to cli.main.s by construction
    self_sum = sum(rec[2] for rec in stats.values())
    assert abs(self_sum - stats["cli.main"][1]) < 1e-6
    assert run.check_trace(dict(trace, root_s=trace["root_s"] + 0.01))
    assert run.check_trace(dict(trace, wall_s=stats["cli.main"][1] / 2))


def test_run_fails_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0 and proc.stdout == ""
