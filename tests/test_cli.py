import decimal
import errno
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from pellcheck import cli, identities, pool, verifier
from pellcheck.arith import FactorPolicy
from pellcheck.cli import build_parser, main
from pellcheck.sequences import pell_sequence
from pellcheck.verifier import big_int_strings
from processes import HAS_PROC, session_members, wait_until


def parse_json(text):
    """json.loads with the int/str digit limit lifted; bounds output
    carries a 38,539-digit integer."""
    with big_int_strings():
        return json.loads(text)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_pell(capsys):
    rc, out, _ = run_cli(capsys, "pell", "--n", "7")
    assert rc == 0 and out == "169\n"


def test_pell_big_value_exact(capsys):
    limit = sys.get_int_max_str_digits()
    rc, out, _ = run_cli(capsys, "pell", "--n", "20000")
    assert rc == 0
    assert sys.get_int_max_str_digits() == limit  # the guard is restored
    digits = out.strip()
    assert len(digits) == 7656
    # Decimal parses any length, so the check needs no lifted guard
    assert int(decimal.Decimal(digits)) == pell_sequence(20000)[-1]


def test_pell_pair(capsys):
    rc, out, _ = run_cli(capsys, "pell", "--n", "7", "--pair")
    assert rc == 0 and out == "169\n478\n"


def test_factor_by_index(capsys):
    rc, out, _ = run_cli(capsys, "factor", "--n", "9")
    assert rc == 0
    assert out == "985 = 5 * 197  (complete)\n"


def test_factor_by_value(capsys):
    rc, out, _ = run_cli(capsys, "factor", "--value", "12")
    assert rc == 0
    assert out == "12 = 2^2 * 3  (complete)\n"


def test_factor_structured(capsys):
    rc, out, _ = run_cli(capsys, "factor", "--value", "985",
                         "--format", "structured")
    assert rc == 0
    data = json.loads(out)
    assert data == {"target": 985, "factors": [[5, 1], [197, 1]],
                    "cofactor": 1, "complete": True}


def test_lehmer_value(capsys):
    rc, out, _ = run_cli(capsys, "lehmer", "--value", "985")
    assert rc == 0
    assert "rejected" in out and "factor_witness" in out and "197" in out


def test_lehmer_prime(capsys):
    rc, out, _ = run_cli(capsys, "lehmer", "--value", "7")
    assert rc == 0
    assert "not_composite" in out


def test_lehmer_undecided_exits_1(capsys):
    value = str((10**18 + 9) * (10**18 + 31))
    rc, out, _ = run_cli(capsys, "lehmer", "--value", value,
                         "--trial-bound", "100", "--rho-budget", "1",
                         "--max-total", "1", "--pm1-b1", "0", "--pm1-b2", "0")
    assert rc == 1
    assert "undecided" in out


def test_identities(capsys):
    rc, out, _ = run_cli(capsys, "identities", "--n-max", "200")
    assert rc == 0
    assert "ok" in out and "FAIL" not in out


def test_identities_structured(capsys):
    rc, out, _ = run_cli(capsys, "identities", "--n-max", "100",
                         "--format", "structured")
    assert rc == 0
    data = json.loads(out)
    assert data["all_ok"] is True and data["n_max"] == 100


def test_verify_small(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--n-max", "12")
    assert rc == 0
    assert "0 Lehmer, 0 undecided" in out
    assert "paper reproduced" in out


def test_verify_structured_round_trip(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--n-max", "12",
                         "--format", "structured")
    assert rc == 0
    data = json.loads(out)
    assert data["n_max"] == 12 and data["summary"]["reproduced"] is True
    assert [d["n"] for d in data["indices"]] == list(range(1, 13))
    assert json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n" \
        == out


def test_verify_structured_deterministic(capsys):
    rc1, out1, _ = run_cli(capsys, "verify", "--n-max", "12",
                           "--format", "structured")
    rc2, out2, _ = run_cli(capsys, "verify", "--n-max", "12",
                           "--format", "structured")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_verbose_progress(capsys):
    rc, out, err = run_cli(capsys, "verify", "-v", "--n-max", "12",
                           "--format", "structured")
    rc_quiet, out_quiet, err_quiet = run_cli(capsys, "verify", "--n-max", "12",
                                             "--format", "structured")
    assert rc == rc_quiet == 0
    assert out == out_quiet  # progress never reaches the report
    assert err_quiet == ""
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"n={n}" for n in range(1, 13)]
    assert lines[3].startswith("n=4: rejected/even (")
    # work units per stage: trial division decides P_9 = 5 * 197
    assert lines[3].endswith(" ms) decide[]")
    assert lines[8].endswith(" ms) decide[trial=9813]")


def test_verify_starved_exits_1(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--n-max", "10",
                         "--max-total", "1", "--pm1-b1", "0", "--pm1-b2", "0")
    assert rc == 1
    assert "NOT reproduced" in out


def test_verify_with_a_failed_identity_exits_1(capsys, monkeypatch):
    real = verifier.pq_relation_holds
    monkeypatch.setattr(verifier, "pq_relation_holds",
                        lambda n, p, q: n != 5 and real(n, p, q))
    rc, out, _ = run_cli(capsys, "verify", "--n-max", "10")
    assert rc == 1
    assert "0 Lehmer, 0 undecided" in out
    assert "NOT reproduced" in out


def test_verify_with_a_failed_split_exits_1(capsys, monkeypatch):
    # P_5 - 1 = 28 = P_2 * Q_3, made to fail to multiply back
    real = identities.split_product_holds
    for module in (identities, verifier):
        monkeypatch.setattr(module, "split_product_holds",
                            lambda p_n, p_a, q_b: p_n != 29
                            and real(p_n, p_a, q_b))
    rc, out, _ = run_cli(capsys, "verify", "--n-max", "10")
    assert rc == 1
    rows = {line.split()[0]: line.split() for line in out.splitlines()[2:12]}
    assert [n for n, row in rows.items() if "FAIL" in row] == ["5"]
    assert "NOT reproduced" in out
    rc, out, _ = run_cli(capsys, "verify", "--n-max", "10",
                         "--format", "structured")
    assert rc == 1
    assert out.count('"split_product":false') == 1
    index_5 = parse_json(out)["indices"][4]
    assert index_5["n"] == 5
    assert index_5["identity_checks"]["split_product"] is False


def test_verify_cache_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "cache.txt"
    rc, _, _ = run_cli(capsys, "verify", "--n-max", "9", "--cache", str(path))
    assert rc == 0
    assert "9 5^1 197^1 cofactor=1 complete=1" in path.read_text().splitlines()


def test_failed_cache_write_keeps_the_report(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cache.txt"
    old = "9 5^1 197^1 cofactor=1 complete=1\n"
    path.write_text(old)

    def no_space(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", no_space)
    rc, out, err = run_cli(capsys, "verify", "--n-max", "12",
                           "--cache", str(path))
    assert rc == 2
    assert "paper reproduced" in out
    assert err == f"error: --cache {path}: {os.strerror(errno.ENOSPC)}\n"
    assert os.listdir(tmp_path) == ["cache.txt"]  # no temp file left
    assert path.read_text() == old


def test_verify_cache_that_is_a_directory_exits_2(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "verify", "--n-max", "9",
                           "--cache", str(tmp_path))
    assert rc == 2 and out == ""
    assert err == f"error: --cache {tmp_path}: Is a directory\n"


def test_verify_cache_in_a_missing_directory_exits_2_before_the_sweep(
        capsys, tmp_path, monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "verify_range", sweep)
    path = tmp_path / "missing" / "cache.txt"
    rc, out, err = run_cli(capsys, "verify", "--n-max", "9",
                           "--cache", str(path))
    assert rc == 2 and out == ""
    assert err == f"error: --cache {path}: no such directory\n"
    assert not path.parent.exists()


def test_verify_ignores_cache_env_var(capsys, tmp_path, monkeypatch):
    # --cache is the one way to name the cache file
    path = tmp_path / "cache.txt"
    monkeypatch.setenv("PELLCHECK_CACHE", str(path))
    rc, _, _ = run_cli(capsys, "verify", "--n-max", "9")
    assert rc == 0
    assert not path.exists()


def test_verify_interrupt_exits_130_and_writes_no_cache(capsys, tmp_path,
                                                         monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "verify_range", interrupted)
    path = tmp_path / "cache.txt"
    rc, out, err = run_cli(capsys, "verify", "--n-max", "9",
                           "--cache", str(path))
    assert rc == 130
    assert out == "" and err == "interrupted\n"
    assert not path.exists()

    # Ctrl-C while the sweep waits for its pool: the workers ignore SIGINT
    # and verify_range ends them before the CLI reports the interrupt
    real = verifier.verify_index

    def interrupted_at_9(n, *args, **kwargs):
        if n == 9:
            raise KeyboardInterrupt
        return real(n, *args, **kwargs)

    monkeypatch.setattr(cli, "verify_range", verifier.verify_range)
    monkeypatch.setattr(pool, "worker_count", lambda: 2)
    monkeypatch.setattr(verifier, "verify_index", interrupted_at_9)
    rc, out, err = run_cli(capsys, "verify", "--n-max", "60",
                           "--cache", str(path))
    assert rc == 130
    assert out == "" and err == "interrupted\n"
    assert not path.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", [["factor", "--value", "12"],
                                     ["lehmer", "--value", "12"],
                                     ["verify"]])
def test_no_policy_flags_give_the_default_policy(command):
    args = build_parser().parse_args(command)
    assert cli._policy_from(args) == FactorPolicy()


@pytest.mark.parametrize("flag, field", [
    ("--trial-bound", "trial_bound"),
    ("--rho-budget", "rho_budget_ms"),
    ("--max-total", "max_total_ms"),
    ("--pm1-b1", "pm1_b1"),
    ("--pm1-b2", "pm1_b2"),
    ("--seed", "seed"),
])
def test_policy_flag_sets_its_field(flag, field):
    args = build_parser().parse_args(["verify", flag, "7"])
    assert cli._policy_from(args) == FactorPolicy(**{field: 7})


@pytest.mark.parametrize("flag, value", [("--trial-bound", 10**10),
                                         ("--pm1-b1", 10**10),
                                         ("--pm1-b2", 10**18)])
def test_oversized_policy_bound_exits_2(capsys, flag, value):
    # refused when the policy is built, before any table is sized
    rc, out, err = run_cli(capsys, "factor", "--value", "12", flag, str(value))
    assert rc == 2 and out == ""
    assert flag[2:].replace("-", "_") in err  # names the policy field


def test_bounds_human(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--n", "3000", "--k", "15")
    assert rc == 0
    assert "CONTRADICTION" in out
    assert "38539 digits" in out
    assert "index < 21" in out


def test_bounds_structured(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--n", "300", "--k", "15",
                         "--format", "structured")
    assert rc == 0
    data = parse_json(out)
    assert data["ineq_a_holds"] is True
    assert data["pomerance_rhs_digits"] == 38539
    assert data["pomerance_rhs"] == 15 ** (2**15)
    assert data["final_threshold"] == 21


def test_bounds_invalid_n(capsys):
    rc, _, err = run_cli(capsys, "bounds", "--n", "10", "--k", "15")
    assert rc == 2
    assert "n >= 16" in err


def test_unknown_flag_is_error():
    with pytest.raises(SystemExit) as exc:
        main(["pell", "--n", "7", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_command_is_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_negative_index_is_error():
    with pytest.raises(SystemExit) as exc:
        main(["pell", "--n", "-3"])
    assert exc.value.code == 2


def test_index_cap():
    with pytest.raises(SystemExit) as exc:
        main(["pell", "--n", "1000001"])   # just above the cap
    assert exc.value.code == 2


def test_identities_n_max_bound():
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--n-max", "20001"])   # just above the bound
    assert exc.value.code == 2


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["pell", "--n", "5"],
                                  ["verify", "--n-max", "10"]],
                         ids=["pell", "verify"])
def test_closed_stdout_exits_141(argv, buffered):
    # the read end is closed before the child starts, so its output can
    # never be delivered, whenever the child writes or flushes it
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pellcheck", *argv], stdout=write_end,
            stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == ""


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "pellcheck", "pell", "--n", "7"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "169\n"


@pytest.mark.skipif(not HAS_PROC, reason="needs /proc")
def test_ctrl_c_during_a_sweep_ends_every_process(tmp_path):
    # a real SIGINT to the whole process group a second into the sweep
    path = tmp_path / "cache.txt"
    proc = subprocess.Popen(
        [sys.executable, "-m", "pellcheck", "verify", "--n-max", "200",
         "--cache", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        time.sleep(1.0)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130
    assert out == "" and err == "interrupted\n"
    assert not path.exists()
    wait_until(lambda: not session_members(proc.pid), 5)
    assert session_members(proc.pid) == []


def test_zero_target_names_offending_flag(capsys):
    rc, _, err = run_cli(capsys, "factor", "--n", "0")
    assert rc == 2 and "--n" in err
    rc, _, err = run_cli(capsys, "lehmer", "--value", "0")
    assert rc == 2 and "--value" in err


def test_commands_load_no_dataclasses_or_inspect():
    # the records are NamedTuples and plain classes, so no process pays
    # for dataclasses and the inspect, ast, dis and tokenize it loads
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    loaded = f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    bare = subprocess.run([sys.executable, "-c", "import sys; " + loaded],
                          capture_output=True, text=True)
    assert bare.returncode == 0, bare.stderr
    if bare.stdout != "[]\n":
        pytest.skip(f"the bare interpreter loads {bare.stdout.strip()}")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = (
        "import sys\n"
        "import pellcheck.cli\n"
        "from pellcheck import (bound_chain, lehmer_check,\n"
        "                       run_identity_suite, verify_range)\n"
        "bound_chain(2500, 16)\n"
        "run_identity_suite(100)\n"
        "verify_range(40)\n"
        "lehmer_check(999_999_999_995)\n"
        + loaded + "\n"
    )
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
