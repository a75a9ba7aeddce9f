"""pellcheck benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pellcheck checkout (the program is imported from
its `src/`).  Each workload runs its job in fresh pellcheck processes, one
at a time, in whole rounds until S seconds have passed (at least one
round), and checks every output with perfbench/oracle.py.  With --trace 0
it prints the end-to-end metrics; with --trace 1 each round is run once
untraced and once traced, and it prints the per-layer metrics and the
tracing overhead.  The last line of stdout is the result as JSON; the
same object is written to perfbench/out/, with the traced spans beside it.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

#: Every run ends within this many seconds or fails without a result.
RUN_DEADLINE_S = 170.0
#: Cold starts timed per run; setup_s is their median.
SETUP_SAMPLES = 5

SWEEP_N_MAX = 200
#: The warm sweep stops below index 113, whose p-1 stage-2 walk alone
#: takes longer than a run may last (see README.md).
WARM_N_MAX = 112
LEHMER_BLOCK = 100_000
LEHMER_SHARDS = 4
LEHMER_LOW, LEHMER_HIGH = 9 * 10**11, 10**12
#: Fixed candidate for the lehmer-range cold start: it builds the trial
#: division table and is rejected by the witness 5 (5 | N, N = 3 mod 4).
LEHMER_SETUP_VALUE = 10**12 - 5
ANALYTIC_KS = (1, 4, 8, 12, 14, 16)


class BenchError(Exception):
    """The run cannot produce a result (time limit, missing program)."""


@dataclass
class Proc:
    rc: int
    wall_s: float
    stdout: str
    stderr: str
    rss_mb: float = 0.0


class Runner:
    """Starts one process at a time and times it."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("PELLCHECK_CACHE", None)

    def run(self, argv: list[str]) -> Proc:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            # A blocking wait with a kill timer, not wait(timeout): that
            # polls with sleeps of up to 50 ms, which would add up to 50 ms
            # to every process timed here (a cold start takes 64 ms).
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                rc = proc.wait()
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        if wall >= timeout:
            raise BenchError(f"{argv[1:4]} killed at the run deadline")
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Proc(rc, wall, stdout, stderr)

    def pellcheck(self, *args: str) -> Proc:
        return self.run([sys.executable, "-m", "pellcheck", *args])

    def child(self, mode: str, *job: str) -> tuple[Proc, dict]:
        """Run child.py; returns the process and its record (trace, RSS).

        The record also gets the process's wall time, for check_trace.
        """
        out = os.path.join(self.workdir, "child.out")
        trace = os.path.join(self.workdir, "child.trace")
        for path in (out, trace):
            if os.path.exists(path):
                os.remove(path)
        proc = self.run([sys.executable, CHILD, mode, out, trace, *job])
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                proc.stdout = fh.read()
        spans = {}
        if os.path.exists(trace):
            with open(trace, encoding="utf-8") as fh:
                spans = json.load(fh)
            proc.rss_mb = spans.pop("rss_mb")
            spans["wall_s"] = proc.wall_s
        return proc, spans


@dataclass
class Round:
    """One pass over a workload's job."""

    wall_s: float = 0.0
    slowest_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    report: str = ""
    reasons: dict[str, int] = field(default_factory=dict)

    def add(self, proc: Proc, slowest: float | None = None) -> None:
        self.wall_s += proc.wall_s
        self.slowest_s = max(self.slowest_s,
                             proc.wall_s if slowest is None else slowest)
        self.rss_mb = max(self.rss_mb, proc.rss_mb)

    def fail(self, count: int, errors: list[str]) -> None:
        self.failed += count
        self.errors += errors


def _mode(traced: bool) -> str:
    return "trace" if traced else "index"


def _setup_check(proc: Proc, what: str) -> list[str]:
    if proc.rc != 0:
        return [f"set-up {what} exited {proc.rc}: {proc.stderr[-300:]}"]
    return []


# ---------------------------------------------------------------------------
# workloads


class Sweep:
    """`pellcheck verify --n-max N --format structured`, cold or warm."""

    def __init__(self, runner: Runner, n_max: int, warm: bool):
        self.runner = runner
        self.n_max = n_max
        self.warm = warm
        self.master = os.path.join(runner.workdir, "cache.master")
        self.copy = os.path.join(runner.workdir, "cache.txt")
        self.cache_lines = 0

    def _cache_args(self) -> list[str]:
        if not self.warm:
            return []
        shutil.copyfile(self.master, self.copy)
        return ["--cache", self.copy]

    def prepare(self) -> list[str]:
        if not self.warm:
            return []
        proc = self.runner.pellcheck("verify", "--n-max", str(self.n_max),
                                     "--format", "structured",
                                     "--cache", self.master)
        errors = _setup_check(proc, "cold run that writes the cache")
        if os.path.exists(self.master):
            with open(self.master, encoding="utf-8") as fh:
                self.cache_lines = sum(1 for line in fh if line.strip())
        if self.cache_lines == 0:
            errors.append("the cold run wrote an empty cache file")
        return errors

    def setup(self) -> Proc:
        return self.runner.pellcheck("verify", "--n-max", "1", "--format",
                                     "structured", *self._cache_args())

    def round(self, traced: bool) -> Round:
        r = Round(attempted=self.n_max)
        argv = ["verify", "--n-max", str(self.n_max), "--format",
                "structured", *self._cache_args()]
        proc, spans = self.runner.child(_mode(traced), "cli", *argv)
        samples = spans.get("samples", {}).get("verifier.verify_index", [])
        r.add(proc, max(samples, default=0.0))
        if traced:
            r.traces.append(spans)
        r.report = proc.stdout
        if proc.rc != 0:
            r.fail(self.n_max, [f"verify exited {proc.rc}: "
                                f"{proc.stderr[-300:]}"])
            return r
        cache = (self.copy, self.cache_lines) if self.warm else (None, 0)
        failed, errors = oracle.check_sweep_report(proc.stdout, self.n_max,
                                                   cache)
        r.fail(failed, errors)
        if not errors:
            r.reasons = oracle.reason_counts(proc.stdout)
        return r


class LehmerRange:
    """lehmer_check on every integer of a seeded block below 10**12."""

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        rng = random.Random(f"lehmer-range:{seed}")
        self.start = rng.randrange(LEHMER_LOW, LEHMER_HIGH - LEHMER_BLOCK)
        self.phis: list[int] = []

    def prepare(self) -> list[str]:
        self.phis = oracle.totients(self.start, LEHMER_BLOCK)
        return []

    def setup(self) -> Proc:
        return self.runner.child("index", "lehmer", str(LEHMER_SETUP_VALUE),
                                 "1")[0]

    def round(self, traced: bool) -> Round:
        r = Round(attempted=LEHMER_BLOCK)
        shard = LEHMER_BLOCK // LEHMER_SHARDS
        for i in range(LEHMER_SHARDS):
            lo = self.start + i * shard
            proc, spans = self.runner.child(_mode(traced), "lehmer",
                                            str(lo), str(shard))
            r.add(proc)
            if traced:
                r.traces.append(spans)
            lines = proc.stdout.splitlines()
            if proc.rc != 0:
                r.fail(shard, [f"shard at {lo} exited {proc.rc}: "
                               f"{proc.stderr[-300:]}"])
                continue
            failures = oracle.check_lehmer_block(
                lo, self.phis[i * shard:(i + 1) * shard], lines)
            r.fail(len(failures), failures)
            for line in lines:
                parts = line.split()
                if len(parts) == 3:
                    r.reasons[parts[1]] = r.reasons.get(parts[1], 0) + 1
        return r


class Analytic:
    """Cold `bounds --n N --k K` calls, then one `identities --n-max M`."""

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        rng = random.Random(f"analytic:{seed}")
        self.grid = [(rng.randrange(16, 3000), k) for k in ANALYTIC_KS]
        self.m = rng.randrange(4000, 5001)

    def prepare(self) -> list[str]:
        return []

    def setup(self) -> Proc:
        return self.runner.pellcheck("bounds", "--n", "16", "--k", "1",
                                     "--format", "structured")

    def _call(self, traced: bool, *argv: str) -> tuple[Proc, dict]:
        return self.runner.child(_mode(traced), "cli", *argv)

    def round(self, traced: bool) -> Round:
        r = Round(attempted=len(self.grid) + 1)
        for n, k in self.grid:
            proc, spans = self._call(traced, "bounds", "--n", str(n), "--k",
                                     str(k), "--format", "structured")
            r.add(proc)
            if traced:
                r.traces.append(spans)
            try:
                errors = oracle.check_bounds_call(n, k, json.loads(proc.stdout))
            except ValueError as exc:
                errors = [f"bounds n={n} k={k}: rc {proc.rc}, {exc}"]
            if proc.rc != 0:
                errors.append(f"bounds n={n} k={k} exited {proc.rc}")
            if errors:
                r.fail(1, errors)
        proc, spans = self._call(traced, "identities", "--n-max", str(self.m),
                                 "--format", "structured")
        r.add(proc)
        if traced:
            r.traces.append(spans)
        try:
            errors = oracle.check_identities_call(self.m, proc.rc,
                                                  json.loads(proc.stdout))
        except ValueError as exc:
            errors = [f"identities: rc {proc.rc}, {exc}"]
        if errors:
            r.fail(1, errors)
        return r


WORKLOADS = {
    # the sweeps' inputs are fixed by definition; the seed does not enter
    "sweep-200": lambda run, seed: Sweep(run, SWEEP_N_MAX, warm=False),
    "sweep-112-warm": lambda run, seed: Sweep(run, WARM_N_MAX, warm=True),
    "lehmer-range": LehmerRange,
    "analytic": Analytic,
}


# ---------------------------------------------------------------------------
# metrics


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def check_trace(spans: dict) -> list[str]:
    """A traced CLI process has one root span, `cli.main`, inside its wall.

    Self times add up to the root spans' time by construction (each span
    passes its duration to its parent), so with `cli.main` the only root
    they add up to `cli.main.s`.  What can go wrong is a wrapped call made
    outside `cli.main`, or a clock that disagrees with the parent's.
    """
    if spans.get("job") != "cli":
        return []
    calls, total, _ = spans["stats"].get("cli.main", (0, 0.0, 0.0))
    errors = []
    if calls != 1 or abs(total - spans["root_s"]) > 1e-9 * max(1.0, total):
        errors.append(f"cli.main ({calls} call(s), {total} s) is not the "
                      f"only root span ({spans['root_s']} s)")
    if total > spans["wall_s"]:
        errors.append(f"cli.main.s {total} exceeds the process's wall "
                      f"time {spans['wall_s']}")
    return errors


def layer_metrics(r: Round) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of one traced round, summed over its processes."""
    stats: dict[str, list[float]] = {}
    samples: list[float] = []
    hits = 0
    for t in r.traces:
        for name, (calls, total, self_s) in t.get("stats", {}).items():
            rec = stats.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        samples += t.get("samples", {}).get("verifier.verify_index", [])
        hits += t.get("cache_hits", 0)
    errors = [e for t in r.traces for e in check_trace(t)]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    work_units = 0
    if r.report:
        try:
            work_units = json.loads(r.report)["summary"]["total_work_units"]
        except (ValueError, KeyError):
            errors.append("traced report has no total_work_units")
    values = {
        "arith.factor.decide.calls": calls("arith.factor.decide"),
        "arith.factor.decide.s": total("arith.factor.decide"),
        "arith.factor.seed.calls": calls("arith.factor.seed"),
        "arith.factor.seed.s": total("arith.factor.seed"),
        "verifier.seeds_for.s": total("verifier.seeds_for"),
        "arith.is_probable_prime.calls": calls("arith.is_probable_prime"),
        "arith.is_probable_prime.s": total("arith.is_probable_prime"),
        "lehmer.lehmer_check.calls": calls("lehmer.lehmer_check"),
        "lehmer.lehmer_check.self_s":
            stats.get("lehmer.lehmer_check", [0, 0.0, 0.0])[2],
        "verifier.verify_index.p50_s": _percentile(samples, 0.50),
        "verifier.verify_index.p95_s": _percentile(samples, 0.95),
        "verifier.verify_index.max_s": max(samples, default=0.0),
        "verifier.work_units": work_units,
        "verifier.cache.lookups": calls("verifier.cache.load"),
        "verifier.cache.hits": hits,
        "verifier.cache.read_s": total("verifier.cache.read"),
        "verifier.cache.write_s": total("verifier.cache.write"),
        "intervals.certify.calls": calls("intervals.certify"),
        "intervals.certify.s": total("intervals.certify"),
        "verifier.final_threshold.s": total("verifier.final_threshold"),
        "verifier.bounds_summary.s": total("verifier.bounds_summary"),
        "identities.split_pell_minus_one.calls":
            calls("identities.split_pell_minus_one"),
        "identities.split_pell_minus_one.s":
            total("identities.split_pell_minus_one"),
        "verifier.run_identity_suite.s": total("verifier.run_identity_suite"),
        "sequences.pell_pair.calls": calls("sequences.pell_pair"),
        "sequences.pell_pair.s": total("sequences.pell_pair"),
        "verifier.to_json.s": total("verifier.to_json"),
        "verifier.report_bytes": len(r.report.encode()),
        "cli.main.s": total("cli.main"),
    }
    return values, errors


def load_metric_specs() -> dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def measure(name: str, seed: int, seconds: int, traced: bool,
            runner: Runner) -> tuple[dict, list[str], dict]:
    """Run one workload; returns (result, human lines, trace summary)."""
    workload = WORKLOADS[name](runner, seed)
    errors = workload.prepare()
    setups = []
    for _ in range(SETUP_SAMPLES):
        proc = workload.setup()
        errors += _setup_check(proc, "cold start")
        setups.append(proc.wall_s)
    plain: list[Round] = []
    traced_rounds: list[Round] = []
    end = time.monotonic() + seconds
    while True:
        plain.append(workload.round(traced=False))
        if traced:
            traced_rounds.append(workload.round(traced=True))
        if time.monotonic() >= end:
            break
    rounds = plain + traced_rounds
    for r in rounds:
        errors += r.errors
    reports = {r.report for r in rounds if r.report}
    if len(reports) > 1:
        errors.append("repeated runs gave reports that are not "
                      "byte-identical")
    if traced:
        per_round = []
        for r in traced_rounds:
            values, layer_errors = layer_metrics(r)
            per_round.append(values)
            errors += layer_errors
        metrics = {key: statistics.median(v[key] for v in per_round)
                   for key in per_round[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in traced_rounds)
            - statistics.median(r.wall_s for r in plain))
    else:
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "setup_s": statistics.median(setups),
            "slowest_index_s": statistics.median(r.slowest_s for r in plain),
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        }
    specs = load_metric_specs()
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": specs[k]["unit"]}
                    for k, v in metrics.items()},
    }
    lines = [f"workload {name}, seed {seed}, trace {int(traced)}: "
             f"{len(plain)} round(s) untraced, {len(traced_rounds)} traced"]
    if plain[0].reasons:
        lines.append("reasons: " + ", ".join(
            f"{k} {v}" for k, v in sorted(plain[0].reasons.items())))
    lines += [f"  {k} = {v['value']:.6g} {v['unit']}"
              for k, v in result["metrics"].items()]
    lines.append(f"attempted {attempted}, failed {failed}, "
                 f"correct {result['correct']}")
    lines += [f"ERROR {e}" for e in errors[:20]]
    trace_summary = {"rounds": [r.traces for r in traced_rounds]}
    return result, lines, trace_summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pellcheck", "__init__.py")):
        print(f"error: no pellcheck sources under {SRC}", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # bounds reports carry huge integers
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        runner = Runner(workdir, deadline)
        result, lines, trace = measure(args.workload, args.seed,
                                       args.seconds, bool(args.trace), runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        with open(os.path.join(OUT_DIR, f"trace-{stem}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(trace, fh)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
