"""One measured pellcheck process, started by run.py.

    python3 perfbench/child.py MODE OUT TRACE_OUT cli ARGS...
    python3 perfbench/child.py MODE OUT TRACE_OUT lehmer START COUNT

MODE is `index` or `trace`.  `cli` runs `pellcheck.cli.main(ARGS)`
in this process and writes what it prints to OUT; `lehmer` runs
`lehmer_check` on START .. START+COUNT-1 and writes one
`status reason evidence` line per candidate to OUT.

`index` times only whole calls of `verify_index` (one timer per index;
the lehmer and `bounds`/`identities` jobs never call it).  `trace` wraps
the public functions of every pellcheck module, in every module namespace
that imports them, and records for each span name its call count, total
time and self time (total minus the time of wrapped calls made inside
it).  TRACE_OUT receives, as JSON, the job, the timings and the process's
peak resident memory.  The peak is read here because the parent's rusage
figure for a child also counts the parent's own memory, which the child
inherits at fork.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import pellcheck  # noqa: E402
from pellcheck import (  # noqa: E402
    arith, cli, identities, intervals, lehmer, sequences, verifier,
)

if not os.path.abspath(pellcheck.__file__).startswith(SRC + os.sep):
    sys.exit(f"pellcheck imported from {pellcheck.__file__}, not {SRC}")

MODULES = (pellcheck, sequences, identities, arith, lehmer, intervals,
           verifier, cli)

#: (defining module, function) -> span name.  `factor` gets its span name
#: from the importing namespace instead: see _factor_span.
FUNCTIONS = {
    (sequences, "pell_pair"): "sequences.pell_pair",
    (identities, "split_pell_minus_one"): "identities.split_pell_minus_one",
    (arith, "is_probable_prime"): "arith.is_probable_prime",
    (arith, "factor"): None,
    (lehmer, "lehmer_check"): "lehmer.lehmer_check",
    (intervals, "certify"): "intervals.certify",
    (verifier, "verify_index"): "verifier.verify_index",
    (verifier, "final_threshold"): "verifier.final_threshold",
    (verifier, "bounds_summary"): "verifier.bounds_summary",
    (verifier, "run_identity_suite"): "verifier.run_identity_suite",
    (cli, "main"): "cli.main",
}

METHODS = {
    (verifier.VerifyContext, "seeds_for"): "verifier.seeds_for",
    (verifier.FactorCache, "load"): "verifier.cache.load",
    (verifier.FactorCache, "read_file"): "verifier.cache.read",
    (verifier.FactorCache, "write_file"): "verifier.cache.write",
    (verifier.VerificationReport, "to_json"): "verifier.to_json",
}


def _factor_span(namespace) -> str:
    """`factor` called to decide a candidate, to seed one, or otherwise."""
    if namespace is lehmer:
        return "arith.factor.decide"
    if namespace is verifier:
        return "arith.factor.seed"
    return "arith.factor"


class Tracer:
    """Per-name call counts, total and self times, and per-call samples."""

    def __init__(self, sampled: tuple[str, ...]):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.samples: dict[str, list[float]] = {n: [] for n in sampled}
        self.cache_hits = 0
        self.root_s = 0.0
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        stack, stats, samples = self._stack, self.stats, self.samples
        counts_hits = name == "verifier.cache.load"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += d
                else:
                    self.root_s += d
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += d
                rec[2] += d - inner[0]
                if name in samples:
                    samples[name].append(d)
            if counts_hits and result is not None:
                self.cache_hits += 1
            return result

        return span

    def install(self, only: tuple[str, ...] = ()) -> None:
        """Replace each selected name in every namespace that holds it."""
        for (home, attr), name in FUNCTIONS.items():
            original = getattr(home, attr)
            wrapped = {}
            for ns in MODULES:
                if getattr(ns, attr, None) is not original:
                    continue
                span = name or _factor_span(ns)
                if only and span not in only:
                    continue
                if span not in wrapped:
                    wrapped[span] = self.wrap(span, original)
                setattr(ns, attr, wrapped[span])
        for (cls, attr), name in METHODS.items():
            if not only or name in only:
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    def to_dict(self) -> dict:
        return {"stats": self.stats, "samples": self.samples,
                "cache_hits": self.cache_hits, "root_s": self.root_s}


def run_cli(argv: list[str], out_path: str) -> int:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            rc = exc.code if isinstance(exc.code, int) else 1
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    return rc


def run_lehmer(start: int, count: int, out_path: str) -> int:
    lines = []
    for value in range(start, start + count):
        v = lehmer.lehmer_check(value)
        evidence = "-" if v.evidence is None else str(v.evidence)
        lines.append(f"{v.status.value} {v.reason.value} {evidence}\n")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return 0


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    mode, out_path, trace_path, job, *rest = argv
    tracer = Tracer(sampled=("verifier.verify_index",))
    if mode == "trace":
        tracer.install()
    else:
        tracer.install(only=("verifier.verify_index",))
    if job == "cli":
        rc = run_cli(rest, out_path)
    else:
        rc = run_lehmer(int(rest[0]), int(rest[1]), out_path)
    record = tracer.to_dict()
    record["job"] = job
    record["rss_mb"] = peak_rss_mb()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
