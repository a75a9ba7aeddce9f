"""Command-line front end.

Subcommands: pell, factor, lehmer, identities, verify, bounds.  Structured
output goes to stdout as canonical JSON; diagnostics go to stderr.  Exit
status: 0 success / verified, 1 verification failure or undecided results,
2 invalid arguments or a failed cache write, 130 interrupted (Ctrl-C; an
interrupted sweep writes no cache file), 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .arith import FactorPolicy, big_int_strings, factor
from .lehmer import LehmerStatus, lehmer_check
from .sequences import digits10, pell_pair
from .verifier import (
    FactorCache,
    bound_chain,
    canonical_json,
    run_identity_suite,
    verify_range,
)

#: the largest index any command accepts
INDEX_CAP = 1_000_000

#: the largest `identities --n-max`; it bounds time (about 4 s at this
#: bound), since the suite holds a constant number of values at any N
IDENTITIES_N_MAX = 20_000

#: (flag, FactorPolicy field, help) for each policy flag; the defaults are
#: FactorPolicy's own
_POLICY_FLAGS = (
    ("--trial-bound", "trial_bound", "largest trial-division prime"),
    ("--rho-budget", "rho_budget_ms", "per-attempt rho budget in ms"),
    ("--max-total", "max_total_ms", "overall factoring budget in ms"),
    ("--pm1-b1", "pm1_b1", "p-1 stage-1 bound (0 disables)"),
    ("--pm1-b2", "pm1_b2", "p-1 stage-2 bound (0 disables)"),
    ("--seed", "seed", "seed for pseudo-random parameter choices"),
)


def _policy_args(sub: argparse.ArgumentParser) -> None:
    defaults = FactorPolicy()
    for flag, name, text in _POLICY_FLAGS:
        sub.add_argument(flag, dest=name, type=int,
                         default=getattr(defaults, name), help=text)


def _policy_from(args: argparse.Namespace) -> FactorPolicy:
    return FactorPolicy(**{name: getattr(args, name)
                           for _, name, _ in _POLICY_FLAGS})


def _format_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("human", "structured"),
                     default="human", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pellcheck",
        description="Verify that Pell numbers never have the Lehmer property.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_pell = commands.add_parser("pell", help="print P_n")
    p_pell.add_argument("--n", type=int, required=True)
    p_pell.add_argument("--pair", action="store_true",
                        help="print the companion value too")

    p_factor = commands.add_parser("factor", help="factor P_n or a raw value")
    group = p_factor.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="Pell index to factor")
    group.add_argument("--value", type=int, help="raw integer to factor")
    _policy_args(p_factor)
    _format_arg(p_factor)

    p_lehmer = commands.add_parser("lehmer",
                                   help="Lehmer check for P_n or a raw value")
    group = p_lehmer.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="Pell index to check")
    group.add_argument("--value", type=int, help="raw candidate to check")
    _policy_args(p_lehmer)
    _format_arg(p_lehmer)

    p_ident = commands.add_parser("identities",
                                  help="run the identity sweep up to --n-max")
    p_ident.add_argument("--n-max", type=int, required=True)
    _format_arg(p_ident)

    p_verify = commands.add_parser("verify",
                                   help="verify indices 1..n-max")
    p_verify.add_argument("--n-max", type=int, default=200)
    p_verify.add_argument("--cache", type=str, help="factor cache file")
    p_verify.add_argument("--verbose", "-v", action="store_true",
                          help="per-index progress on stderr")
    _policy_args(p_verify)
    _format_arg(p_verify)

    p_bounds = commands.add_parser("bounds",
                                   help="evaluate the bound chain at (n, k)")
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--k", type=int, default=15)
    _format_arg(p_bounds)

    return parser


def _check_index(parser: argparse.ArgumentParser, name: str,
                 value: int) -> None:
    if value < 0:
        parser.error(f"{name} must be >= 0, got {value}")
    if value > INDEX_CAP:
        parser.error(f"{name}={value} exceeds the index cap {INDEX_CAP}")


def _cmd_pell(args: argparse.Namespace) -> int:
    pair = pell_pair(args.n)
    with big_int_strings():
        print(pair.p)
        if args.pair:
            print(pair.q)
    return 0


def _target(args: argparse.Namespace) -> int:
    """P_n for --n, or the --value itself; a target below 1 is refused."""
    if args.n is not None:
        flag, target = "--n", pell_pair(args.n).p
    else:
        flag, target = "--value", args.value
    if target < 1:
        raise ValueError(f"{flag} gives target {target}; "
                         "need a positive integer")
    return target


def _cmd_factor(args: argparse.Namespace) -> int:
    target = _target(args)
    f = factor(target, _policy_from(args))
    if args.format == "structured":
        payload = {**f._asdict(), "complete": f.complete}
        sys.stdout.write(canonical_json(payload))
        return 0
    with big_int_strings():
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in f.factors]
        if f.cofactor != 1:
            parts.append(f"[composite cofactor {f.cofactor}]")
        rhs = " * ".join(parts) if parts else "1"
        status = "complete" if f.complete else "INCOMPLETE"
        print(f"{target} = {rhs}  ({status})")
    return 0


def _cmd_lehmer(args: argparse.Namespace) -> int:
    target = _target(args)
    verdict = lehmer_check(target, _policy_from(args))
    if args.format == "structured":
        payload = {
            "target": verdict.target,
            "status": verdict.status.value,
            "reason": verdict.reason.value,
            "evidence": verdict.evidence,
        }
        sys.stdout.write(canonical_json(payload))
    else:
        with big_int_strings():
            extra = (f", evidence {verdict.evidence}"
                     if verdict.evidence else "")
            print(f"{target}: {verdict.status.value} "
                  f"({verdict.reason.value}{extra})")
    if verdict.status == LehmerStatus.UNDECIDED:
        return 1
    return 0


def _cmd_identities(args: argparse.Namespace) -> int:
    result = run_identity_suite(args.n_max)
    if args.format == "structured":
        payload = {**result._asdict(), "all_ok": result.all_ok}
        sys.stdout.write(canonical_json(payload))
    else:
        print(f"companion relation up to {result.n_max}: "
              f"{'ok' if result.pq_relation_ok else 'FAIL'}")
        print(f"P_n - 1 split products (odd n): "
              f"{'ok' if result.split_product_ok else 'FAIL'}")
        print(f"2-adic valuation rules up to {result.nu2_n_max}: "
              f"{'ok' if result.nu2_lemma_ok else 'FAIL'}")
        print(f"valuation transfer for P_n - 1 (odd n): "
              f"{'ok' if result.nu2_transfer_ok else 'FAIL'}")
        for failure in result.failures:
            print(f"  {failure}", file=sys.stderr)
    return 0 if result.all_ok else 1


def _stage_units(units: dict[str, int]) -> str:
    """The stages that did any work, as `[stage=units ...]`."""
    return "[" + " ".join(f"{stage}={u}" for stage, u in units.items()
                          if u) + "]"


def _print_progress(r) -> None:
    print(f"n={r.n}: {r.verdict.status.value}/{r.verdict.reason.value} "
          f"({r.elapsed_ms:.0f} ms) "
          f"decide{_stage_units(r.decide_stage_units)}", file=sys.stderr)


def _cmd_verify(args: argparse.Namespace) -> int:
    policy = _policy_from(args)
    cache = None
    if args.cache:  # refused before the sweep, not after it
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.cache))):
            raise ValueError(f"--cache {args.cache}: no such directory")
        try:
            cache = FactorCache(args.cache)
        except OSError as exc:
            raise ValueError(f"--cache {args.cache}: {exc.strerror}") from None
    report = verify_range(args.n_max, policy, cache=cache,
                          on_index=_print_progress if args.verbose else None)
    try:
        if args.format == "structured":
            sys.stdout.write(report.to_json())
        else:
            print(report.human_table())
        sys.stdout.flush()
    finally:  # the report first, and the cache even if stdout is closed
        if cache is not None:
            try:
                cache.write_file()
            except OSError as exc:
                raise ValueError(
                    f"--cache {args.cache}: {exc.strerror}") from None
    return 0 if report.reproduced else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    report = bound_chain(args.n, args.k)
    if args.format == "structured":
        payload = {**report._asdict(),
                   "pomerance_rhs_digits": digits10(report.pomerance_rhs)}
        sys.stdout.write(canonical_json(payload))
        return 0
    print(f"n={report.n} k={report.k}")
    print(f"size bound k^(2^k): {digits10(report.pomerance_rhs)} digits")
    print(f"2^k * ln k > n/3: {report.ineq_a_holds}")
    print(f"2^k > n / (4 ln ln n): {report.ineq_b_holds}")
    if report.two_power_targets is not None:
        t_lo, t_hi = report.two_power_targets
        where = f"{t_lo} or {t_hi}"
    else:
        where = "(n-1)/2 or (n+1)/2"
    if report.two_power_satisfiable:
        print(f"2^{report.two_power_exponent} must divide {where}: "
              f"satisfiable")
    else:
        print(f"2^{report.two_power_exponent} must divide {where}: "
              f"CONTRADICTION (impossible for every index below "
              f"{report.two_power_min_index})")
    print(f"final threshold: index < {report.final_threshold}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("pell", "factor", "lehmer") and args.n is not None:
        _check_index(parser, "--n", args.n)
    if args.command in ("identities", "verify"):
        _check_index(parser, "--n-max", args.n_max)
        if args.n_max < 1:
            parser.error("--n-max must be >= 1")
    if args.command == "identities" and args.n_max > IDENTITIES_N_MAX:
        parser.error(f"--n-max={args.n_max} exceeds the identities bound "
                     f"{IDENTITIES_N_MAX}")
    handlers = {
        "pell": _cmd_pell,
        "factor": _cmd_factor,
        "lehmer": _cmd_lehmer,
        "identities": _cmd_identities,
        "verify": _cmd_verify,
        "bounds": _cmd_bounds,
    }
    try:
        rc = handlers[args.command](args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to /dev/null, so
        # that the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
