"""Command-line front end.

Subcommands: eval (sequence terms), congruence (one congruence instance,
closed form vs oracle), primetest (criterion vs oracle for one n), and scan
(parallel agreement sweeps). The data stream is JSON lines on stdout with big
integers as decimal strings; diagnostics go to stderr. Exit codes: 0 all
checks hold, 1 mathematical mismatch, 2 usage or precondition error, a
crashed scan worker or exhausted memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import cache, partial
from math import gcd
from typing import Any, Iterator, Optional

from .congruences import (
    FAMILIES,
    FAMILY_TABLE,
    GENERAL_FAMILIES,
    CongruenceReport,
    evaluate_congruence,
)
from .errors import InternalInvariantViolation, LucasKitError
from .primality import (
    PrimalityVerdict,
    divisor_sum_breakdown,
    fibonacci_primality_test,
    fibonacci_sum_residue_direct,
    is_prime_oracle,
    mersenne_primality_test,
    remark_check,
)
from .residues import ResidueClass, TrivialModulus
from .sequences import _u_term_reserve, make_params, u_pair_exact, u_pair_mod

PRIMETEST_METHODS = (
    "mersenne-sum",
    "mersenne-sum-direct",
    "fib-sum",
    "fib-sum-direct",
    "divisor-sum",
    "oracle",
)
SCAN_METHODS = ("mersenne-sum", "fib-sum", "remark", "divisor-sum", "congruence-grid")

# Coefficient grid shared by the congruence-grid scan: P in 1..5, Q in -3..3,
# coprime pairs only.
COEFFICIENT_GRID = tuple(
    (p, q)
    for p in range(1, 6)
    for q in range(-3, 4)
    if gcd(p, abs(q)) == 1
)
SHIFT_R_RANGE = range(0, 7)


def _encode_outcome(x: ResidueClass | TrivialModulus) -> dict[str, Any]:
    if isinstance(x, TrivialModulus):
        return {"trivial_modulus": True}
    return {"value": str(x.value), "modulus": str(x.modulus)}


def _encode_report(report: CongruenceReport) -> dict[str, Any]:
    return {
        "family": report.family,
        "p": report.p_coeff,
        "q": report.q_coeff,
        "k": report.k,
        "n": report.n,
        "r": report.r,
        "lhs": _encode_outcome(report.lhs),
        "rhs": _encode_outcome(report.rhs),
        "case_tag": report.case_tag.value if report.case_tag else None,
        "holds": report.holds,
    }


def _encode_verdict(verdict: PrimalityVerdict) -> dict[str, Any]:
    return {
        "n": verdict.n,
        "method": verdict.method,
        "residue": str(verdict.sum_residue.value),
        "modulus": str(verdict.sum_residue.modulus),
        "criterion_says_prime": verdict.criterion_says_prime,
        "oracle_says_prime": verdict.oracle_says_prime,
        "agree": verdict.agree,
        "elapsed": verdict.elapsed,
    }


def _emit(record: dict[str, Any], args: argparse.Namespace) -> None:
    if args.no_timing:
        record = {k: v for k, v in record.items() if k not in ("elapsed", "wall_time")}
    if args.pretty:
        width = max(len(k) for k in record)
        for key, val in record.items():
            print(f"{key:<{width}}  {val}")
    else:
        print(json.dumps(record, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    params = make_params(args.p, args.q)
    record: dict[str, Any] = {"p": args.p, "q": args.q, "n": args.n}
    if args.mod is not None:
        u_res, u_next = u_pair_mod(params, args.n, args.mod)
        record["mod"] = str(args.mod)
        record["u"] = str(u_res)
        if args.with_v:
            record["v"] = str((2 * u_next - args.p * u_res) % args.mod)
    else:
        u_n, u_next = u_pair_exact(params, args.n)
        record["u"] = str(u_n)
        if args.with_v:
            record["v"] = str(2 * u_next - args.p * u_n)
    _emit(record, args)
    return 0


def cmd_congruence(args: argparse.Namespace) -> int:
    report = evaluate_congruence(
        args.family, p=args.p, q=args.q, k=args.k, n=args.n, r=args.r
    )
    _emit(_encode_report(report), args)
    return 0 if report.holds else 1


def cmd_primetest(args: argparse.Namespace) -> int:
    n = args.n
    method = args.method
    if method == "oracle":
        started = time.perf_counter()
        prime = is_prime_oracle(n)
        _emit(
            {
                "n": n,
                "method": "oracle",
                "prime": prime,
                "elapsed": time.perf_counter() - started,
            },
            args,
        )
        return 0
    if method == "divisor-sum":
        started = time.perf_counter()
        breakdown = divisor_sum_breakdown(n)
        elapsed = time.perf_counter() - started
        oracle = is_prime_oracle(n)
        agree = breakdown.is_integer == oracle
        _emit(
            {
                "n": n,
                "method": "divisor-sum",
                "total": str(breakdown.total),
                "is_integer": breakdown.is_integer,
                "criterion_says_prime": breakdown.is_integer,
                "oracle_says_prime": oracle,
                "agree": agree,
                "elapsed": elapsed,
            },
            args,
        )
        return 0 if agree else 1
    if method in ("fib-sum", "fib-sum-direct") and args.diagnostic:
        # Residue report only, outside the criterion's hypotheses; no verdict.
        started = time.perf_counter()
        residue = fibonacci_sum_residue_direct(n)
        _emit(
            {
                "n": n,
                "method": method,
                "diagnostic": True,
                "residue": str(residue.value),
                "modulus": str(residue.modulus),
                "oracle_says_prime": is_prime_oracle(n),
                "elapsed": time.perf_counter() - started,
            },
            args,
        )
        return 0
    if method.startswith("mersenne-sum"):
        verdict = mersenne_primality_test(
            n, path="direct" if method.endswith("direct") else "fast"
        )
    else:
        verdict = fibonacci_primality_test(
            n, path="direct" if method.endswith("direct") else "fast"
        )
    _emit(_encode_verdict(verdict), args)
    return 0 if verdict.agree else 1


# ---------------------------------------------------------------------------
# Scan machinery: units of work, their checks, the parallel runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    method: str
    lo: int
    hi: int
    checked: int
    skipped: int
    skipped_values: Optional[tuple[int, ...]]
    mismatches: tuple[tuple[int, str], ...]
    workers: int
    wall_time: float


# A unit of scan work returns its items' outcomes in scan order: one mark per
# item ("-" skipped, "+" held, "x" mismatch) and the (n, detail) of each
# mismatch.
Outcomes = tuple[str, tuple[tuple[int, str], ...]]
_SKIPPED: Outcomes = ("-", ())
_HELD: Outcomes = ("+", ())

# The congruence-grid checks every general family of the table at each n, in
# table order, with the shift family last, once per r in SHIFT_R_RANGE.
GRID_VARIANTS = tuple(
    (name, None)
    for name, family in FAMILY_TABLE.items()
    if family.forced is None and not family.needs_r
) + tuple(
    (name, r)
    for name, family in FAMILY_TABLE.items()
    if family.forced is None and family.needs_r
    for r in SHIFT_R_RANGE
)


def _grid_batch(unit: tuple[int, int, int, int, int]) -> Outcomes:
    """Check every n and family variant of one (P, Q, k); details only for mismatches.

    Each item runs its family's domain check and both plain-int kernels. It
    is skipped when it lies outside the domain (main at n = 0) or the closed
    form's modulus is trivial, and it holds when the residues are equal.
    """
    p, q, k, n_lo, hi = unit
    params = make_params(p, q)
    # No index of the (P, Q) grid exceeds hi*hi + max r: one table extension
    # serves every batch of this pair.
    _u_term_reserve(params, hi * hi + SHIFT_R_RANGE[-1])
    variants = [(name, r, FAMILY_TABLE[name]) for name, r in GRID_VARIANTS]
    marks = []
    failed = []
    for n in range(n_lo, hi + 1):
        for name, r, family in variants:
            try:
                family.check(k, n, r)
            except ValueError:
                marks.append("-")
                continue
            rhs = family.closed_form(params, k, n, r)
            lhs = family.oracle(params, k, n, r)
            if rhs is None:
                marks.append("-")
            elif lhs == rhs or lhs is None:
                marks.append("+")
            else:
                marks.append("x")
                failed.append(
                    (n, f"family={name} p={p} q={q} k={k} n={n}" + (
                        f" r={r}" if r is not None else ""
                    ))
                )
    return "".join(marks), tuple(failed)


def _mismatch(n: int, detail: str) -> Outcomes:
    return "x", ((n, detail),)


def _scan_check(method: str, n: int) -> Outcomes:
    """Check one value of a per-value scan; a failed precondition skips it.

    The detail is formatted for every checked value, not only mismatches, so
    a residue wider than Python's 4300-digit str limit still stops a
    mersenne-sum scan with exit 2 from about n = 14,300 on.
    """
    if method == "mersenne-sum":
        if n < 2:
            return _SKIPPED
        verdict = mersenne_primality_test(n)
        detail = (
            f"residue={verdict.sum_residue.value} criterion={verdict.criterion_says_prime} "
            f"oracle={verdict.oracle_says_prime}"
        )
        return _HELD if verdict.agree else _mismatch(n, detail)
    if method == "fib-sum":
        if n % 4 != 1 or n < 5 or n in (9, 25):
            return _SKIPPED
        verdict = fibonacci_primality_test(n)
        detail = (
            f"residue={verdict.sum_residue.value} criterion={verdict.criterion_says_prime} "
            f"oracle={verdict.oracle_says_prime}"
        )
        return _HELD if verdict.agree else _mismatch(n, detail)
    if method == "remark":
        if n % 4 != 3 or n < 3:
            return _SKIPPED
        return _HELD if remark_check(n) else _mismatch(n, "nonzero sum residue")
    if method == "divisor-sum":
        if n < 2:
            return _SKIPPED
        breakdown = divisor_sum_breakdown(n)
        oracle = is_prime_oracle(n)
        ok = breakdown.is_integer == oracle and (
            not oracle or breakdown.total == n - 1
        )
        detail = f"total={breakdown.total} oracle={oracle}"
        return _HELD if ok else _mismatch(n, detail)
    raise ValueError(f"unknown scan method {method!r}")


def _resolve_workers(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        if flag_value < 1:
            raise ValueError("--workers must be >= 1")
        return flag_value
    env = os.environ.get("LUCAS_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"LUCAS_WORKERS must be an integer, got {env!r}")
        if value < 1:
            raise ValueError("LUCAS_WORKERS must be >= 1")
        return value
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def run_scan(
    method: str, lo: int, hi: int, workers: int = 1, fail_fast: bool = False
) -> ScanReport:
    """Run one agreement sweep; results are aggregated in input order."""
    if lo > hi:
        raise ValueError(f"--from {lo} exceeds --to {hi}")
    if method not in SCAN_METHODS:
        raise ValueError(f"unknown scan method {method!r}")
    per_value_scan = method != "congruence-grid"
    units: list[Any]
    if per_value_scan:
        units = list(range(lo, hi + 1))
        check = partial(_scan_check, method)
    else:
        # One (P, Q, k, first n, last n) batch per coefficient pair and k.
        units = [
            (p, q, k, max(lo, 0), hi)
            for p, q in COEFFICIENT_GRID
            for k in range(max(lo, 1), hi + 1)
        ]
        check = _grid_batch
    started = time.perf_counter()
    checked = 0
    skipped = 0
    skipped_values: list[int] = []
    mismatches: list[tuple[int, str]] = []

    def consume(results: Iterator[Outcomes]) -> None:
        nonlocal checked, skipped
        for unit, (marks, failed) in zip(units, results):
            if fail_fast and failed:
                marks = marks[: marks.index("x") + 1]
                failed = failed[:1]
            unit_skipped = marks.count("-")
            skipped += unit_skipped
            checked += len(marks) - unit_skipped
            if per_value_scan and unit_skipped:
                skipped_values.append(unit)
            mismatches.extend(failed)
            if fail_fast and failed:
                return

    if workers <= 1:
        consume(map(check, units))
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            chunk = max(1, len(units) // (workers * 8))
            consume(pool.map(check, units, chunksize=chunk))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    return ScanReport(
        method=method,
        lo=lo,
        hi=hi,
        checked=checked,
        skipped=skipped,
        skipped_values=tuple(skipped_values) if per_value_scan else None,
        mismatches=tuple(mismatches),
        workers=workers,
        wall_time=time.perf_counter() - started,
    )


def cmd_scan(args: argparse.Namespace) -> int:
    workers = _resolve_workers(args.workers)
    report = run_scan(args.method, args.lo, args.hi, workers, args.fail_fast)
    record: dict[str, Any] = {
        "method": report.method,
        "from": report.lo,
        "to": report.hi,
        "checked": report.checked,
        "skipped": report.skipped,
    }
    if report.skipped_values is not None:
        record["skipped_values"] = list(report.skipped_values)
    record["mismatches"] = [{"n": n, "detail": d} for n, d in report.mismatches]
    record["workers"] = report.workers
    record["wall_time"] = report.wall_time
    _emit(record, args)
    return 0 if not report.mismatches else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucaskit",
        description="Lucas sequence evaluation, congruence verification, and "
        "sum-based primality criteria with machine-readable output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--pretty", action="store_true", help="human table instead of JSON")
        p.add_argument(
            "--no-timing",
            action="store_true",
            help="omit timing fields for byte-identical reruns",
        )

    p_eval = sub.add_parser("eval", help="evaluate U_n (and V_n) exactly or mod m")
    p_eval.add_argument("-p", type=int, required=True, help="coefficient P")
    p_eval.add_argument("-q", type=int, required=True, help="coefficient Q")
    p_eval.add_argument("-n", type=int, required=True, help="index")
    p_eval.add_argument("--mod", type=int, default=None, help="reduce mod this value")
    p_eval.add_argument("--with-v", action="store_true", help="also print V_n")
    add_output_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_cong = sub.add_parser(
        "congruence", help="check one congruence instance, closed form vs oracle"
    )
    p_cong.add_argument("--family", choices=FAMILIES, required=True)
    p_cong.add_argument(
        "-p", type=int, default=None, help=f"coefficient P (required for {'/'.join(GENERAL_FAMILIES)})"
    )
    p_cong.add_argument("-q", type=int, default=None, help="coefficient Q")
    p_cong.add_argument("-k", type=int, required=True)
    p_cong.add_argument("-n", type=int, required=True)
    p_cong.add_argument("-r", type=int, default=None, help="shift (shift family only)")
    add_output_flags(p_cong)
    p_cong.set_defaults(func=cmd_congruence)

    p_prime = sub.add_parser("primetest", help="run a primality criterion against the oracle")
    p_prime.add_argument("--method", choices=PRIMETEST_METHODS, required=True)
    p_prime.add_argument("-n", type=int, required=True)
    p_prime.add_argument(
        "--diagnostic",
        action="store_true",
        help="fib methods only: report the raw sum residue for any n >= 3, no verdict",
    )
    add_output_flags(p_prime)
    p_prime.set_defaults(func=cmd_primetest)

    p_scan = sub.add_parser("scan", help="parallel agreement sweep over a range")
    p_scan.add_argument("--method", choices=SCAN_METHODS, required=True)
    p_scan.add_argument("--from", dest="lo", type=int, required=True)
    p_scan.add_argument("--to", dest="hi", type=int, required=True)
    p_scan.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: LUCAS_WORKERS or the usable CPU count)",
    )
    p_scan.add_argument("--fail-fast", action="store_true", help="stop at first mismatch")
    add_output_flags(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it unchanged, so calls share it."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1
    except (LucasKitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BrokenProcessPool, MemoryError) as exc:
        # A crashed worker or exhausted memory is no mismatch, so never exit 1.
        detail = " ".join(str(exc).split())
        message = f"{type(exc).__name__}: {detail}" if detail else type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
