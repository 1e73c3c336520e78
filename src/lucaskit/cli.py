"""Command-line front end.

Subcommands: eval (sequence terms), congruence (one congruence instance,
closed form vs oracle), primetest (criterion vs oracle for one n), and scan
(parallel agreement sweeps). The data stream is JSON lines on stdout with big
integers as decimal strings; diagnostics go to stderr. Exit codes: 0 all
checks hold, 1 mathematical mismatch, 2 usage or precondition error, a
scan worker that could not start or crashed, or exhausted memory.

The CLI parses, encodes and aggregates. A per-value scan runs a
CRITERION_TABLE entry per value; the congruence grid sends each (P, Q) unit
of congruences.grid_units to congruences.grid_batch, so no family protocol
is known here. A scan
with more than one worker forks its workers itself (_fan_out): they take
contiguous chunks of units from one pipe and send their outcomes back
pickled, so importing this module loads no process pool. Each worker starts
on a CPU of its own, round-robin over the parent's affinity set, and then
gets the whole set back; a move the platform refuses is ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache, partial
from typing import Any, Callable, Iterator, Optional

from .congruences import (
    FAMILIES,
    GENERAL_FAMILIES,
    CongruenceReport,
    evaluate_congruence,
    grid_batch,
    grid_units,
)
from .errors import InternalInvariantViolation, LucasKitError
from .primality import CRITERION_TABLE, run_criterion
from .residues import ResidueClass, TrivialModulus
from .sequences import make_params, u_pair_exact, u_pair_mod

PRIMETEST_METHODS = tuple(name for name, c in CRITERION_TABLE.items() if c.fields)
SCAN_METHODS = tuple(name for name, c in CRITERION_TABLE.items() if c.scan) + ("congruence-grid",)


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
    record: dict[str, Any] = {"p": str(args.p), "q": str(args.q), "n": str(args.n)}
    if args.mod is None:
        u_n, u_next = u_pair_exact(params, args.n)
    else:
        u_n, u_next = u_pair_mod(params, args.n, args.mod)
        record["mod"] = str(args.mod)
    record["u"] = str(u_n)
    if args.with_v:
        v_n = 2 * u_next - args.p * u_n
        record["v"] = str(v_n if args.mod is None else v_n % args.mod)
    _emit(record, args)
    return 0


def cmd_congruence(args: argparse.Namespace) -> int:
    report = evaluate_congruence(
        args.family, p=args.p, q=args.q, k=args.k, n=args.n, r=args.r
    )
    _emit(_encode_report(report), args)
    return 0 if report.holds else 1


def cmd_primetest(args: argparse.Namespace) -> int:
    if args.method not in PRIMETEST_METHODS:
        raise ValueError(f"unknown primetest method {args.method!r}")
    criterion = CRITERION_TABLE[args.method]
    if args.diagnostic:
        if criterion.diagnostic is None:
            takes = "/".join(name for name, c in CRITERION_TABLE.items() if c.diagnostic)
            raise ValueError(f"--diagnostic applies to {takes} only, not {args.method}")
        criterion = criterion.diagnostic
    started = time.perf_counter()
    result, oracle, agree = run_criterion(criterion, args.n)
    elapsed = time.perf_counter() - started
    fields = criterion.fields(result, oracle, agree)
    _emit({"n": args.n, "method": args.method, **fields, "elapsed": elapsed}, args)
    return 0 if agree else 1


# ---------------------------------------------------------------------------
# Scan machinery: units of work, their checks, the parallel runner
# ---------------------------------------------------------------------------


# A unit of scan work, one value or one congruences.grid_batch unit, returns
# its items' outcomes in scan order: one mark per item ("-" skipped, "+" held,
# "x" mismatch) and the (n, detail) of each mismatch.
Outcomes = tuple[str, tuple[tuple[int, str], ...]]
_SKIPPED: Outcomes = ("-", ())
_HELD: Outcomes = ("+", ())


def _scan_check(method: str, n: int) -> Outcomes:
    """Check one value of a per-value scan; a failed precondition skips it.

    Only a mismatch formats its detail, so an agreeing value never converts
    its residue to decimal: that conversion costs more than the criterion for
    wide residues, and past 4300 digits Python refuses it.
    """
    criterion = CRITERION_TABLE[method]
    if not criterion.applies(n):
        return _SKIPPED
    result, oracle, agree = run_criterion(criterion, n)
    return _HELD if agree else ("x", ((n, criterion.detail(result, oracle)),))


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


class WorkerCrashed(LucasKitError):
    """A scan worker process could not start, or ended without returning its outcomes."""


# The parent queues every chunk number as one 4-byte record, in one write made
# before it forks, while no worker reads yet: the write must fit in an empty
# pipe. 4096 bytes is PIPE_BUF on Linux, and no Linux pipe holds less.
_RECORD_BYTES = 4
_MAX_CHUNKS = 4096 // _RECORD_BYTES
# A per-value scan's cost grows with n, so its last contiguous chunk is its
# heaviest, and the worker that takes it finishes after the others. At 8
# chunks per process that chunk held up to 18% of a criteria scan's work,
# at 64 at most 2.5%; 32 and 128 took the same time within noise.
_CHUNKS_PER_PROCESS = 64


def _check_chunks(
    check: Callable[[Any], Outcomes], units: list[Any], size: int, queue: int, fail_fast: bool
) -> dict[int, list[Outcomes] | Exception]:
    """In a worker: check chunks taken from `queue` until it is empty.

    Chunk c is units[c * size : (c + 1) * size]. The queue hands out chunks in
    ascending order, so after a chunk with a mismatch under fail_fast, or one
    that raised, every chunk this worker could still take comes later in the
    input and is not needed.
    """
    done: dict[int, list[Outcomes] | Exception] = {}
    while record := os.read(queue, _RECORD_BYTES):
        c = int.from_bytes(record, "little")
        try:
            done[c] = outcomes = list(map(check, units[c * size : (c + 1) * size]))
        except Exception as exc:  # the parent raises it when its merge reaches chunk c
            done[c] = exc
            break
        if fail_fast and any(failed for _, failed in outcomes):
            break
    return done


def _place(cpu: int, cpus: list[int]) -> None:
    """In a worker: move to `cpu`, then allow all of `cpus` again; an OSError is ignored."""
    try:
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _start(call: Callable[[], Any]) -> Any:
    """call(), a pipe or fork for the workers; one refused (EMFILE, EAGAIN) raises WorkerCrashed."""
    try:
        return call()
    except OSError as exc:
        raise WorkerCrashed(f"could not start the scan's workers: {exc}") from exc


def _fan_out(
    check: Callable[[Any], Outcomes], units: list[Any], processes: int, fail_fast: bool
) -> Iterator[Outcomes]:
    """Check `units` in `processes` forked workers; return the outcomes in input order.

    The units are cut into contiguous chunks, about _CHUNKS_PER_PROCESS per
    process and at most _MAX_CHUNKS. A worker takes the next chunk number
    from one shared pipe whenever it is free, and at the end pickles
    {chunk: outcomes} back through a pipe of its own. The parent reads every
    pipe and reaps every worker before it returns; on any error it kills and
    reaps those left. A worker that cannot start, or exits without its
    outcomes, raises WorkerCrashed. An exception raised by a check is raised
    here when the merge reaches its chunk, as the in-process scan would.

    Worker i first moves itself to cpus[i % len(cpus)] of the parent's
    affinity set, read once before the first fork, and then restores the
    whole set: it starts on a CPU of its own, since a freshly forked child
    may otherwise stay on its parent's CPU while another idles, and the
    kernel may still move it later. With fewer than two CPUs, or no
    sched_setaffinity, no move is made; a move that fails is ignored.
    """
    import pickle  # here, so that only a parallel scan pays for these imports
    import signal

    size = max(1, len(units) // (processes * _CHUNKS_PER_PROCESS), -(-len(units) // _MAX_CHUNKS))
    count = -(-len(units) // size)
    queue, feed = _start(os.pipe)
    try:
        os.write(feed, b"".join(c.to_bytes(_RECORD_BYTES, "little") for c in range(count)))
    finally:
        os.close(feed)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    running: list[int] = []
    readers: list[Any] = []
    done: dict[int, list[Outcomes] | Exception] = {}
    try:
        for i in range(processes):
            result, sink = _start(os.pipe)
            readers.append(open(result, "rb"))
            try:
                pid = _start(os.fork)
                if pid == 0:
                    code = 1
                    try:
                        # Hold no read end, so a write gets EPIPE once the parent is gone.
                        for reader in readers:
                            reader.close()
                        if len(cpus) > 1:
                            _place(cpus[i % len(cpus)], cpus)
                        payload = _check_chunks(check, units, size, queue, fail_fast)
                        with open(sink, "wb") as out:
                            pickle.dump(payload, out)
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(sink)
            running.append(pid)
        for pid, reader in zip(running[:], readers):
            data = reader.read()
            _, status = os.waitpid(pid, 0)
            running.remove(pid)
            code = os.waitstatus_to_exitcode(status)
            if code or not data:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise WorkerCrashed(f"scan worker {pid} {how} before returning its outcomes")
            done.update(pickle.loads(data))
    finally:
        for reader in readers:
            reader.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(queue)

    def in_input_order() -> Iterator[Outcomes]:
        for c in range(count):
            part = done[c]
            if isinstance(part, Exception):
                raise part
            yield from part

    return in_input_order()


def run_scan(
    method: str, lo: int, hi: int, workers: int = 1, fail_fast: bool = False
) -> dict[str, Any]:
    """Run one agreement sweep and return the record scan prints, minus wall_time.

    Results are aggregated in input order; the counts are read off the marks.
    """
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
        units = grid_units(lo, hi)
        check = grid_batch
    marks: list[str] = []  # one string per unit, in input order
    mismatches: list[tuple[int, str]] = []

    def consume(results: Iterator[Outcomes]) -> None:
        for unit_marks, failed in results:
            if fail_fast and failed:
                marks.append(unit_marks[: unit_marks.index("x") + 1])
                mismatches.append(failed[0])
                return
            marks.append(unit_marks)
            mismatches.extend(failed)

    if workers <= 1 or not units or not hasattr(os, "fork"):
        consume(map(check, units))
    else:
        # Every worker is forked up front: never more than there are units or chunks.
        consume(_fan_out(check, units, min(workers, len(units), _MAX_CHUNKS), fail_fast))

    every_mark = "".join(marks)
    skipped = every_mark.count("-")
    record: dict[str, Any] = {
        "method": method,
        "from": lo,
        "to": hi,
        "checked": len(every_mark) - skipped,
        "skipped": skipped,
    }
    if per_value_scan:
        record["skipped_values"] = [n for n, m in zip(units, marks) if m == "-"]
    record["mismatches"] = [{"n": n, "detail": d} for n, d in mismatches]
    record["workers"] = workers
    return record


def cmd_scan(args: argparse.Namespace) -> int:
    workers = _resolve_workers(args.workers)
    started = time.perf_counter()
    record = run_scan(args.method, args.lo, args.hi, workers, args.fail_fast)
    record["wall_time"] = time.perf_counter() - started
    _emit(record, args)
    return 0 if not record["mismatches"] else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it unchanged, so calls share it."""
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
    # lucaskit, not argparse, rejects an unknown --family or --method, so that
    # its one error line does not depend on argparse's formatting.
    p_cong.add_argument("--family", required=True, help=f"one of {', '.join(FAMILIES)}")
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
    p_prime.add_argument(
        "--method", required=True, help=f"one of {', '.join(PRIMETEST_METHODS)}"
    )
    p_prime.add_argument("-n", type=int, required=True)
    p_prime.add_argument(
        "--diagnostic",
        action="store_true",
        help="fib methods only: report the raw sum residue for any n >= 3, no verdict",
    )
    add_output_flags(p_prime)
    p_prime.set_defaults(func=cmd_primetest)

    p_scan = sub.add_parser("scan", help="parallel agreement sweep over a range")
    p_scan.add_argument("--method", required=True, help=f"one of {', '.join(SCAN_METHODS)}")
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
    except (MemoryError, OverflowError) as exc:
        # Exhausted memory, or an int too large for a size, is no mismatch, so never exit 1.
        detail = " ".join(str(exc).split())
        message = f"{type(exc).__name__}: {detail}" if detail else type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
