"""Run a list of lucaskit CLI argv lists in this fresh interpreter.

Reads one JSON request from stdin: {"ops": [[argv...], ...], "trace": bool,
"spans": path or null}. Calls `lucaskit.cli.main(argv)` for each op in order,
capturing its stdout and stderr, and writes one JSON report line to stdout.
The timestamp taken right after `import lucaskit.cli` lets the parent compute
set-up time from its own spawn timestamp (both are CLOCK_MONOTONIC). After
the import and after each op the child times a fixed calibration loop; the
parent scales set-up and op times by it (see README, "Noise").
"""

import sys
import time

import lucaskit.cli

IMPORTED_AT = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402

import tracer  # noqa: E402


CALIBRATION_LOOPS = 20_000  # about 1 ms on a 2-vCPU Xeon
CALIBRATION_SHARE = 0.1  # calibrate for about this share of the operation's time
CALIBRATION_MAX_ROUNDS = 250
IMPORT_CALIBRATION_ROUNDS = 20  # about a tenth of the set-up time


def calibration_rounds(op_s: float) -> int:
    """Calibration rounds after an operation of `op_s` seconds.

    A long operation gets more rounds, so that its one reading is about as
    steady as the many readings of a stream of short ones.
    """
    return min(CALIBRATION_MAX_ROUNDS, 1 + int(CALIBRATION_SHARE * op_s * 1000))


def _loop_median(rounds: int) -> float:
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        x = 0
        for i in range(CALIBRATION_LOOPS):
            x += i
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def calibrate(rounds: int, cpus: int = 1) -> float:
    """Median time of a fixed pure-Python loop: the host's speed at this moment.

    An operation that ran on `cpus` processes is read on as many at once,
    and the slowest reading counts, as the slowest worker sets a scan's time.
    Pool workers an operation left running are waited for first, so that
    they cannot slow the loop and make the operation read as faster.
    """
    for worker in multiprocessing.active_children():
        worker.join()
    helpers = []
    for _ in range(cpus - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            os.write(write_fd, struct.pack("d", _loop_median(rounds)))
            os._exit(0)
        os.close(write_fd)
        helpers.append((pid, read_fd))
    readings = [_loop_median(rounds)]
    for pid, read_fd in helpers:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        os.waitpid(pid, 0)
        readings.append(struct.unpack("d", data)[0])
    return max(readings)


def run_op(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lucaskit.cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv with exit 2
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # an uncaught exception is a failed operation
            rc = -1
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
    elapsed = time.perf_counter() - started
    lines = err.getvalue().splitlines()
    return {"rc": rc, "s": elapsed, "out": out.getvalue(), "err": lines[0] if lines else ""}


def main() -> int:
    src = os.path.join(os.getcwd(), "src") + os.sep
    if not lucaskit.cli.__file__.startswith(src):
        print(f"lucaskit was imported from {lucaskit.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    import_cal_s = calibrate(IMPORT_CALIBRATION_ROUNDS)
    request = json.load(sys.stdin)
    spans = tracer.Tracer().install() if request["trace"] else None
    ops = []
    for argv in request["ops"]:
        op = run_op(argv)
        workers = int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1
        op["cal_s"] = calibrate(calibration_rounds(op["s"]), workers)
        ops.append(op)
    report = {
        "imported_at": IMPORTED_AT,
        "import_cal_s": import_cal_s,
        "ops": ops,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "start_method": multiprocessing.get_start_method(),
    }
    if spans is not None:
        if request.get("spans"):
            spans.dump(request["spans"])
        report["trace"] = spans.summary()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
