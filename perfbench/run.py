#!/usr/bin/env python3
"""lucaskit benchmark: three workloads through the CLI, every output checked.

    python3 perfbench/run.py --workload congruence-grid|criteria|queries \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; lucaskit is imported from ./src.
Every measured scan and query stream runs in a fresh interpreter
(perfbench/child.py), so the term cache starts cold for each, and a forked
pool worker never inherits a cache warmed by an earlier measurement. The
workload's fixed work is repeated while the next pass still fits in
--seconds. `wall_s` and `checks_per_s` are the trimmed mean over passes,
the other metrics the median.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
pairs of untraced and traced passes at 1 worker and reports the per-layer
metrics. Human-readable lines come first; the last stdout line is the JSON
result. A full record, with provenance and every failure, is written to
.bench_out/ in the checkout. See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import queries  # noqa: E402

WORKERS = 2  # fixed, not the CLI's CPU-count default, so the load is the same on any host
# An operation's measured time t counts as t * CALIBRATION_REF_S / c, where c
# is the time of child.py's fixed calibration loop right after it: seconds at
# a host speed where that loop takes 1 ms (see README, "Noise").
CALIBRATION_REF_S = 0.001
HARD_LIMIT_S = 165.0  # no pass starts that could end past this
SETUP_SPAWNS = 5  # bare interpreters spawned for setup_s before the first pass
SETUP_SPAWNS_PER_PASS = 2  # and before every pass, so the samples span the run
LAYERS = ("cli", "congruences", "primality", "sequences", "residues")
CRITERIA_SCANS = (
    ("mersenne-sum", 2, 20_000),
    ("fib-sum", 5, 4_000),
    ("remark", 3, 600),
    ("divisor-sum", 2, 3_000),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def scan_argv(method: str, lo: int, hi: int, workers: int) -> list[str]:
    return ["scan", "--method", method, "--from", str(lo), "--to", str(hi),
            "--workers", str(workers)]


class Session:
    """Spawns child interpreters and keeps every operation's outcome."""

    def __init__(self, workload: str, started: float) -> None:
        self.workload = workload
        self.started = started
        self.env = {
            k: v for k, v in os.environ.items()
            if k not in ("PYTHONINTMAXSTRDIGITS", "LUCAS_WORKERS", "PYTHONPATH")
        }
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.known = checks.load_known_failures(str(ROOT))
        self.setup_samples: list[float] = []
        self.raw_setup_samples: list[float] = []
        self.ops: list[dict] = []
        self.child_env: dict = {}
        self.out_dir = ROOT / ".bench_out"
        self.out_dir.mkdir(exist_ok=True)

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, ops: list[list[str]], trace: bool = False, spans: str | None = None,
              seen: Counter | None = None) -> dict:
        """Run `ops` in one fresh interpreter; returns its report with peak RSS added.

        `seen` counts the argv lists already run in the current pass, so that
        each operation gets the same key in every pass that repeats it.
        """
        request = json.dumps({"ops": ops, "trace": trace, "spans": spans}).encode()
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "child.py")],
            cwd=ROOT, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            start_new_session=True,
        )
        timer = threading.Timer(max(self.remaining(), 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            try:
                proc.stdin.write(request)
                proc.stdin.close()
            except BrokenPipeError:
                pass
            out = proc.stdout.read()
            proc.stdout.close()
        finally:
            timer.cancel()
            # wait4 gives the child's peak RSS, including its reaped pool workers.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not out:
            raise BenchError(f"child exited {proc.returncode} running {ops[:1]}")
        report = json.loads(out.splitlines()[-1])
        setup = report["imported_at"] - spawned
        self.raw_setup_samples.append(setup)
        self.setup_samples.append(setup * CALIBRATION_REF_S / report["import_cal_s"])
        report["peak_rss_mib"] = usage.ru_maxrss / 1024
        self.child_env = {k: report[k] for k in ("int_max_str_digits", "start_method")}
        seen = Counter() if seen is None else seen
        for argv, op in zip(ops, report["ops"]):
            seen[tuple(argv)] += 1
            self._account(argv, op, (trace, tuple(argv), seen[tuple(argv)]))
        return report

    def _account(self, argv: list[str], op: dict, key: tuple) -> None:
        op["argv"] = argv
        op["key"] = key
        op["kind"] = checks.kind(argv)
        op["problem"] = checks.verify(argv, op["out"]) if op["rc"] in (0, 1) else None
        op["ok"] = op["rc"] == 0 and op["problem"] is None
        op["checked"] = op["skipped"] = 0
        if op["ok"]:
            record = checks.load_record(op["out"])
            op["checked"] = record["checked"] if argv[0] == "scan" else 1
            op["skipped"] = record["skipped"] if argv[0] == "scan" else 0
        if op["rc"] != 0:
            op["known"] = checks.known_reason(self.known, self.workload, argv, op["rc"], op["err"])
        del op["out"]  # big-int text; the checks above are all the run keeps of it
        self.ops.append(op)


# ---------------------------------------------------------------------------
# Passes: one repetition of a workload's fixed work
# ---------------------------------------------------------------------------


def pass_summary(reports: list[dict]) -> dict:
    ops = [op for r in reports for op in r["ops"]]
    return {
        "raw_wall_s": sum(op["s"] for op in ops),
        "wall_s": sum(op["s"] * CALIBRATION_REF_S / op["cal_s"] for op in ops),
        "checks": sum(op["checked"] for op in ops),
        "peak_rss_mib": max(r["peak_rss_mib"] for r in reports),
        "latencies": [op["s"] for op in ops],
        "traces": [r["trace"] for r in reports if "trace" in r],
        "scans": [op for op in ops if op["argv"][0] == "scan" and op["ok"]],
    }


def ops_for(workload: str, workers: int, rng: random.Random, seed: int) -> list[list[list[str]]]:
    """The child interpreters of one pass, each a list of argv lists."""
    if workload == "congruence-grid":
        return [[scan_argv("congruence-grid", 1, 24, workers)]]
    if workload == "criteria":
        scans = list(CRITERIA_SCANS)
        rng.shuffle(scans)
        return [[scan_argv(m, lo, hi, workers)] for m, lo, hi in scans]
    return [queries.generate(seed)]


def run_pass(session: Session, workload: str, workers: int, rng: random.Random,
             seed: int, trace: bool = False) -> dict:
    reports = []
    seen: Counter = Counter()
    for i, ops in enumerate(ops_for(workload, workers, rng, seed)):
        spans = str(session.out_dir / f"spans-{workload}-{i}.bin") if trace else None
        reports.append(session.child(ops, trace=trace, spans=spans, seen=seen))
    return pass_summary(reports)


def repeat(session: Session, seconds: float, body) -> list:
    """Run body() while the next run of it still fits in `seconds`; at least once."""
    results = []
    while True:
        began = time.perf_counter()
        results.append(body())
        now = time.perf_counter()
        last = now - began
        if now + last > session.started + min(seconds, HARD_LIMIT_S) or session.remaining() < last:
            return results


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def trimmed_mean(values: list[float]) -> float:
    """Mean without the smallest and the largest value, when there are three or more.

    On the same ten-seed batches this spread less from run to run than the
    median of the passes (0.068 against 0.093 on the grid's `wall_s`), and
    it drops the one pass that a slow stretch of the host hits hardest.
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[1:-1] if len(ordered) >= 3 else ordered)


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def end_to_end(session: Session, workload: str, seconds: float, seed: int) -> tuple[dict, list[str]]:
    for _ in range(SETUP_SPAWNS):
        session.child([])
    rng = random.Random(seed)

    single = None
    if workload == "congruence-grid":
        # One 1-worker pass, for parallel efficiency; it feeds no gated metric.
        single = run_pass(session, workload, 1, rng, seed)

    def one_pass():
        for _ in range(SETUP_SPAWNS_PER_PASS):
            session.child([])
        return run_pass(session, workload, WORKERS, rng, seed)

    main = repeat(session, seconds, one_pass)
    wall = trimmed_mean([p["wall_s"] for p in main])
    rate = trimmed_mean([p["checks"] / p["wall_s"] for p in main])
    metrics = {
        "setup_s": statistics.median(session.setup_samples),
        "wall_s": wall,
        "checks_per_s": rate,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in main),
    }
    notes = [f"passes {len(main)} at {WORKERS} workers, wall_s of each: "
             + " ".join(f"{p['wall_s']:.4f}" for p in main),
             "measured seconds of each (raw_wall_s): "
             + " ".join(f"{p['raw_wall_s']:.4f}" for p in main),
             f"setup samples {len(session.setup_samples)}, measured seconds median"
             f" {statistics.median(session.raw_setup_samples):.4f}"]
    if single is not None:
        one = single["checks"] / single["wall_s"]
        notes += [
            f"checks_per_s_1w {one:.6g} 1/s",
            f"parallel_efficiency {rate / (WORKERS * one):.4f} ratio"
            f" (checks_per_s / ({WORKERS} x checks_per_s_1w))",
        ]
    if workload == "queries":
        lat = [s for p in main for s in p["latencies"]]
        notes += [
            f"queries_per_s {len(main[0]['latencies']) / wall:.6g} 1/s",
            f"query_p50_ms {1000 * percentile(lat, 0.50):.4f} ms (n={len(lat)})",
            f"query_p95_ms {1000 * percentile(lat, 0.95):.4f} ms (n={len(lat)})",
        ]
    return metrics, notes


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced pass (the traces of all its child interpreters)."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for trace in summary["traces"]:
        for name, v in trace["targets"].items():
            calls[name] += v["calls"]
            self_s[name] += v["self_s"]
    total = sum(self_s.values())
    m: dict = {}
    for layer in LAYERS:
        names = [n for n in calls if n.split(".")[0] == layer]
        if names:
            m[f"{layer}.calls"] = sum(calls[n] for n in names)
            m[f"{layer}.self_s"] = sum(self_s[n] for n in names)
            m[f"{layer}.self_share"] = m[f"{layer}.self_s"] / total if total else 0.0
    for fn in ("make_params", "u_pair_mod"):
        name = f"sequences.{fn}"
        if name in calls:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
    mults = [t["u_pair_mod_mults"] for t in summary["traces"] if "u_pair_mod_mults" in t]
    if mults:
        m["sequences.u_pair_mod.mults"] = sum(mults)
    caches = [t["term_cache"] for t in summary["traces"] if "term_cache" in t]
    if caches:
        hits = sum(c["hits"] for c in caches)
        misses = sum(c["misses"] for c in caches)
        m["sequences.term_cache.hits"] = hits
        m["sequences.term_cache.misses"] = misses
        m["sequences.term_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m["sequences.term_cache.entries"] = sum(c["entries"] for c in caches)
    m["sequences.max_term_bits"] = max(t["max_term_bits"] for t in summary["traces"])
    checked = sum(op["checked"] for op in summary["scans"])
    skipped = sum(op["skipped"] for op in summary["scans"])
    m["cli.scan.skipped_ratio"] = skipped / (checked + skipped) if checked + skipped else 0.0
    return m


def per_layer(session: Session, workload: str, seconds: float, seed: int) -> tuple[dict, list[str]]:
    rng = random.Random(seed)

    def one_pair():
        plain = run_pass(session, workload, 1, rng, seed)
        traced = run_pass(session, workload, 1, rng, seed, trace=True)
        return plain, traced

    pairs = repeat(session, seconds, one_pair)
    runs = [layer_metrics(traced) for _, traced in pairs]
    metrics = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        exact = isinstance(values[0], int)
        metrics[key] = values[0] if exact else statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(
        traced["wall_s"] / plain["wall_s"] for plain, traced in pairs
    )
    counts = [{k: v for k, v in r.items() if isinstance(v, int)} for r in runs]
    repeated = all(c == counts[0] for c in counts)
    notes = [f"traced passes {len(pairs)}, exact counts repeated: {repeated}"]
    return metrics, notes


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def provenance(session: Session) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **session.child_env,
    }


def fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def operations(session: Session) -> tuple[list[dict], list[dict], list[tuple]]:
    """The run's distinct operations, the failed ones, and those whose outcome varied.

    Passes repeat the same operations for timing; `attempted` and `failed`
    count each operation once, so they depend on the seed and the program,
    not on how many passes fit in the time. An operation fails if it failed
    in any pass.
    """
    runs: dict[tuple, list[dict]] = {}
    for op in session.ops:
        runs.setdefault(op["key"], []).append(op)
    distinct = [next((op for op in ops if op["rc"] != 0), ops[0]) for ops in runs.values()]
    failed = [op for op in distinct if op["rc"] != 0]
    varied = [key for key, ops in runs.items() if len({(op["rc"], op["err"]) for op in ops}) > 1]
    return distinct, failed, varied


def failure_lines(failed: list[dict]) -> list[str]:
    groups = Counter((op["kind"], op["rc"], op["err"], op.get("known")) for op in failed)
    lines = []
    for (kind, rc, err, known), count in sorted(groups.items(), key=str):
        tag = "known" if known else "NOT A KNOWN FAILURE"
        lines.append(f"failed {count}x {kind} exit {rc} [{tag}]: {err[:72]}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("congruence-grid", "criteria", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    if not (ROOT / "src" / "lucaskit" / "cli.py").is_file():
        print(f"error: no lucaskit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    session = Session(args.workload, started)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(session, args.workload, args.seconds, args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = [op for op in session.ops if op["problem"]]
    distinct, failed, varied = operations(session)
    # A failure not listed in known_failures.json invalidates the run: an
    # operation that now exits early would otherwise read as a speed-up.
    unknown = [op for op in session.ops if op["rc"] != 0 and not op["known"]]
    prov = provenance(session)
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    lines += [f"{m['name']} {fmt(metrics[m['name']])} {m['unit']}" for m in wanted if m["name"] in metrics]
    lines += notes
    lines.append(f"failed_ratio {len(failed) / len(distinct):.4f} ({len(failed)}/{len(distinct)} operations,"
                 f" {len(session.ops)} runs of them)")
    lines += failure_lines(failed)
    lines += [f"outcome varied between passes: {' '.join(key[1])[:120]}" for key in varied]
    lines.append(f"wrong outputs {len(problems)}, unknown failures {len(unknown)}")
    lines += [f"WRONG OUTPUT {op['kind']} {' '.join(op['argv'])[:120]}: {op['problem']}" for op in problems[:10]]
    lines.append("provenance " + json.dumps(prov))
    print("\n".join(lines))

    result = {
        "correct": not problems and not unknown,
        "attempted": len(distinct),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  provenance=prov, notes=notes,
                  failures=[{k: op[k] for k in ("argv", "rc", "err", "known")} for op in failed],
                  varied=[list(key[1]) for key in varied],
                  wrong=[{k: op[k] for k in ("argv", "problem")} for op in problems])
    out = session.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
