import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lucaskit.cli as cli_module
import lucaskit.congruences as congruences_module
from lucaskit import (
    TrivialModulus,
    corollary_ratio_rhs,
    corollary_shift_rhs,
    evaluate_congruence,
    general_shift_rhs,
    lemma1_rhs,
    lemma2_rhs,
    main_lhs_exact,
    main_theorem_rhs,
    make_params,
    ratio_lhs_exact,
    shifted_lhs_exact,
    u_at,
    v_at,
)
from lucaskit.cli import main
from lucaskit.congruences import FAMILY_TABLE, _outcome


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


class TestEval:
    def test_fibonacci(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "-p", "1", "-q", "-1", "-n", "12")
        assert code == 0
        assert parse_lines(out) == [{"p": 1, "q": -1, "n": 12, "u": "144"}]

    def test_mersenne(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "-p", "3", "-q", "2", "-n", "5")
        assert code == 0
        assert parse_lines(out)[0]["u"] == "31"

    def test_seed(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "-p", "1", "-q", "-1", "-n", "0")
        assert code == 0
        assert parse_lines(out)[0]["u"] == "0"

    def test_with_v_and_mod(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "-p", "1", "-q", "-1", "-n", "12", "--with-v", "--mod", "100"
        )
        assert code == 0
        record = parse_lines(out)[0]
        assert record["u"] == "44" and record["v"] == "22"  # 144, 322 mod 100

    @pytest.mark.parametrize("p, q, n", [(1, -1, 0), (1, -1, 1), (-4, 7, 300), (5, -3, 2000)])
    def test_exact_with_v_matches_recurrence(self, capsys, p, q, n):
        code, out, _ = run_cli(
            capsys, "eval", "-p", str(p), "-q", str(q), "-n", str(n), "--with-v"
        )
        assert code == 0
        record = parse_lines(out)[0]
        params = make_params(p, q)
        assert record["u"] == str(u_at(params, n))
        assert record["v"] == str(v_at(params, n))

    def test_non_coprime_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "-p", "2", "-q", "4", "-n", "3")
        assert code == 2
        assert out == "" and "error" in err

    def test_missing_argument_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "-p", "1", "-q", "-1"])
        assert exc.value.code == 2


class TestCongruence:
    def test_mersenne22(self, capsys):
        code, out, _ = run_cli(
            capsys, "congruence", "--family", "mersenne22", "-n", "6", "-k", "4"
        )
        assert code == 0
        record = parse_lines(out)[0]
        assert record["holds"] is True
        assert record["lhs"] == record["rhs"] == {"value": "42", "modulus": "63"}

    def test_lemma1(self, capsys):
        code, out, _ = run_cli(
            capsys, "congruence", "--family", "lemma1", "-p", "1", "-q", "-1", "-k", "4", "-n", "3"
        )
        assert code == 0
        record = parse_lines(out)[0]
        assert record["rhs"] == {"value": "0", "modulus": "3"}

    def test_main_degenerate_k(self, capsys):
        code, out, _ = run_cli(
            capsys, "congruence", "--family", "main", "-p", "1", "-q", "-1", "-k", "1", "-n", "5"
        )
        assert code == 0
        record = parse_lines(out)[0]
        assert record["case_tag"] == "odd_n"
        assert record["rhs"] == {"value": "0", "modulus": "5"}

    def test_trivial_modulus_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "congruence", "--family", "lemma1", "-p", "1", "-q", "-1", "-k", "1", "-n", "5"
        )
        assert code == 0
        record = parse_lines(out)[0]
        assert record["rhs"] == {"trivial_modulus": True} and record["holds"] is True

    def test_shift_requires_r(self, capsys):
        code, _, err = run_cli(
            capsys, "congruence", "--family", "shift", "-p", "1", "-q", "-1", "-k", "5", "-n", "2"
        )
        assert code == 2 and "requires -r" in err

    def test_shift_with_r(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "congruence", "--family", "shift", "-p", "1", "-q", "-1", "-k", "5", "-n", "2", "-r", "3",
        )
        assert code == 0
        assert parse_lines(out)[0]["rhs"] == {"value": "3", "modulus": "5"}

    def test_general_family_needs_coefficients(self, capsys):
        code, _, err = run_cli(capsys, "congruence", "--family", "lemma1", "-k", "4", "-n", "3")
        assert code == 2 and "error" in err


class TestPrimetest:
    def test_pinned_mersenne_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "primetest", "--method", "mersenne-sum", "-n", "12", "--no-timing"
        )
        assert code == 0  # criterion and oracle agree (both composite)
        record = parse_lines(out)[0]
        assert record["residue"] == "3354" and record["modulus"] == "4095"
        assert record["criterion_says_prime"] is False and record["agree"] is True

    def test_fib_excluded_input_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "primetest", "--method", "fib-sum", "-n", "9")
        assert code == 2 and out == "" and "9" in err

    def test_fib_diagnostic_reports_residue(self, capsys):
        code, out, _ = run_cli(
            capsys, "primetest", "--method", "fib-sum-direct", "-n", "9", "--diagnostic", "--no-timing"
        )
        assert code == 0
        record = parse_lines(out)[0]
        assert record["residue"] == "0" and record["oracle_says_prime"] is False
        assert record["diagnostic"] is True and "criterion_says_prime" not in record

    def test_divisor_sum(self, capsys):
        code, out, _ = run_cli(
            capsys, "primetest", "--method", "divisor-sum", "-n", "5", "--no-timing"
        )
        assert code == 0
        record = parse_lines(out)[0]
        assert record["total"] == "4" and record["is_integer"] is True
        assert record["criterion_says_prime"] is True

    def test_divisor_sum_composite(self, capsys):
        code, out, _ = run_cli(
            capsys, "primetest", "--method", "divisor-sum", "-n", "4", "--no-timing"
        )
        assert code == 0
        assert parse_lines(out)[0]["total"] == "8/3"

    def test_oracle_method(self, capsys):
        code, out, _ = run_cli(capsys, "primetest", "--method", "oracle", "-n", "8191", "--no-timing")
        assert code == 0
        assert parse_lines(out)[0]["prime"] is True

    def test_fib_sum_agreeing_composite(self, capsys):
        code, out, _ = run_cli(capsys, "primetest", "--method", "fib-sum", "-n", "21", "--no-timing")
        assert code == 0
        record = parse_lines(out)[0]
        assert record["residue"] == "10104" and record["agree"] is True


class TestScan:
    def test_mersenne_scan_clean(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--method", "mersenne-sum", "--from", "2", "--to", "80",
            "--workers", "1", "--no-timing",
        )
        assert code == 0
        record = parse_lines(out)[0]
        assert record["checked"] == 79 and record["mismatches"] == []

    def test_remark_scan_skips_wrong_class(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--method", "remark", "--from", "3", "--to", "47",
            "--workers", "1", "--no-timing",
        )
        assert code == 0
        record = parse_lines(out)[0]
        assert record["checked"] == 12  # 3, 7, ..., 47
        assert 4 in record["skipped_values"] and 47 not in record["skipped_values"]

    def test_congruence_grid_scan(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--method", "congruence-grid", "--from", "1", "--to", "3",
            "--workers", "1", "--no-timing",
        )
        assert code == 0
        record = parse_lines(out)[0]
        assert record["mismatches"] == [] and record["checked"] > 0
        assert "skipped_values" not in record  # grid skips are counted, not listed

    @pytest.mark.parametrize(
        "lo, hi, workers, counts",
        [
            ("1", "8", "1", '"checked":14592,"skipped":4608'),
            ("1", "8", "2", '"checked":14592,"skipped":4608'),
            ("0", "5", "1", '"checked":5893,"skipped":3107'),
        ],
    )
    def test_congruence_grid_record_is_pinned(self, capsys, lo, hi, workers, counts):
        # Recorded with the one-item-per-task scan, before grid batches.
        code, out, _ = run_cli(
            capsys,
            "scan", "--method", "congruence-grid", "--from", lo, "--to", hi,
            "--workers", workers, "--no-timing",
        )
        assert code == 0
        assert out == (
            f'{{"method":"congruence-grid","from":{lo},"to":{hi},{counts},'
            f'"mismatches":[],"workers":{workers}}}\n'
        )

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_benchmark_grid_is_pinned(self, capsys, workers):
        # The benchmark's grid; counts recorded before the family table.
        code, out, _ = run_cli(
            capsys,
            "scan", "--method", "congruence-grid", "--from", "1", "--to", "24",
            "--workers", workers, "--no-timing",
        )
        assert code == 0
        assert out == (
            '{"method":"congruence-grid","from":1,"to":24,"checked":149472,'
            f'"skipped":23328,"mismatches":[],"workers":{workers}}}\n'
        )

    def test_parallel_workers_give_same_answer(self, capsys):
        code1, out1, _ = run_cli(
            capsys,
            "scan", "--method", "fib-sum", "--from", "5", "--to", "81",
            "--workers", "1", "--no-timing",
        )
        code2, out2, _ = run_cli(
            capsys,
            "scan", "--method", "fib-sum", "--from", "5", "--to", "81",
            "--workers", "2", "--no-timing",
        )
        assert code1 == code2 == 0
        r1, r2 = parse_lines(out1)[0], parse_lines(out2)[0]
        assert r1["workers"] == 1 and r2["workers"] == 2
        del r1["workers"], r2["workers"]
        assert r1 == r2

    def test_env_var_sets_default_workers(self, capsys, monkeypatch):
        monkeypatch.setenv("LUCAS_WORKERS", "2")
        code, out, _ = run_cli(
            capsys, "scan", "--method", "remark", "--from", "3", "--to", "15", "--no-timing"
        )
        assert code == 0 and parse_lines(out)[0]["workers"] == 2

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("LUCAS_WORKERS", "4")
        code, out, _ = run_cli(
            capsys,
            "scan", "--method", "remark", "--from", "3", "--to", "15",
            "--workers", "1", "--no-timing",
        )
        assert code == 0 and parse_lines(out)[0]["workers"] == 1

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("LUCAS_WORKERS", raising=False)
        monkeypatch.setattr(cli_module.os, "sched_getaffinity", lambda pid: {0, 3, 5})
        monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 64)
        assert cli_module._resolve_workers(None) == 3

    def test_bad_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LUCAS_WORKERS", "many")
        code, _, err = run_cli(
            capsys, "scan", "--method", "remark", "--from", "3", "--to", "15", "--no-timing"
        )
        assert code == 2 and "LUCAS_WORKERS" in err

    def test_inverted_range_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--method", "remark", "--from", "9", "--to", "3", "--no-timing"
        )
        assert code == 2

    def test_divisor_sum_scan(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--method", "divisor-sum", "--from", "2", "--to", "120",
            "--workers", "1", "--no-timing",
        )
        assert code == 0
        assert parse_lines(out)[0]["checked"] == 119


class TestOutputContract:
    def test_reruns_are_byte_identical(self, capsys):
        args = [
            "scan", "--method", "mersenne-sum", "--from", "2", "--to", "40",
            "--workers", "1", "--no-timing",
        ]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_every_line_is_json(self, capsys):
        _, out, _ = run_cli(
            capsys, "primetest", "--method", "mersenne-sum", "-n", "10", "--no-timing"
        )
        for line in out.splitlines():
            json.loads(line)

    def test_timing_present_without_flag(self, capsys):
        _, out, _ = run_cli(capsys, "primetest", "--method", "mersenne-sum", "-n", "10")
        assert "elapsed" in parse_lines(out)[0]

    def test_pretty_renders_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "primetest", "--method", "mersenne-sum", "-n", "12", "--pretty", "--no-timing"
        )
        assert code == 0
        assert "3354" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out.splitlines()[0])

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lucaskit", "eval", "-p", "1", "-q", "-1", "-n", "12"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["u"] == "144"

    def test_one_parser_per_process_leaks_nothing_between_calls(self, capsys):
        # The parser is built once and shared; each call must still print
        # exactly what a fresh process prints for the same argv. Congruence
        # records carry no timing field.
        calls = [
            ["eval", "-p", "1", "-q", "-1", "-n", "12", "--mod", "7", "--with-v", "--no-timing"],
            ["congruence", "--family", "lemma1", "-p", "1", "-q", "-1", "-k", "4"],
            ["congruence", "--family", "lemma1", "-p", "1", "-q", "-1", "-k", "4", "-n", "3"],
            ["eval", "-p", "1", "-q", "-1", "-n", "12", "--no-timing"],
        ]
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "lucaskit", *argv], capture_output=True, text=True
            )
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
        assert cli_module._parser() is cli_module._parser()

    def test_mismatch_exit_code_is_1(self, capsys, monkeypatch):
        # Force a disagreement by lying about the oracle; the exit-code path
        # for mathematical mismatches is otherwise unreachable.
        import lucaskit.cli as cli_module

        monkeypatch.setattr(cli_module, "is_prime_oracle", lambda n: False)
        code, out, _ = run_cli(
            capsys, "primetest", "--method", "divisor-sum", "-n", "5", "--no-timing"
        )
        assert code == 1
        assert parse_lines(out)[0]["agree"] is False

    def test_fail_fast_stops_at_first_mismatch(self, capsys, monkeypatch):
        import lucaskit.primality as primality_module

        monkeypatch.setattr(primality_module, "is_prime_oracle", lambda n: False)
        code, out, _ = run_cli(
            capsys,
            "scan", "--method", "mersenne-sum", "--from", "2", "--to", "50",
            "--workers", "1", "--fail-fast", "--no-timing",
        )
        assert code == 1
        record = parse_lines(out)[0]
        assert len(record["mismatches"]) == 1
        assert record["mismatches"][0]["n"] == 2  # first prime disagrees
        assert record["checked"] < 49  # stopped early


# Every coprime (P, Q) with P in -8..8, Q in -9..9.
WIDE_PAIRS = [
    (p, q) for p in range(-8, 9) for q in range(-9, 10) if gcd(abs(p), abs(q)) == 1
]

# The public closed form and oracle of each grid family, as (params, k, n, r) -> Outcome.
PUBLIC_SIDES = {
    "lemma1": (
        lambda pq, k, n, r: lemma1_rhs(pq, k, n),
        lambda pq, k, n, r: ratio_lhs_exact(pq, k, n),
    ),
    "lemma2": (
        lambda pq, k, n, r: lemma2_rhs(pq, k, n),
        lambda pq, k, n, r: shifted_lhs_exact(pq, k, n),
    ),
    "cor6": (
        lambda pq, k, n, r: corollary_ratio_rhs(pq, k, n),
        lambda pq, k, n, r: ratio_lhs_exact(pq, k, n),
    ),
    "cor7": (
        lambda pq, k, n, r: corollary_shift_rhs(pq, k, n),
        lambda pq, k, n, r: shifted_lhs_exact(pq, k, n),
    ),
    "shift": (general_shift_rhs, shifted_lhs_exact),
    "main": (
        lambda pq, k, n, r: main_theorem_rhs(pq, n, k)[0],
        lambda pq, k, n, r: main_lhs_exact(pq, n, k),
    ),
}


class TestGridMatchesPublicPath:
    @settings(deadline=None, max_examples=150)
    @given(pq=st.sampled_from(WIDE_PAIRS), k=st.integers(1, 12))
    def test_marks_match_evaluate_congruence(self, pq, k):
        p, q = pq
        params = make_params(p, q)
        marks, failed = cli_module._grid_batch((p, q, k, 0, 12))
        assert "x" not in marks and failed == ()
        expected = []
        for n in range(0, 13):
            for family, r in cli_module.GRID_VARIANTS:
                if family == "main" and n == 0:
                    with pytest.raises(ValueError):
                        evaluate_congruence(family, p=p, q=q, k=k, n=n, r=r)
                    expected.append("-")
                    continue
                report = evaluate_congruence(family, p=p, q=q, k=k, n=n, r=r)
                assert report.holds, (family, pq, k, n, r)
                expected.append("-" if isinstance(report.rhs, TrivialModulus) else "+")
                entry = FAMILY_TABLE[family]
                modulus = entry.modulus(params, k, n)
                closed, oracle = PUBLIC_SIDES[family]
                assert closed(params, k, n, r) == report.rhs == _outcome(
                    entry.closed_form(params, k, n, r), modulus
                )
                assert oracle(params, k, n, r) == report.lhs == _outcome(
                    entry.oracle(params, k, n, r), modulus
                )
        assert marks == "".join(expected)

    def test_variants_come_from_the_table(self):
        assert cli_module.GRID_VARIANTS == tuple(
            (family, None) for family in ("lemma1", "lemma2", "cor6", "cor7", "main")
        ) + tuple(("shift", r) for r in range(7))


def _crash_worker(method, n):
    os._exit(1)


class TestFailureContract:
    # Exit 1 means a mathematical mismatch only: a broken pool or an
    # exhausted memory exits 2 with one "error: ..." line on stderr.

    @pytest.mark.parametrize("exc", [
        BrokenProcessPool("A process in the process pool was terminated abruptly"),
        MemoryError(),
        MemoryError("cannot allocate\n 8 GiB"),
    ])
    def test_pool_and_memory_failures_exit_2(self, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_module, "run_scan", fail)
        code, out, err = run_cli(
            capsys, "scan", "--method", "remark", "--from", "3", "--to", "15",
            "--workers", "2", "--no-timing",
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {type(exc).__name__}") and err.count("\n") == 1

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="the patched check reaches the workers only when they are forked",
    )
    def test_crashed_worker_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "_scan_check", _crash_worker)
        code, out, err = run_cli(
            capsys, "scan", "--method", "remark", "--from", "3", "--to", "15",
            "--workers", "2", "--no-timing",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: BrokenProcessPool: ") and err.count("\n") == 1


def _break_kernel(monkeypatch, family, side, hit):
    """Add 1 to the residue of one side ("closed_form" or "oracle") at one (P, Q, k, n).

    The family table's kernel is replaced, so the grid, evaluate_congruence
    and the public functions all see the fault.
    """
    entry = congruences_module.FAMILY_TABLE[family]
    kernel = getattr(entry, side)

    def broken(params, k, n, r):
        value = kernel(params, k, n, r)
        if (params.p_coeff, params.q_coeff, k, n) == hit:
            return (value + 1) % entry.modulus(params, k, n)
        return value

    monkeypatch.setitem(
        congruences_module.FAMILY_TABLE, family, entry._replace(**{side: broken})
    )


def _break_two_families(monkeypatch):
    """Make `shift` wrong at (2, -1, k=3, n=2) and `cor6` at (3, -1, k=2, n=4)."""
    _break_kernel(monkeypatch, "shift", "closed_form", (2, -1, 3, 2))
    _break_kernel(monkeypatch, "cor6", "closed_form", (3, -1, 2, 4))


GRID_1_8 = ["scan", "--method", "congruence-grid", "--from", "1", "--to", "8",
            "--workers", "1", "--no-timing"]


class TestGridMismatches:
    # Expected records were produced by the one-item-per-task scan, before
    # grid batches, with the same two families broken; the broken-oracle
    # records by the per-item scan, before the family table.

    def test_mismatches_keep_order_and_detail(self, capsys, monkeypatch):
        _break_two_families(monkeypatch)
        code, out, _ = run_cli(capsys, *GRID_1_8)
        assert code == 1
        record = parse_lines(out)[0]
        assert (record["checked"], record["skipped"]) == (14592, 4608)
        assert record["mismatches"] == [
            {"n": 2, "detail": f"family=shift p=2 q=-1 k=3 n=2 r={r}"} for r in range(7)
        ] + [{"n": 4, "detail": "family=cor6 p=3 q=-1 k=2 n=4"}]

    def test_fail_fast_counts(self, capsys, monkeypatch):
        _break_two_families(monkeypatch)
        code, out, _ = run_cli(capsys, *GRID_1_8, "--fail-fast")
        assert code == 1
        assert out == (
            '{"method":"congruence-grid","from":1,"to":8,"checked":3383,"skipped":2971,'
            '"mismatches":[{"n":2,"detail":"family=shift p=2 q=-1 k=3 n=2 r=0"}],'
            '"workers":1}\n'
        )

    @pytest.mark.parametrize("fail_fast, counts", [
        ([], '"checked":14592,"skipped":4608'),
        (["--fail-fast"], '"checked":627,"skipped":374'),
    ])
    def test_broken_oracle_is_flagged(self, capsys, monkeypatch, fail_fast, counts):
        _break_kernel(monkeypatch, "main", "oracle", (1, -2, 3, 4))
        code, out, _ = run_cli(capsys, *GRID_1_8, *fail_fast)
        assert code == 1
        assert out == (
            f'{{"method":"congruence-grid","from":1,"to":8,{counts},'
            '"mismatches":[{"n":4,"detail":"family=main p=1 q=-2 k=3 n=4"}],'
            '"workers":1}\n'
        )
