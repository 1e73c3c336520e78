import errno
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import lucaskit.cli as cli_module
import lucaskit.congruences as congruences_module
import lucaskit.primality as primality_module
import lucaskit.sequences as sequences_module
from lucaskit import (
    TRIVIAL_MODULUS,
    InternalInvariantViolation,
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
    u_pair_exact,
    v_at,
)
from lucaskit.cli import main
from lucaskit.congruences import FAMILY_TABLE, _evaluate_side
from lucaskit.primality import CRITERION_TABLE


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
        assert parse_lines(out) == [{"p": "1", "q": "-1", "n": "12", "u": "144"}]

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

    def test_lemma1_oracle_walks_past_the_table(self, capsys):
        # The oracle walks 10^8 recurrence steps past the stored table, which
        # giant steps make a fraction of a second.
        code, out, _ = run_cli(
            capsys,
            "congruence", "--family", "lemma1", "-p", "1", "-q", "-1",
            "-k", "1000", "-n", "100000", "--no-timing",
        )
        assert code == 0
        assert '"holds":true' in out

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


class TestIgnoredFlagsAreRejected:
    # A flag the family would not read is an error in evaluate_congruence, so
    # the library and the CLI reject it alike.

    @pytest.mark.parametrize("family, pq, message", [
        ("fib19", ("3", "2"), "the fib19 family fixes (P, Q) = (1, -1)"),
        ("fib21", (None, "1"), "the fib21 family fixes (P, Q) = (1, -1)"),
        ("fib20", ("2", "-1"), "the fib20 family fixes (P, Q) = (1, -1)"),
        ("mersenne22", ("1", "-1"), "the mersenne22 family fixes (P, Q) = (3, 2)"),
        ("mersenne22", (None, "-2"), "the mersenne22 family fixes (P, Q) = (3, 2)"),
    ])
    def test_coefficients_of_a_forced_family(self, capsys, family, pq, message):
        p, q = pq
        flags = (["-p", p] if p else []) + (["-q", q] if q else [])
        argv = ["congruence", "--family", family, *flags, "-k", "3", "-n", "4", "--no-timing"]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
        with pytest.raises(ValueError) as exc:
            evaluate_congruence(family, p=p and int(p), q=q and int(q), k=3, n=4)
        assert str(exc.value) == message

    @pytest.mark.parametrize("family", [f for f in FAMILY_TABLE if f != "shift"])
    def test_r_outside_the_shift_family(self, capsys, family):
        pq = [] if FAMILY_TABLE[family].forced else ["-p", "1", "-q", "-1"]
        argv = ["congruence", "--family", family, *pq, "-k", "3", "-n", "4", "-r", "5"]
        message = f"-r applies to the shift family only, not {family}"
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
        p, q = FAMILY_TABLE[family].forced or (1, -1)
        with pytest.raises(ValueError) as exc:
            evaluate_congruence(family, p=p, q=q, k=3, n=4, r=5)
        assert str(exc.value) == message

    @pytest.mark.parametrize("family", ["fib19", "fib20", "fib21"])
    @pytest.mark.parametrize("k, n", [(3, 4), (1, 2), (6, 4)])
    @pytest.mark.parametrize("flags", [["-p", "1", "-q", "-1"], ["-p", "1"], ["-q", "-1"]])
    def test_fibonacci_coefficients_give_the_same_record(self, capsys, family, k, n, flags):
        argv = ["congruence", "--family", family, "-k", str(k), "-n", str(n), "--no-timing"]
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0
        assert run_cli(capsys, *argv[:3], *flags, *argv[3:]) == expected


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

    @pytest.mark.parametrize("method", ["fib-sum", "fib-sum-direct"])
    def test_fib_diagnostic_record(self, capsys, method):
        # The record the diagnostic has always printed, outside and inside the hypotheses.
        for n, residue, modulus, prime in (("9", "0", "34", "false"), ("13", "0", "233", "true")):
            assert run_cli(
                capsys, "primetest", "--method", method, "-n", n, "--diagnostic", "--no-timing"
            ) == (
                0,
                f'{{"n":{n},"method":"{method}","diagnostic":true,"residue":"{residue}",'
                f'"modulus":"{modulus}","oracle_says_prime":{prime}}}\n',
                "",
            )

    @pytest.mark.parametrize("method", ["mersenne-sum", "mersenne-sum-direct", "divisor-sum", "oracle"])
    def test_diagnostic_rejected_outside_fib_methods(self, capsys, method):
        code, out, err = run_cli(
            capsys, "primetest", "--method", method, "-n", "12", "--diagnostic", "--no-timing"
        )
        assert (code, out) == (2, "")
        assert err == f"error: --diagnostic applies to fib-sum/fib-sum-direct only, not {method}\n"

    @pytest.mark.parametrize(
        "flags",
        [["--method", m] for m in cli_module.PRIMETEST_METHODS if m != "oracle"]
        + [["--method", "fib-sum", "--diagnostic"]],
        ids=" ".join,
    )
    def test_n_past_the_oracle_range_is_refused_before_the_work(self, capsys, flags):
        # Refused before any work: at this n fib-sum would run for seconds,
        # and the Mersenne and divisor-sum paths would exhaust memory.
        n = 2**64 + 1
        assert run_cli(capsys, "primetest", *flags, "-n", str(n)) == (
            2, "", f"error: {n} exceeds the deterministic range 2**64\n"
        )

    def test_diagnostic_methods_come_from_the_table(self):
        assert [m for m, c in CRITERION_TABLE.items() if c.diagnostic] == ["fib-sum", "fib-sum-direct"]
        assert cli_module.PRIMETEST_METHODS == (
            "mersenne-sum", "mersenne-sum-direct", "fib-sum", "fib-sum-direct", "divisor-sum", "oracle"
        )
        assert cli_module.SCAN_METHODS == (
            "mersenne-sum", "fib-sum", "remark", "divisor-sum", "congruence-grid"
        )

    def test_divisor_sum_prime_total_must_be_n_minus_1(self, capsys, monkeypatch):
        # An integral total of 3 for the prime 5, where the criterion gives 4:
        # primetest and scan share the verdict, so both report the mismatch.
        repunit_sum = primality_module._repunit_sum
        monkeypatch.setattr(
            primality_module, "_repunit_sum",
            lambda n: 3 * 31 if n == 5 else repunit_sum(n),  # T over 2^5 - 1 = 31
        )
        assert run_cli(
            capsys, "primetest", "--method", "divisor-sum", "-n", "5", "--no-timing"
        ) == (
            1,
            '{"n":5,"method":"divisor-sum","total":"3","is_integer":true,'
            '"criterion_says_prime":true,"oracle_says_prime":true,"agree":false}\n',
            "",
        )
        code, out, _ = run_cli(
            capsys, "scan", "--method", "divisor-sum", "--from", "4", "--to", "6",
            "--workers", "1", "--no-timing",
        )
        assert code == 1
        assert parse_lines(out)[0]["mismatches"] == [{"n": 5, "detail": "total=3 oracle=True"}]

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

    def test_mersenne_scan_past_the_str_limit(self, capsys):
        # Residues here exceed 4300 decimal digits; agreeing values are never printed.
        code, out, _ = run_cli(
            capsys,
            "scan", "--method", "mersenne-sum", "--from", "14280", "--to", "14300",
            "--workers", "1", "--no-timing",
        )
        assert code == 0
        assert out == (
            '{"method":"mersenne-sum","from":14280,"to":14300,"checked":21,"skipped":0,'
            '"skipped_values":[],"mismatches":[],"workers":1}\n'
        )

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

    @pytest.mark.parametrize("method, lo, hi", [("fib-sum", 5, 60), ("congruence-grid", 1, 8)])
    def test_run_scan_returns_the_printed_record(self, capsys, method, lo, hi):
        code, out, _ = run_cli(
            capsys,
            "scan", "--method", method, "--from", str(lo), "--to", str(hi),
            "--workers", "1", "--no-timing",
        )
        assert code == 0
        assert cli_module.run_scan(method, lo, hi, 1) == parse_lines(out)[0]

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

    def test_forks_never_outnumber_units_or_chunks(self, monkeypatch):
        # The fan-out forks all its workers up front, so it is sized to the
        # units and to the chunks one pipe write can queue; the record keeps
        # the requested count. A recorder stands in for the fan-out, counts
        # the workers it would fork and checks the units in this process.
        started = []

        def recorder(check, units, processes, fail_fast):
            started.append(processes)
            return map(check, units)

        monkeypatch.setattr(cli_module, "_fan_out", recorder)
        grid_units = len(congruences_module.COEFFICIENT_GRID)  # one unit per (P, Q)
        for method, lo, hi, workers, processes in [
            ("remark", 3, 3, 4096, [1]),
            ("remark", 3, 9, 2, [2]),
            ("fib-sum", 1, 3000, 4096, [cli_module._MAX_CHUNKS]),
            ("congruence-grid", 1, 2, 4096, [grid_units]),
            ("congruence-grid", 0, 0, 4096, []),  # no unit: no fork
        ]:
            started.clear()
            record = cli_module.run_scan(method, lo, hi, workers)
            assert (started, record["workers"]) == (processes, workers), (method, lo, hi)
            assert record == dict(cli_module.run_scan(method, lo, hi, 1), workers=workers)

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

    def test_default_workers_without_affinity_follow_cpu_count(self, monkeypatch):
        monkeypatch.delenv("LUCAS_WORKERS", raising=False)
        monkeypatch.delattr(cli_module.os, "sched_getaffinity")
        monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 6)
        assert cli_module._resolve_workers(None) == 6
        monkeypatch.setattr(cli_module.os, "cpu_count", lambda: None)
        assert cli_module._resolve_workers(None) == 1

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
        _, out, _ = run_cli(
            capsys, "scan", "--method", "remark", "--from", "3", "--to", "20", "--workers", "1"
        )
        assert "wall_time" in parse_lines(out)[0]

    def test_pretty_renders_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "primetest", "--method", "mersenne-sum", "-n", "12", "--pretty", "--no-timing"
        )
        assert code == 0
        assert "3354" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out.splitlines()[0])

    def test_module_entry_point(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        cases = [
            (["eval", "-p", "1", "-q", "-1", "-n", "10", "--no-timing"],
             0, '{"p":"1","q":"-1","n":"10","u":"55"}\n', ""),
            (["scan", "--method", "remark", "--from", "3", "--to", "9", "--workers", "0"],
             2, "", "error: --workers must be >= 1\n"),
        ]
        for argv, code, out, err in cases:
            proc = subprocess.run(
                [sys.executable, "-m", "lucaskit", *argv], capture_output=True, text=True, env=env
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv

    def test_import_loads_no_process_pool(self):
        # Only a scan with more than one worker forks, and it needs no pool:
        # it loads pickle and signal itself, when it starts. No record is a
        # dataclass (which loads inspect), and only divisor_sum_breakdown
        # loads fractions (and with it decimal).
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        code = (
            "import lucaskit.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing', 'pickle', 'signal', "
            "'dataclasses', 'inspect', 'fractions', 'decimal')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_divisor_sum_loads_fractions_on_first_use(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        code = (
            "import sys; from lucaskit import divisor_sum_breakdown; "
            "loaded = 'fractions' in sys.modules; "
            "from fractions import Fraction; b = divisor_sum_breakdown(12); "
            "print(loaded, type(b.total) is Fraction, b.total, "
            "{type(t.contribution) for t in b.terms} == {Fraction})"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False True 716/105 True\n", "")

    @pytest.mark.parametrize("argv, err", [
        (["congruence", "--family", "nope", "-k", "3", "-n", "2"],
         "error: unknown congruence family 'nope'\n"),
        (["primetest", "--method", "remark", "-n", "5"],
         "error: unknown primetest method 'remark'\n"),
        (["scan", "--method", "fib-sum-direct", "--from", "5", "--to", "9"],
         "error: unknown scan method 'fib-sum-direct'\n"),
    ])
    def test_unknown_family_or_method_is_one_error_line(self, capsys, argv, err):
        # lucaskit rejects the name, not argparse: no usage line precedes the error.
        assert run_cli(capsys, *argv) == (2, "", err)

    @pytest.mark.parametrize("command, flag, choices", [
        ("congruence", "--family", cli_module.FAMILIES),
        ("primetest", "--method", cli_module.PRIMETEST_METHODS),
        ("scan", "--method", cli_module.SCAN_METHODS),
    ])
    def test_help_lists_the_choices(self, capsys, command, flag, choices):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        help_text = "".join(capsys.readouterr().out.split())
        assert f"{flag}{flag.strip('-').upper()}oneof{','.join(choices)}" in help_text

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
        monkeypatch.setattr(primality_module, "is_prime_oracle", lambda n: False)
        code, out, _ = run_cli(
            capsys, "primetest", "--method", "divisor-sum", "-n", "5", "--no-timing"
        )
        assert code == 1
        assert parse_lines(out)[0]["agree"] is False

    def test_fail_fast_stops_at_first_mismatch(self, capsys, monkeypatch):
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


def _disagree_at(monkeypatch, *targets):
    """Make the runner report the oracle as prime, and a disagreement, at each n of targets."""
    run = cli_module.run_criterion

    def patched(criterion, n):
        result, oracle, agree = run(criterion, n)
        if n not in targets:
            return result, oracle, agree
        return result, True, False

    monkeypatch.setattr(cli_module, "run_criterion", patched)


class TestScanMismatchDetail:
    # Expected records produced by the scan that formatted every value's
    # detail, with the same disagreement injected.
    def test_mersenne_detail(self, capsys, monkeypatch):
        _disagree_at(monkeypatch, 12)
        argv = ["scan", "--method", "mersenne-sum", "--from", "2", "--to", "30",
                "--workers", "1", "--no-timing"]
        detail = '"mismatches":[{"n":12,"detail":"residue=3354 criterion=False oracle=True"}]'
        assert run_cli(capsys, *argv) == (
            1,
            '{"method":"mersenne-sum","from":2,"to":30,"checked":29,"skipped":0,'
            f'"skipped_values":[],{detail},"workers":1}}\n',
            "",
        )
        assert run_cli(capsys, *argv, "--fail-fast") == (
            1,
            '{"method":"mersenne-sum","from":2,"to":30,"checked":11,"skipped":0,'
            f'"skipped_values":[],{detail},"workers":1}}\n',
            "",
        )

    def test_fib_detail(self, capsys, monkeypatch):
        _disagree_at(monkeypatch, 21)
        code, out, _ = run_cli(
            capsys,
            "scan", "--method", "fib-sum", "--from", "2", "--to", "30",
            "--workers", "1", "--no-timing",
        )
        assert code == 1
        assert out == (
            '{"method":"fib-sum","from":2,"to":30,"checked":5,"skipped":24,'
            '"skipped_values":[2,3,4,6,7,8,9,10,11,12,14,15,16,18,19,20,22,23,24,'
            '25,26,27,28,30],"mismatches":[{"n":21,'
            '"detail":"residue=10104 criterion=False oracle=True"}],"workers":1}\n'
        )

    @pytest.mark.parametrize("workers", [
        "1",
        "2",
    ])
    def test_fail_fast_skipped_values_stop_at_the_mismatch(self, capsys, monkeypatch, workers):
        _disagree_at(monkeypatch, 21)
        code, out, _ = run_cli(
            capsys,
            "scan", "--method", "fib-sum", "--from", "2", "--to", "30",
            "--workers", workers, "--fail-fast", "--no-timing",
        )
        assert code == 1
        assert out == (
            '{"method":"fib-sum","from":2,"to":30,"checked":4,"skipped":16,'
            '"skipped_values":[2,3,4,6,7,8,9,10,11,12,14,15,16,18,19,20],"mismatches":[{"n":21,'
            f'"detail":"residue=10104 criterion=False oracle=True"}}],"workers":{workers}}}\n'
        )

    def test_divisor_sum_detail(self, capsys, monkeypatch):
        oracle = primality_module.is_prime_oracle
        monkeypatch.setattr(
            primality_module, "is_prime_oracle", lambda n: oracle(n) != (n == 6)
        )
        code, out, _ = run_cli(
            capsys,
            "scan", "--method", "divisor-sum", "--from", "2", "--to", "30",
            "--workers", "1", "--no-timing",
        )
        assert code == 1
        assert out == (
            '{"method":"divisor-sum","from":2,"to":30,"checked":29,"skipped":0,'
            '"skipped_values":[],"mismatches":[{"n":6,"detail":"total=79/21 oracle=True"}],'
            '"workers":1}\n'
        )


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
    @given(pq=st.sampled_from(WIDE_PAIRS), k=st.integers(1, 12), n_lo=st.sampled_from([1, 5]))
    def test_marks_match_evaluate_congruence(self, pq, k, n_lo):
        p, q = pq
        params = make_params(p, q)
        marks, failed = congruences_module.grid_batch((p, q, 0, 12))
        assert "x" not in marks and failed == ()
        # The marks are one block per k, each of 13 n by the variants. A unit
        # that starts at a later n marks the same items of each of its k alike.
        width = len(congruences_module.GRID_VARIANTS)
        block = 13 * width
        later = congruences_module.grid_batch((p, q, n_lo, 12))
        assert later == ("".join(
            marks[(j - 1) * block + n_lo * width : j * block] for j in range(n_lo, 13)
        ), ())
        expected = []
        for n in range(0, 13):
            for family, r in congruences_module.GRID_VARIANTS:
                if family == "main" and n == 0:
                    with pytest.raises(ValueError):
                        evaluate_congruence(family, p=p, q=q, k=k, n=n, r=r)
                    expected.append("-")
                    continue
                report = evaluate_congruence(family, p=p, q=q, k=k, n=n, r=r)
                assert report.holds, (family, pq, k, n, r)
                expected.append("-" if isinstance(report.rhs, TrivialModulus) else "+")
                closed, oracle = PUBLIC_SIDES[family]
                assert closed(params, k, n, r) == report.rhs == _evaluate_side(
                    family, "closed_form", params, k, n, r
                )
                assert oracle(params, k, n, r) == report.lhs == _evaluate_side(
                    family, "oracle", params, k, n, r
                )
        assert marks[(k - 1) * block : k * block] == "".join(expected)

    @settings(
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(pq=st.sampled_from(WIDE_PAIRS), k=st.integers(1, 12), n_lo=st.sampled_from([0, 1, 5]))
    @example(pq=(-8, -9), k=12, n_lo=0)
    @example(pq=(1, -1), k=7, n_lo=1)
    def test_marks_match_evaluate_congruence_past_a_short_prefix(self, monkeypatch, pq, k, n_lo):
        # A unit given a 60-term prefix: the columns of k >= 5, which read up
        # to index 12k + 6, cross its end and walk the rest.
        built = []

        def short_prefix(params, n):
            built.append(n)
            return sequences_module._u_prefix(params, n)[:60]

        monkeypatch.setattr(congruences_module, "_u_prefix", short_prefix)
        p, q = pq
        n_lo = min(n_lo, k)
        marks, failed = congruences_module.grid_batch((p, q, n_lo, 12))
        assert failed == () and built == [12 * 12 + 6]
        expected = []
        for n in range(n_lo, 13):
            for family, r in congruences_module.GRID_VARIANTS:
                try:
                    report = evaluate_congruence(family, p=p, q=q, k=k, n=n, r=r)
                except ValueError:
                    expected.append("-")
                    continue
                assert report.holds, (family, pq, k, n, r)
                expected.append("-" if isinstance(report.rhs, TrivialModulus) else "+")
        block = len(expected)
        first = k - max(n_lo, 1)
        assert marks[first * block : (first + 1) * block] == "".join(expected)

    def test_grid_domain_rests_on_trivial_moduli(self):
        # grid_batch runs no domain check: over k >= 1, n >= 0 and r in 0..6, every
        # item outside its family's domain has a modulus of 0 or 1, which it skips.
        outside = set()
        for p, q in WIDE_PAIRS:
            params = make_params(p, q)
            for family, r in congruences_module.GRID_VARIANTS:
                entry = FAMILY_TABLE[family]
                for k in range(1, 13):
                    for n in range(0, 13):
                        try:
                            entry.check(k, n, r)
                        except ValueError:
                            outside.add((family, n))
                            assert entry.modulus(params, k, n, ()) <= 1, (family, p, q, k, n, r)
        assert outside == {("main", 0)}

    @pytest.mark.parametrize("unit", [(1, -1, -1, 8), (1, -1, 0, 0), (1, -1, 5, 3)])
    def test_unit_outside_the_grid_is_rejected(self, unit):
        with pytest.raises(ValueError, match="a grid unit needs n >= 0 and some k >= 1"):
            congruences_module.grid_batch(unit)

    @pytest.mark.parametrize("lo, hi, n_lo", [(0, 0, None), (-3, 0, None), (-3, 2, 0), (0, 3, 0),
                                              (1, 1, 1), (5, 9, 5)])
    def test_one_unit_per_pair(self, lo, hi, n_lo):
        # A range with no k >= 1 has no unit, so it forks no worker.
        grid = congruences_module.COEFFICIENT_GRID
        expected = [] if n_lo is None else [(p, q, n_lo, hi) for p, q in grid]
        assert congruences_module.grid_units(lo, hi) == expected
        assert not hasattr(cli_module, "COEFFICIENT_GRID")

    def test_variants_come_from_the_table(self):
        assert congruences_module.GRID_VARIANTS == tuple(
            (family, None) for family in ("lemma1", "lemma2", "cor6", "cor7", "main")
        ) + tuple(("shift", r) for r in range(7))


def _grid_calls(params, k, hi, side):
    """How many calls of one side kind a 1..hi batch of (params, k) makes.

    A side is called once per modulus it is read at, for all the effective
    shifts of its variants at once; a modulus with no item over 1 calls none.
    """
    table = congruences_module.FAMILY_TABLE
    u_k = congruences_module._modulus_k(params, k, 1, ())
    has_items = {
        congruences_module._modulus_k: u_k > 1,
        congruences_module._modulus_n: any(
            congruences_module._modulus_n(params, k, n, ()) > 1 for n in range(1, hi + 1)
        ),
    }
    return len({
        (getattr(table[name], side), table[name].modulus)
        for name, r in congruences_module.GRID_VARIANTS
        if has_items[table[name].modulus]
    })


class TestGridWork:
    # The work of grid batches, counted at the readers the grid calls.

    def _count_calls(self, monkeypatch, module, names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(module, name)

            def reader(*args, real=real, name=name):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, reader)
        return counts

    def test_grid_walks_no_term(self, monkeypatch):
        # One prefix per pair holds every index the 1..24 grid reads, so no
        # oracle read reaches the walk _u_walk_mod, and each oracle call, one
        # per oracle side and modulus with an item to check, reads its terms
        # in one call: 3 per k where |U_k| > 1. The single-term reads, in
        # either module, are |U_k| once per k, main's |U_n| once per n of each
        # pair, U_{k+1} once per row and each shift's U_r once where |U_k| > 1,
        # and main's U_n, U_d and, in the odd-quotients case, U_{d+1} per item.
        # The rows read theirs through _u_term with the modulus |U_k|, the rest
        # exactly. The ratio oracle takes U_k from the prefix, so no u_at runs.
        walks = self._count_calls(monkeypatch, sequences_module, ["_u_walk_mod", "_u_term"])
        counts = self._count_calls(
            monkeypatch, congruences_module, ["_u_prefix", "_u_terms_mod", "u_at"]
        )
        real = congruences_module._u_term
        modular = Counter()  # _u_term reads in congruences, by whether a modulus is given

        def reader(params, n, terms, m=None):
            modular[m is not None] += 1
            return real(params, n, terms, m)

        monkeypatch.setattr(congruences_module, "_u_term", reader)
        scan = cli_module.run_scan("congruence-grid", 1, 24, 1)
        assert (scan["checked"], scan["skipped"], scan["mismatches"]) == (149472, 23328, [])
        assert walks["_u_walk_mod"] == 0
        assert counts["u_at"] == 0
        assert counts["_u_prefix"] == len(congruences_module.COEFFICIENT_GRID)
        batches = [(p, q, k) for p, q in congruences_module.COEFFICIENT_GRID for k in range(1, 25)]
        rows = sum(abs(u_at(make_params(p, q), k)) > 1 for p, q, k in batches)
        main_reads = sum(
            3 if congruences_module._case(n, k) is congruences_module._ODD_QUOTIENTS else 2
            for p, q, k in batches
            for n in range(1, 25)
            if abs(u_at(make_params(p, q), n)) > 1
        )
        reads = 2 * len(batches) + (2 + len(congruences_module.SHIFT_R_RANGE)) * rows + main_reads
        assert walks["_u_term"] + modular[False] + modular[True] == reads
        assert modular[True] == (2 + len(congruences_module.SHIFT_R_RANGE)) * rows
        assert counts["_u_terms_mod"] == sum(
            _grid_calls(make_params(p, q), k, 24, "oracle") for p, q, k in batches
        )
        assert counts["_u_terms_mod"] == 1590

    @pytest.mark.parametrize("pq", [(1, -1), (5, -3), (1, 1)])
    def test_a_unit_does_not_depend_on_earlier_reads(self, monkeypatch, pq):
        # A unit's outcomes and its hit and miss counts are the same whether
        # or not the process first read 200 other pairs and U_100000 of
        # (1, -1), and its oracle columns walk no term (every walk plans
        # once, so _walk_plan counts the walks).
        walks = self._count_calls(monkeypatch, sequences_module, ["_walk_plan"])
        cache_info = sequences_module._u_term.cache_info

        def run():
            walks["_walk_plan"] = 0
            start = cache_info()
            outcome = congruences_module.grid_batch((*pq, 1, 24))
            info = cache_info()
            assert walks["_walk_plan"] == 0
            return outcome, info.hits - start.hits, info.misses - start.misses

        first = run()
        for p, q in WIDE_PAIRS:
            params = make_params(p, q)
            sequences_module._u_term(params, 500, sequences_module._u_prefix(params, 13))
            assert evaluate_congruence("shift", p=p, q=q, k=3, n=40, r=2).holds
        fibonacci = sequences_module.FIBONACCI_PARAMS
        f_100000 = u_pair_exact(fibonacci, 100_000)[0]
        assert sequences_module._u_term(fibonacci, 100_000, ()) == f_100000
        assert run() == first
        assert first[2] == 0

    @pytest.mark.parametrize("p, q, k, calls", [
        (1, -1, 1, 1),  # |U_1| = 1: only main has items
        (1, -1, 7, 3),
        (1, 1, 3, 0),  # U_3(1, 1) = 0, and no |U_n| exceeds 1
        (4, 3, 13, 3),
        (5, -3, 24, 3),
    ])
    def test_one_prefix_and_one_read_per_distinct_oracle_column(
        self, monkeypatch, p, q, k, calls
    ):
        # A unit builds its pair's prefix once and reads the oracle columns of
        # each k in one call per oracle side and modulus, all from the prefix:
        # no read misses. The shifted oracle reads all seven shifts at once,
        # up to U_{k*hi + 6}.
        params = make_params(p, q)
        assert _grid_calls(params, k, 24, "oracle") == calls
        real = sequences_module._u_terms_mod
        reads = []

        def reader(params, indices, moduli, terms):
            reads.append((max(indices), len(terms), len(indices)))
            return real(params, indices, moduli, terms)

        monkeypatch.setattr(congruences_module, "_u_terms_mod", reader)
        counts = self._count_calls(monkeypatch, congruences_module, ["_u_prefix"])
        for hi in (24, 12):
            reads.clear()
            counts["_u_prefix"] = 0
            start = sequences_module._u_term.cache_info().misses
            congruences_module.grid_batch((p, q, 1, hi))
            assert sequences_module._u_term.cache_info().misses == start
            assert counts["_u_prefix"] == 1
            per_k = [_grid_calls(params, j, hi, "oracle") for j in range(1, hi + 1)]
            assert len(reads) == sum(per_k)
            assert all(widest < stored for widest, stored, _ in reads)
            shifted = [widest for widest, _, count in reads if count == 7 * hi]
            assert shifted == [j * hi + 6 for j in range(1, hi + 1) if abs(u_at(params, j)) > 1]

    @pytest.mark.parametrize("p, q, k, shared, unshared", [
        (1, -1, 7, 3, 6),
        (5, -3, 24, 3, 6),
        (1, -1, 1, 1, 1),  # |U_1| = 1: main alone
        (1, 1, 3, 0, 0),  # no modulus exceeds 1
    ])
    def test_each_distinct_column_is_one_side_call(
        self, monkeypatch, p, q, k, shared, unshared
    ):
        # Where |U_k| > 1 the 12 variants' 24 sides are 6 side calls: lemma1
        # and cor6 share both sides; lemma2, cor7 and shift share both at
        # r = 1, and the shift row and the shifted oracle each take all seven
        # shifts in one call. With a wrapper of its own on each family's side,
        # a batch shares nothing, calls each family's sides once (shift's on
        # its seven shifts), and marks the same.
        table = congruences_module.FAMILY_TABLE
        families = dict(table)
        made = Counter()

        def counted(side, kind):
            def wrapper(*args):
                made[kind] += args[1] == k  # the calls of this k alone
                return side(*args)

            return wrapper

        def batch(share):
            wrappers = {}
            for name, family in families.items():
                sides = {}
                for kind in ("closed_form", "oracle"):
                    side = getattr(family, kind)
                    if not share or side not in wrappers:
                        wrappers[side] = counted(side, kind)
                    sides[kind] = wrappers[side]
                monkeypatch.setitem(table, name, family._replace(**sides))
            made.clear()
            return congruences_module.grid_batch((p, q, 1, 24)), +made

        marks, calls = batch(share=True)
        assert calls == {kind: shared for kind in ("closed_form", "oracle") if shared}
        params = make_params(p, q)
        for kind in ("closed_form", "oracle"):
            assert _grid_calls(params, k, 24, kind) == shared
        assert batch(share=False) == (
            marks, {kind: unshared for kind in ("closed_form", "oracle") if unshared}
        )

    @pytest.mark.parametrize("p, q", [(1, -1), (3, -2), (2, 1), (1, 1)])
    def test_u_k_families_read_no_term_per_n(self, monkeypatch, p, q):
        # Without main, a unit's exact term reads are its k's preparing alone:
        # a unit over 1..hi reads as many as its units k..k, of one n each:
        # |U_k|, and where it exceeds 1 U_{k+1} once per row and each U_r once.
        monkeypatch.setattr(congruences_module, "GRID_VARIANTS", tuple(
            variant for variant in congruences_module.GRID_VARIANTS if variant[0] != "main"
        ))
        counts = self._count_calls(monkeypatch, congruences_module, ["_u_term"])

        def reads(lo, hi):
            counts["_u_term"] = 0
            marks, _ = congruences_module.grid_batch((p, q, lo, hi))
            assert len(marks) == 11 * (hi - lo + 1) ** 2
            return counts["_u_term"]

        single = [reads(k, k) for k in range(1, 25)]
        assert max(single) <= 10, single
        assert (reads(1, 12), reads(1, 24)) == (sum(single[:12]), sum(single))


def _crash_worker(n):
    os._exit(1)


def _kill_worker(n):
    os.kill(os.getpid(), signal.SIGKILL)


def _assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _violate_invariant(*args, **kwargs):
    raise InternalInvariantViolation("exponent -1/2 must be a nonnegative integer")


class TestFailureContract:
    # Exit 1 means a mathematical mismatch only: a crashed worker or an
    # exhausted memory exits 2 with one "error: ..." line on stderr.

    @pytest.mark.parametrize("exc, err", [
        (cli_module.WorkerCrashed("scan worker 7 exited with code 1 before returning its outcomes"),
         "error: scan worker 7 exited with code 1 before returning its outcomes\n"),
        (MemoryError(), "error: MemoryError\n"),
        (MemoryError("cannot allocate\n 8 GiB"), "error: MemoryError: cannot allocate 8 GiB\n"),
    ])
    def test_worker_and_memory_failures_exit_2(self, capsys, monkeypatch, exc, err):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_module, "run_scan", fail)
        assert run_cli(
            capsys, "scan", "--method", "remark", "--from", "3", "--to", "15",
            "--workers", "2", "--no-timing",
        ) == (2, "", err)

    @pytest.mark.parametrize("argv", [
        ["scan", "--method", "divisor-sum", "--from", "1", "--to", str(2**64), "--workers", "1"],
        ["congruence", "--family", "mersenne22", "-k", str(10**20), "-n", "3"],
    ], ids=["scan_range", "mersenne_numerator"])
    def test_overflow_exits_2(self, capsys, argv):
        # Each fails at once, before any allocation: a range too long to list,
        # and a shift too wide to build. The message is Python's own.
        code, out, err = run_cli(capsys, *argv, "--no-timing")
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: OverflowError: [^\n]+\n", err), err

    @pytest.mark.parametrize("env, run_scan, workers, code, err", [
        (None, None, "0", 2, "error: --workers must be >= 1\n"),
        ("0", None, None, 2, "error: LUCAS_WORKERS must be >= 1\n"),
        (None, _violate_invariant, "1", 1,
         "invariant violated: exponent -1/2 must be a nonnegative integer\n"),
    ], ids=["workers_flag", "workers_env", "invariant"])
    def test_guards_exit_with_one_line(
        self, capsys, monkeypatch, env, run_scan, workers, code, err
    ):
        monkeypatch.delenv("LUCAS_WORKERS", raising=False)
        if env is not None:
            monkeypatch.setenv("LUCAS_WORKERS", env)
        if run_scan is not None:
            monkeypatch.setattr(cli_module, "run_scan", run_scan)
        argv = ["scan", "--method", "remark", "--from", "3", "--to", "9", "--no-timing"]
        if workers is not None:
            argv += ["--workers", workers]
        assert run_cli(capsys, *argv) == (code, "", err)

    def test_unknown_scan_method_is_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            cli_module.run_scan("lemma9", 1, 2)
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == "unknown scan method 'lemma9'"

    def test_crashed_worker_exits_2(self, capsys, monkeypatch):
        remark = CRITERION_TABLE["remark"]
        monkeypatch.setitem(CRITERION_TABLE, "remark", remark._replace(evaluate=_crash_worker))
        code, out, err = run_cli(
            capsys, "scan", "--method", "remark", "--from", "3", "--to", "15",
            "--workers", "2", "--no-timing",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: scan worker ") and err.count("\n") == 1
        assert err.endswith(" exited with code 1 before returning its outcomes\n")
        _assert_no_child_left()


def _break_kernel(monkeypatch, family, side, hit):
    """Add 1 to the residue of one side ("closed_form" or "oracle") at one (P, Q, k, n).

    The family table's side is replaced by one that carries the fault, so the
    grid, evaluate_congruence and the public functions all see it.
    """
    entry = congruences_module.FAMILY_TABLE[family]
    real = getattr(entry, side)

    def broken(params, k, r, ns, moduli, terms):
        shifts = len(r) if isinstance(r, tuple) else 1  # answered shift by shift
        return [
            (value + 1) % m if (params.p_coeff, params.q_coeff, k, n) == hit else value
            for n, m, value in zip(
                [*ns] * shifts, [*moduli] * shifts, real(params, k, r, ns, moduli, terms)
            )
        ]

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

    def test_mismatches_in_one_batch_come_in_n_order(self, capsys, monkeypatch):
        # lemma1 precedes shift among the variants, but its fault is at a later n.
        _break_kernel(monkeypatch, "lemma1", "closed_form", (2, -1, 3, 5))
        _break_kernel(monkeypatch, "shift", "oracle", (2, -1, 3, 2))
        code, out, _ = run_cli(capsys, *GRID_1_8)
        assert code == 1
        assert parse_lines(out)[0]["mismatches"] == [
            {"n": 2, "detail": f"family=shift p=2 q=-1 k=3 n=2 r={r}"} for r in range(7)
        ] + [{"n": 5, "detail": "family=lemma1 p=2 q=-1 k=3 n=5"}]
        code, out, _ = run_cli(capsys, *GRID_1_8, "--fail-fast")
        assert parse_lines(out)[0]["mismatches"] == [
            {"n": 2, "detail": "family=shift p=2 q=-1 k=3 n=2 r=0"}
        ]

    def test_mismatches_in_one_unit_come_in_k_order(self, capsys, monkeypatch):
        # One pair's unit holds every k: the fault at k = 5 sits earlier in its
        # k's block than the one at k = 3 does in its own, yet comes after it.
        _break_kernel(monkeypatch, "lemma1", "closed_form", (2, -1, 5, 2))
        _break_kernel(monkeypatch, "lemma1", "closed_form", (2, -1, 3, 6))
        code, out, _ = run_cli(capsys, *GRID_1_8)
        assert code == 1
        assert parse_lines(out)[0]["mismatches"] == [
            {"n": 6, "detail": "family=lemma1 p=2 q=-1 k=3 n=6"},
            {"n": 2, "detail": "family=lemma1 p=2 q=-1 k=5 n=2"},
        ]

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

    @pytest.mark.parametrize("side", ["closed_form", "oracle"])
    @pytest.mark.parametrize("variant", congruences_module.GRID_VARIANTS, ids=[
        name if r is None else f"{name}-r{r}" for name, r in congruences_module.GRID_VARIANTS
    ])
    def test_a_broken_side_shows_under_its_own_family(self, monkeypatch, variant, side):
        # Each variant is checked at (2, -1, k=3, n=2), where |U_3| = 5 and
        # |U_2| = 2. A side it shares a column with stays whole, so the fault
        # shows under the broken family alone, for each r of shift.
        family, _ = variant
        _break_kernel(monkeypatch, family, side, (2, -1, 3, 2))
        scan = cli_module.run_scan("congruence-grid", 1, 8, 1)
        shifts = [f" r={r}" for r in range(7)] if family == "shift" else [""]
        assert scan["mismatches"] == [
            {"n": 2, "detail": f"family={family} p=2 q=-1 k=3 n=2{shift}"} for shift in shifts
        ]


def _raise_in_worker_at(monkeypatch, faults):
    """Make the remark check raise faults[n] at each n of `faults`, in whichever process runs it."""
    remark = CRITERION_TABLE["remark"]

    def evaluate(n):
        if n in faults:
            raise faults[n]
        return remark.evaluate(n)

    monkeypatch.setitem(CRITERION_TABLE, "remark", remark._replace(evaluate=evaluate))


REMARK_3_15 = ["scan", "--method", "remark", "--from", "3", "--to", "15", "--no-timing"]


def _usable_cpus():
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def _log_affinity_calls(monkeypatch, log):
    """Wrap os.sched_setaffinity: each call, in any process, appends [pid, target, cpus] to `log`."""
    real = os.sched_setaffinity

    def logged(pid, cpus):
        with open(log, "a") as out:
            out.write(json.dumps([os.getpid(), pid, sorted(cpus)]) + "\n")
        return real(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", logged)


class TestFanOut:
    # A scan with more than one worker forks them; each case ends with no
    # child left behind.

    @pytest.mark.skipif(len(_usable_cpus()) < 2, reason="needs two usable CPUs")
    @pytest.mark.parametrize("workers", [2, 3])
    def test_each_worker_starts_on_a_cpu_of_its_own(self, monkeypatch, tmp_path, workers):
        cpus = _usable_cpus()
        expected = dict(cli_module.run_scan("congruence-grid", 1, 8, 1), workers=workers)
        log = tmp_path / "affinity.log"
        _log_affinity_calls(monkeypatch, log)
        record = cli_module.run_scan("congruence-grid", 1, 8, workers)
        calls = {}
        for line in (log.read_text() if log.exists() else "").splitlines():
            caller, target, cpu_set = json.loads(line)
            assert target == 0
            calls.setdefault(caller, []).append(cpu_set)
        assert len(calls) == workers and os.getpid() not in calls
        assert all(len(made) == 2 for made in calls.values())
        # Round-robin over the parent's set: one CPU each, then the whole set back.
        firsts = [first for first, _ in calls.values()]
        assert all(len(first) == 1 and first[0] in cpus for first in firsts)
        assert len({first[0] for first in firsts}) == min(workers, len(cpus))
        assert all(second == cpus for _, second in calls.values())
        assert _usable_cpus() == cpus
        assert record == expected
        _assert_no_child_left()

    @pytest.mark.parametrize("case", ["refused", "refused_on_restore", "one_cpu", "unsupported"])
    def test_placement_is_advisory(self, capsys, monkeypatch, tmp_path, case):
        # A move the platform refuses, or has no call for, changes nothing.
        code, out, err = run_cli(capsys, *GRID_1_8)
        assert (code, err) == (0, "")
        log = tmp_path / "affinity.log"
        if case.startswith("refused"):
            def refuse(pid, cpus):
                if case == "refused" or len(cpus) > 1:
                    raise OSError(errno.EINVAL, "Invalid argument")

            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        elif case == "one_cpu":
            _log_affinity_calls(monkeypatch, log)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        assert run_cli(capsys, *GRID_1_8, "--workers", "2") == (0, out.replace(
            '"workers":1', '"workers":2'), "")
        assert not log.exists()
        _assert_no_child_left()

    @pytest.mark.parametrize("faults, code, err", [
        ({11: InternalInvariantViolation("U_0 must vanish")}, 1,
         "invariant violated: U_0 must vanish\n"),
        ({11: MemoryError()}, 2, "error: MemoryError\n"),
        ({11: ValueError("n out of range")}, 2, "error: n out of range\n"),
        # The first fault in input order is raised, whichever worker met it.
        ({7: ValueError("first"), 15: MemoryError()}, 2, "error: first\n"),
    ], ids=["invariant", "memory", "value", "first_in_order"])
    @pytest.mark.parametrize("workers", ["2", "3"])
    def test_exception_in_a_worker_exits_as_in_process(
        self, capsys, monkeypatch, faults, code, err, workers
    ):
        _raise_in_worker_at(monkeypatch, faults)
        assert run_cli(capsys, *REMARK_3_15, "--workers", "1") == (code, "", err)
        assert run_cli(capsys, *REMARK_3_15, "--workers", workers) == (code, "", err)
        _assert_no_child_left()

    def test_killed_worker_exits_2(self, capsys, monkeypatch):
        remark = CRITERION_TABLE["remark"]
        monkeypatch.setitem(CRITERION_TABLE, "remark", remark._replace(evaluate=_kill_worker))
        code, out, err = run_cli(capsys, *REMARK_3_15, "--workers", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: scan worker ") and err.count("\n") == 1
        assert err.endswith(" was killed by signal 9 before returning its outcomes\n")
        _assert_no_child_left()

    def test_worker_failing_mid_payload_exits_2(self, capsys, monkeypatch):
        # The payload's first frame reaches the pipe before pickling the
        # lambda fails, so the parent must not unpickle what it read.
        monkeypatch.setattr(
            cli_module, "_check_chunks", lambda *args: {0: ["+" * 200_000], 1: lambda: None}
        )
        code, out, err = run_cli(capsys, *REMARK_3_15, "--workers", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: scan worker ") and err.count("\n") == 1
        assert err.endswith(" exited with code 1 before returning its outcomes\n")
        _assert_no_child_left()

    def test_interrupted_scan_kills_its_workers(self, monkeypatch):
        # Workers that never finish are killed and reaped when the parent
        # stops waiting for them.
        monkeypatch.setattr(cli_module, "_check_chunks", lambda *args: time.sleep(60))

        def interrupt(signum, frame):
            raise TimeoutError("interrupted")

        previous = signal.signal(signal.SIGALRM, interrupt)
        started = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.3)
            with pytest.raises(TimeoutError):
                cli_module.run_scan("remark", 3, 15, 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 10
        _assert_no_child_left()

    @pytest.mark.parametrize("refused, exc", [
        ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
        ("pipe", OSError(errno.EMFILE, "Too many open files")),
    ])
    def test_a_worker_that_cannot_start_exits_2(self, capsys, monkeypatch, refused, exc):
        # The system refuses the second worker its fork or its result pipe
        # (the first pipe is the chunk queue): the scan exits 2 with one
        # error line and no traceback, and kills and reaps the worker it
        # started.
        real_fork, real_pipe, forked, pipes = os.fork, os.pipe, [], []

        def fork():
            if refused == "fork" and forked:
                raise exc
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        def pipe():
            pipes.append(None)
            if refused == "pipe" and len(pipes) == 3:
                raise exc
            return real_pipe()

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "pipe", pipe)
        code, out, err = run_cli(capsys, *REMARK_3_15, "--workers", "3")
        assert (code, out) == (2, "")
        assert err == f"error: could not start the scan's workers: {exc}\n"
        assert len(forked) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)
        _assert_no_child_left()

    def test_forks_one_worker_per_process(self, monkeypatch):
        forked = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        for method, lo, hi, workers in [
            ("remark", 3, 9, 3), ("remark", 3, 4, 3), ("congruence-grid", 1, 2, 2),
        ]:
            forked.clear()
            record = cli_module.run_scan(method, lo, hi, workers)
            assert len(forked) == min(workers, hi - lo + 1), (method, lo, hi)
            assert record == dict(cli_module.run_scan(method, lo, hi, 1), workers=workers)
        _assert_no_child_left()

    @pytest.mark.parametrize("processes", [2, 3])
    def test_chunks_cover_every_unit_once_in_input_order(self, monkeypatch, processes):
        # Each worker tags every outcome with the number of the chunk that held it.
        real = cli_module._check_chunks

        def tagged(check, units, size, queue, fail_fast):
            return {
                c: [(mark, ((n, str(c)),)) for mark, ((n, _),) in outcomes]
                for c, outcomes in real(check, units, size, queue, fail_fast).items()
            }

        monkeypatch.setattr(cli_module, "_check_chunks", tagged)
        for count in (1, 2, 127, 128, 129, 20_000, 65_537):
            units = list(range(count))
            merged = cli_module._fan_out(lambda n: ("+", ((n, ""),)), units, processes, False)
            seen = [failed[0] for _, failed in merged]
            assert [n for n, _ in seen] == units, count
            chunks = [int(c) for _, c in seen]
            # Contiguous chunks, numbered from 0 in input order, about 64 per
            # process: with 8, the last chunk of a scan over widening values
            # held up to 18% of its work.
            assert chunks == sorted(chunks) and set(chunks) == set(range(chunks[-1] + 1))
            assert min(count, 64 * processes) <= len(set(chunks)) <= cli_module._MAX_CHUNKS, count
        _assert_no_child_left()

    @pytest.mark.parametrize("method, lo, hi, break_at", [
        ("remark", 3, 120, (19, 71)),
        ("fib-sum", 5, 301, (101, 201)),
        # 1,999 values in chunks of 15 at two workers and 10 at three: the
        # last chunk holds both mismatches.
        ("mersenne-sum", 2, 2000, (1999, 2000)),
        ("congruence-grid", 1, 8, None),
    ])
    def test_records_match_at_every_worker_count(self, capsys, monkeypatch, method, lo, hi,
                                                 break_at):
        # Two injected mismatches, so that --fail-fast stops early.
        if break_at is None:
            _break_two_families(monkeypatch)
        else:
            _disagree_at(monkeypatch, *break_at)
        argv = ["scan", "--method", method, "--from", str(lo), "--to", str(hi), "--no-timing"]
        for fail_fast in ([], ["--fail-fast"]):
            runs = []
            for workers in ("1", "2", "3"):
                code, out, err = run_cli(capsys, *argv, "--workers", workers, *fail_fast)
                record = parse_lines(out)[0]
                assert record.pop("workers") == int(workers)
                runs.append((code, record, err))
            assert runs[0] == runs[1] == runs[2]
            assert runs[0][0] == 1
            assert len(runs[0][1]["mismatches"]) == (1 if fail_fast else 2 if break_at else 8)
        _assert_no_child_left()


def _guard_kernels(monkeypatch):
    """Make every table side fail on a modulus <= 1; returns the list its calls append to."""
    calls = []
    for family, entry in list(FAMILY_TABLE.items()):
        guarded = {}
        for side in ("closed_form", "oracle"):
            def guard(params, k, r, ns, moduli, terms, real=getattr(entry, side), family=family):
                for n, m in zip(ns, moduli):
                    assert m > 1, (family, params, k, n, r, m)
                calls.append(family)
                return real(params, k, r, ns, moduli, terms)

            guarded[side] = guard
        monkeypatch.setitem(FAMILY_TABLE, family, entry._replace(**guarded))
    return calls


def _trivial_corpus_instances():
    """(family, p, q, k, n, r) of each golden-corpus congruence with a trivial modulus."""
    records = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
    trivial = [
        json.loads(record["stdout"])
        for record in records
        if record["argv"][0] == "congruence" and "trivial_modulus" in record["stdout"]
    ]
    return [tuple(fields[key] for key in ("family", "p", "q", "k", "n", "r")) for fields in trivial]


class TestNoKernelSeesATrivialModulus:
    # The modulus is read and tested once per instance, by its caller: an
    # instance with a modulus of 0 or 1 never reaches a kernel.

    def test_grid_and_trivial_instances_are_unchanged(self, monkeypatch):
        instances = _trivial_corpus_instances()
        units = congruences_module.grid_units(0, 8)

        def run():
            scan = cli_module.run_scan("congruence-grid", 0, 8, 1)
            return (
                [congruences_module.grid_batch(unit) for unit in units],
                (scan["checked"], scan["skipped"], scan["mismatches"]),
                [evaluate_congruence(*instance) for instance in instances],
            )

        before = run()
        calls = _guard_kernels(monkeypatch)
        assert run() == before
        _, counts, reports = before
        assert counts == (16264, 5336, [])
        assert set(calls) == {family for family, _ in congruences_module.GRID_VARIANTS}
        assert len(reports) == 10
        assert all(
            report.lhs == report.rhs == TRIVIAL_MODULUS and report.holds for report in reports
        )
