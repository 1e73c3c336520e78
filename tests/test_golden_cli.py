"""Golden CLI corpus: recorded (argv, stdout, stderr, exit code) replayed in-process.

`golden_cli.json` holds the output of every command in GOLDEN_ARGV, run with
`--no-timing`, LUCAS_WORKERS=1 and COLUMNS=80 (argparse's usage width): the
README examples, each congruence family's error paths, a few instances of
every family, a trivial modulus in every family but mersenne22, the
criterion commands' error paths and edge ranges, the congruence grid's
batch edges, and `eval` doubling walks at a 4096-bit index and a wide pair. Each replay must match byte for byte. To record the corpus again from the current code:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from lucaskit.cli import PRIMETEST_METHODS, SCAN_METHODS, main

CORPUS = Path(__file__).with_name("golden_cli.json")


def _congruence(family, *pqkn, r=None):
    argv = ["congruence", "--family", family]
    if len(pqkn) == 4:
        p, q, k, n = pqkn
        argv += ["-p", str(p), "-q", str(q)]
    else:
        k, n = pqkn
    argv += ["-k", str(k), "-n", str(n)]
    if r is not None:
        argv += ["-r", str(r)]
    return argv


README_EXAMPLES = [
    ["eval", "-p", "1", "-q", "-1", "-n", "12", "--with-v"],
    ["eval", "-p", "3", "-q", "2", "-n", "5", "--mod", "7"],
    _congruence("mersenne22", 4, 6),
    _congruence("lemma1", 1, -1, 4, 3),
    _congruence("shift", 2, -1, 5, 3, r=2),
    _congruence("main", 1, -1, 10, 6),
    ["primetest", "--method", "mersenne-sum", "-n", "12"],
    ["primetest", "--method", "fib-sum", "-n", "13"],
    ["primetest", "--method", "divisor-sum", "-n", "5"],
    ["primetest", "--method", "oracle", "-n", "8191"],
    ["primetest", "--method", "fib-sum-direct", "-n", "9", "--diagnostic"],
    ["scan", "--method", "mersenne-sum", "--from", "2", "--to", "500"],
    ["scan", "--method", "remark", "--from", "3", "--to", "303"],
    ["scan", "--method", "fib-sum", "--from", "5", "--to", "301"],
    ["scan", "--method", "congruence-grid", "--from", "1", "--to", "12"],
]

ERROR_PATHS = [
    _congruence("lemma1", 4, 3),  # general family without -p/-q
    ["congruence", "--family", "cor7", "-p", "1", "-k", "4", "-n", "3"],
    _congruence("shift", 1, -1, 5, 2),  # shift without -r
    _congruence("shift", 1, -1, 3, 2, r=-1),
    _congruence("main", 1, -1, 3, 0),
    _congruence("main", 1, -1, 0, 4),
    _congruence("fib21", 3, 0),
    _congruence("mersenne22", 3, 1),
    _congruence("mersenne22", 0, 5),
    _congruence("lemma1", 1, -1, 0, 3),
    _congruence("lemma1", 1, -1, 3, -2),
    _congruence("cor6", 1, -1, 0, 3),
    _congruence("lemma2", 1, -1, 3, -1),
    _congruence("cor7", 1, -1, -1, 2),
    _congruence("fib19", 0, 3),
    _congruence("fib20", 0, 3),
    _congruence("lemma1", 2, 4, 3, 2),  # P and Q share a factor
    _congruence("lemma2", 0, 0, 3, 2),
    ["congruence", "--family", "nope", "-k", "3", "-n", "2"],
]

INSTANCES = [
    _congruence("lemma1", -3, 2, 2, 5),  # U_2 = -3
    _congruence("lemma1", 1, 1, 3, 2),  # U_3(1, 1) = 0: trivial modulus
    _congruence("lemma1", 3, 2, 3, 0),
    _congruence("lemma2", 1, -1, 4, 2),
    _congruence("lemma2", -3, 2, 2, 4),
    _congruence("lemma2", 2, -1, 0, 3),
    _congruence("cor6", 1, -1, 6, 4),
    _congruence("cor6", -3, 2, 2, 7),
    _congruence("cor7", 2, -1, 3, 3),
    _congruence("cor7", -5, 7, 2, 3),
    _congruence("shift", 1, -1, 5, 2, r=3),
    _congruence("shift", -3, 2, 2, 5, r=0),
    _congruence("shift", -8, -9, 11, 12, r=6),
    _congruence("shift", 2, -1, 0, 4, r=2),
    _congruence("main", 3, 2, 4, 6),
    _congruence("main", -3, 2, 5, 2),  # modulus |U_2| = 3
    _congruence("main", 1, -1, 1, 5),
    _congruence("main", 1, -1, 4, 2),
    _congruence("main", -7, 3, 6, 10),
    _congruence("fib19", 5, 3),
    _congruence("fib19", 4, 2),
    _congruence("fib19", 1, 3),
    _congruence("fib20", 4, 3),
    _congruence("fib20", 6, 0),
    _congruence("fib21", 10, 6),
    _congruence("fib21", 3, 1),
    _congruence("mersenne22", 10, 5),
    _congruence("mersenne22", 1, 2),
    _congruence("mersenne22", 12, 9),
    _congruence("lemma1", 1, -1, 4, 3) + ["--pretty"],
    ["scan", "--method", "congruence-grid", "--from", "0", "--to", "3", "--pretty"],
]

CRITERIA = [
    ["primetest", "--method", "mersenne-sum", "-n", "360"],  # highly composite
    ["primetest", "--method", "mersenne-sum", "-n", "5040"],
    ["primetest", "--method", "mersenne-sum", "-n", "9240"],
    ["primetest", "--method", "fib-sum", "-n", "4001"],
    ["primetest", "--method", "divisor-sum", "-n", "2520"],
    ["scan", "--method", "mersenne-sum", "--from", "2", "--to", "3000"],
]

# The criterion CLI's error paths, skips, empty ranges and plain direct runs.
CRITERIA_EDGES = [
    ["primetest", "--method", "mersenne-sum", "-n", "1"],
    ["primetest", "--method", "fib-sum", "-n", "9"],
    ["primetest", "--method", "fib-sum-direct", "-n", "7"],
    ["primetest", "--method", "fib-sum", "-n", "2", "--diagnostic"],
    ["primetest", "--method", "divisor-sum", "-n", "1"],
    ["primetest", "--method", "oracle", "-n", "-1"],
    ["primetest", "--method", "oracle", "-n", "18446744073709551616"],
    ["primetest", "--method", "mersenne-sum-direct", "-n", "12"],
    ["primetest", "--method", "fib-sum-direct", "-n", "13"],
    ["scan", "--method", "divisor-sum", "--from", "-2", "--to", "12"],
    ["scan", "--method", "divisor-sum", "--from", "2", "--to", "60"],
    ["scan", "--method", "mersenne-sum", "--from", "-3", "--to", "3", "--pretty"],
    ["scan", "--method", "fib-sum", "--from", "10", "--to", "5"],
    ["scan", "--method", "remark", "--from", "0", "--to", "40", "--fail-fast"],
]

# A trivial modulus (a modulus term of magnitude 0 or 1) in cor6, cor7 and
# fib20, which the instances above leave without one, and lemma1 at |U_1| = 1.
TRIVIAL_MODULI = [
    _congruence("cor6", 1, 1, 3, 2),  # U_3(1, 1) = 0
    _congruence("cor7", 2, -1, 0, 3),  # U_0 = 0
    _congruence("fib20", 1, 2),  # F_1 = 1
    _congruence("lemma1", 3, 2, 1, 4),  # U_1 = 1
]

# Grid batches that start past n = 1 or at n = 0, and single instances at a
# large n, where a family side meets its longest run of n.
BATCH_EDGES = [
    ["scan", "--method", "congruence-grid", "--from", "5", "--to", "9"],
    ["scan", "--method", "congruence-grid", "--from", "7", "--to", "7"],
    ["scan", "--method", "congruence-grid", "--from", "-2", "--to", "4"],
    _congruence("shift", -3, 2, 7, 3001, r=5),
    _congruence("lemma2", 5, -3, 9, 20000),
    _congruence("cor6", -2, -9, 3, 5000),
]

# The 4096-bit index of DOUBLING_INDICES in test_sequences.py, which the
# doubling walk reads digit by digit.
WIDE_INDEX = str((1 << 4095) | 0x5DEECE66D << 2000 | 0xB)

# Doubling walks at a wide index, at n = 0 and exact, and a pair wider than
# a machine word: U_n and V_n must not move when the walk's formulas do.
WIDE_EVALS = [
    ["eval", "-p", "5", "-q", "-3", "-n", WIDE_INDEX, "--mod", str(2**64 - 59), "--with-v"],
    ["eval", "-p", "-8", "-q", "9", "-n", WIDE_INDEX, "--mod", str(2**64), "--with-v"],
    ["eval", "-p", "1", "-q", "0", "-n", WIDE_INDEX, "--mod", "2", "--with-v"],
    ["eval", "-p", "3", "-q", "2", "-n", "0", "--mod", "7", "--with-v"],
    ["eval", "-p", "-3", "-q", "5", "-n", "1000", "--with-v"],
    ["eval", "-p", str(2**100 + 1), "-q", "3", "-n", WIDE_INDEX, "--mod", str(2**200 - 75),
     "--with-v"],
]

GOLDEN_ARGV = [
    argv + ["--no-timing"]
    for argv in (
        README_EXAMPLES + ERROR_PATHS + INSTANCES + CRITERIA + CRITERIA_EDGES + TRIVIAL_MODULI
        + BATCH_EDGES + WIDE_EVALS
    )
]


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def load_corpus():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("index", range(len(GOLDEN_ARGV)))
def test_replay_is_byte_identical(monkeypatch, index):
    monkeypatch.setenv("LUCAS_WORKERS", "1")
    monkeypatch.setenv("COLUMNS", "80")
    recorded = load_corpus()[index]
    assert recorded["argv"] == GOLDEN_ARGV[index]
    assert run_in_process(GOLDEN_ARGV[index]) == recorded


def test_corpus_covers_every_family_and_exit_code():
    corpus = load_corpus()
    assert len(corpus) == len(GOLDEN_ARGV)
    families = {r["argv"][2] for r in corpus if r["argv"][0] == "congruence"}
    assert {"lemma1", "lemma2", "cor6", "cor7", "shift", "main",
            "fib19", "fib20", "fib21", "mersenne22"} <= families
    assert {r["exit"] for r in corpus} == {0, 2}
    methods = {r["argv"][2] for r in corpus if r["argv"][0] in ("primetest", "scan")}
    assert set(PRIMETEST_METHODS) | set(SCAN_METHODS) <= methods


if __name__ == "__main__":
    os.environ["LUCAS_WORKERS"] = "1"
    os.environ["COLUMNS"] = "80"
    records = [run_in_process(argv) for argv in GOLDEN_ARGV]
    CORPUS.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {CORPUS}")
