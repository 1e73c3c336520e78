"""Golden CLI corpus: recorded (argv, stdout, stderr, exit code) replayed in-process.

`golden_cli.json` holds the output of every command in GOLDEN_ARGV, run with
`--no-timing`, LUCAS_WORKERS=1 and COLUMNS=80 (argparse's usage width): the
README examples, each congruence family's error paths, and a few instances of
every family. Each replay must match byte for byte. To record the corpus again from the current code:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from lucaskit.cli import main

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

GOLDEN_ARGV = [
    argv + ["--no-timing"] for argv in README_EXAMPLES + ERROR_PATHS + INSTANCES
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


if __name__ == "__main__":
    os.environ["LUCAS_WORKERS"] = "1"
    os.environ["COLUMNS"] = "80"
    records = [run_in_process(argv) for argv in GOLDEN_ARGV]
    CORPUS.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {CORPUS}")
