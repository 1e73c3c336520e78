"""Output checks for every operation the benchmark runs, and failure attribution.

A run with a wrong output is invalid, not slow: `verify` returns a problem
string for any output that is wrong, and None for a correct one. Failed
operations (non-zero exit or an uncaught exception) are classified against
`known_failures.json`, which lists the failures the benchmark expects from
the program as it is, with their reasons.
"""

from __future__ import annotations

import json
import os

# (checked, skipped) of each scan the workloads run, as the seed commit reports them.
SCAN_COUNTS = {
    ("congruence-grid", 1, 24): (149_472, 23_328),
    ("mersenne-sum", 2, 20_000): (19_999, 0),
    ("fib-sum", 5, 4_000): (997, 2_999),
    ("remark", 3, 600): (150, 448),
    ("divisor-sum", 2, 3_000): (2_999, 0),
}

# Fixed primes for the independent check of exact `eval` results.
CHECK_PRIMES = (2**61 - 1, 2**31 - 1, 1_000_000_007)
# Digits converted at a time by `decimal_mod`, below Python's default
# 4300-digit limit on str-to-int conversion, which the benchmark keeps.
CHUNK_DIGITS = 4000


def option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def kind(argv: list[str]) -> str:
    """Short name of an operation's command, used to group results."""
    if argv[0] in ("scan", "primetest"):
        return f"{argv[0]} {option(argv, '--method')}"
    if argv[0] == "eval":
        return "eval --mod" if "--mod" in argv else "eval"
    return argv[0]


def _lucas_pair_mod(p: int, q: int, n: int, m: int) -> tuple[int, int]:
    """(U_n, V_n) mod m from the n-th power of [[P, -Q], [1, 0]].

    M^n = [[U_{n+1}, -Q U_n], [U_n, -Q U_{n-1}]], so U_n is the lower-left
    entry and V_n = U_{n+1} - Q U_{n-1} is the trace. This shares no code or
    formula with lucaskit's index doubling.
    """
    def mul(a, b):
        return (
            (a[0] * b[0] + a[1] * b[2]) % m, (a[0] * b[1] + a[1] * b[3]) % m,
            (a[2] * b[0] + a[3] * b[2]) % m, (a[2] * b[1] + a[3] * b[3]) % m,
        )

    result, base = (1, 0, 0, 1), (p % m, -q % m, 1, 0)
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base)
        n >>= 1
    return result[2], (result[0] + result[3]) % m


def _parse_int(text: str) -> int | str:
    return int(text) if len(text.lstrip("-")) <= CHUNK_DIGITS else text


def load_record(out: str) -> dict:
    """Parse one JSON record; an int literal too wide to convert stays text."""
    return json.loads(out, parse_int=_parse_int)


def decimal_mod(text: int | str, m: int) -> int:
    """int(text) % m for a decimal string of any length, read in chunks.

    The CLI prints big ints as decimal strings; a U_n wider than 4300 digits
    cannot be converted whole under the default digit limit.
    """
    if isinstance(text, int):
        return text % m
    text = text.strip()
    negative = text.startswith("-")
    digits = text[1:] if text[:1] in ("-", "+") else text
    if not digits.isdigit() or not digits.isascii():
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    r = 0
    for i in range(0, len(digits), CHUNK_DIGITS):
        chunk = digits[i:i + CHUNK_DIGITS]
        r = (r * pow(10, len(chunk), m) + int(chunk)) % m
    return -r % m if negative else r


def verify(argv: list[str], out: str) -> str | None:
    """Check the stdout of one operation that exited 0 or 1."""
    try:
        return _verify(argv, load_record(out))
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable record ({exc!r}): {out[:80]!r}"


def _verify(argv: list[str], record: dict) -> str | None:
    cmd = argv[0]
    if cmd == "scan":
        key = (option(argv, "--method"), int(option(argv, "--from")), int(option(argv, "--to")))
        counts = (record.get("checked"), record.get("skipped"))
        if counts != SCAN_COUNTS[key]:
            return f"checked/skipped {counts}, expected {SCAN_COUNTS[key]}"
        if record.get("mismatches") != []:
            return f"mismatches {record.get('mismatches')!r:.120}"
        if record.get("workers") != int(option(argv, "--workers")):
            return f"ran with {record.get('workers')} workers"
        return None
    if cmd == "congruence":
        echo = (record.get("family"), record.get("k"), record.get("n"))
        if echo != (option(argv, "--family"), int(option(argv, "-k")), int(option(argv, "-n"))):
            return f"record is for {echo}"
        return None if record.get("holds") is True else "holds is not true"
    if cmd == "primetest":
        if record.get("n") != int(option(argv, "-n")):
            return f"record is for n = {record.get('n')}"
        return None if record.get("agree") is True else "criterion and oracle disagree"
    # eval
    p, q, n = (int(option(argv, f)) for f in ("-p", "-q", "-n"))
    u = record["u"]
    mod = option(argv, "--mod")
    if mod is not None:
        expected = _lucas_pair_mod(p, q, n, int(mod))
        got = (int(u), int(record["v"]))
        return None if got == expected else f"(u, v) = {got}, matrix power gives {expected}"
    # Imported here, so that run.py can itself report a checkout without src/.
    from lucaskit.sequences import make_params, u_pair_mod

    params = make_params(p, q)
    for prime in CHECK_PRIMES:
        if decimal_mod(u, prime) != u_pair_mod(params, n, prime)[0] % prime:
            return f"u disagrees with u_pair_mod mod {prime}"
    return None


def load_known_failures(root: str) -> list[dict]:
    with open(os.path.join(root, "perfbench", "known_failures.json")) as fh:
        return json.load(fh)


def known_reason(known: list[dict], workload: str, argv: list[str], rc: int, err: str) -> str | None:
    """The listed reason for this failure, or None when it is not a known one."""
    for entry in known:
        if (
            entry["workload"] == workload
            and kind(argv) in entry["operations"]
            and rc == entry["exit"]
            and err.startswith(entry["stderr_prefix"])
        ):
            return entry["reason"]
    return None
