"""Seeded generator for the `queries` workload: one-shot CLI argv lists.

Every value is drawn by stratified sampling: a class of N queries splits the
input distribution into N equal-probability strata and takes one value from
each. The marginal distributions are the stated ones, but every stream holds
the same spread of small and large indices, so the seed changes the inputs
and hardly the cost of a stream. Strata of different parameters are paired
by a fixed lattice, and the seed fixes the order of the stream.

The `congruence` and `eval --mod` queries take a position inside each
stratum from the workload seed. Exact `eval` and `primetest` queries take it
from the fixed seed INPUT_SEED, so every stream holds the same set of them,
in an order set by the workload seed. Whether a query can print its result
depends on its argv alone (the widths of the ints it prints), so the number
of failing queries is the same for every workload seed.

Every argv satisfies its command's documented preconditions, so any non-zero
exit is a failure of the program, not of the input.
"""

from __future__ import annotations

import math
import random

FAMILIES = (
    "lemma1", "lemma2", "cor6", "cor7", "shift", "main",
    "fib19", "fib20", "fib21", "mersenne22",
)
GENERAL = FAMILIES[:6]

# Query classes and their counts in one stream (40/25/10/25 percent).
N_CONGRUENCE = 160
N_EVAL = 100
N_EVAL_MOD = 40
N_PRIMETEST_EACH = 20  # five primetest kinds, 100 queries in all
INPUT_SEED = 0  # draws the exact `eval` and `primetest` inputs of every stream


def _growth(p: int, q: int) -> float:
    """log2 of the largest root modulus of x^2 - P x + Q: the bits U_n gains per step."""
    d = p * p - 4 * q
    root = (abs(p) + math.sqrt(d)) / 2 if d >= 0 else math.sqrt(q)
    return math.log2(root) if root > 1 else 0.0


# Coprime (P, Q) with P in -8..8 and Q in -9..9, ordered by growth rate.
PAIRS = sorted(
    ((p, q) for p in range(-8, 9) for q in range(-9, 10) if math.gcd(p, q) == 1),
    key=lambda pq: (_growth(*pq), pq),
)
# All (k, n) in 1..200 ordered by k*n, the index the oracle evaluates to.
KN_PAIRS = sorted(
    ((k, n) for k in range(1, 201) for n in range(1, 201)),
    key=lambda kn: (kn[0] * kn[1], kn),
)


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw in [0, 1) from each of `count` equal strata, in stratum order."""
    return [(i + rng.random()) / count for i in range(count)]


def _pick(rng: random.Random, seq: list, count: int) -> list:
    return [seq[int(u * len(seq))] for u in _strata(rng, count)]


def _lattice(count: int, step: int) -> list[int]:
    """A fixed permutation of range(count) that spreads neighbours apart."""
    while math.gcd(step, count) != 1:
        step += 1
    return [(i * step) % count for i in range(count)]


def _congruence(rng: random.Random) -> list[list[str]]:
    kns = _pick(rng, KN_PAIRS, N_CONGRUENCE)
    pairs = _pick(rng, PAIRS, N_CONGRUENCE)
    order = _lattice(N_CONGRUENCE, 67)
    out = []
    for i, (k, n) in enumerate(kns):
        family = FAMILIES[i % len(FAMILIES)]
        argv = ["congruence", "--family", family]
        if family in GENERAL:
            p, q = pairs[order[i]]
            argv += ["-p", str(p), "-q", str(q)]
        if family == "mersenne22" and n < 2:
            k, n = n, max(k, 2)
        argv += ["-k", str(k), "-n", str(n)]
        if family == "shift":
            argv += ["-r", str(rng.randrange(7))]
        out.append(argv)
    return out


def _eval_exact(rng: random.Random) -> list[list[str]]:
    lo, hi = math.log(300), math.log(20_000)
    pairs = _pick(rng, PAIRS, N_EVAL)
    order = _lattice(N_EVAL, 37)
    out = []
    for i, u in enumerate(_strata(rng, N_EVAL)):
        n = round(math.exp(lo + u * (hi - lo)))
        p, q = pairs[order[i]]
        out.append(["eval", "-p", str(p), "-q", str(q), "-n", str(n)])
    return out


def _eval_mod(rng: random.Random) -> list[list[str]]:
    out = []
    for p, q in _pick(rng, PAIRS, N_EVAL_MOD):
        n = rng.getrandbits(4096) | (1 << 4095)
        m = rng.getrandbits(64) | (1 << 63)
        out.append(["eval", "-p", str(p), "-q", str(q), "-n", str(n),
                    "--mod", str(m), "--with-v"])
    return out


def _uniform_ints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    return [lo + int(u * (hi - lo + 1)) for u in _strata(rng, count)]


def _fib_eligible(n: int) -> int:
    """Snap n to the Fibonacci criterion's domain: n = 1 mod 4, n >= 5, n not 9 or 25."""
    n = max(5, n - (n - 1) % 4)
    return n + 4 if n in (9, 25) else n


def _primetest(rng: random.Random) -> list[list[str]]:
    ns = {
        "mersenne-sum": _uniform_ints(rng, 2, 100_000, N_PRIMETEST_EACH),
        "fib-sum": [_fib_eligible(n) for n in _uniform_ints(rng, 5, 10_009, N_PRIMETEST_EACH)],
        "divisor-sum": _uniform_ints(rng, 2, 55_440, N_PRIMETEST_EACH),
        "mersenne-sum-direct": _uniform_ints(rng, 2, 300, N_PRIMETEST_EACH),
        "fib-sum-direct": [_fib_eligible(n) for n in _uniform_ints(rng, 5, 300, N_PRIMETEST_EACH)],
    }
    return [
        ["primetest", "--method", method, "-n", str(n)]
        for method, values in ns.items()
        for n in values
    ]


def generate(seed: int) -> list[list[str]]:
    """The argv lists of one query stream, in a seeded order."""
    rng = random.Random(seed)
    fixed = random.Random(INPUT_SEED)
    stream = _congruence(rng) + _eval_exact(fixed) + _eval_mod(rng) + _primetest(fixed)
    rng.shuffle(stream)
    return stream
