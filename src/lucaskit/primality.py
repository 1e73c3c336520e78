"""Sum-based primality criteria for Mersenne and Fibonacci numbers.

Each criterion gets a fast evaluation path (divisor-class closed forms, small
moduli only) and a slow direct path (full-width terms), plus the supporting
number theory: totient, Legendre symbol, a deterministic 64-bit primality
oracle, primitive prime divisors, and the Fibonacci rank of apparition.
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

from .congruences import _ODD_QUOTIENTS, _case
from .errors import (
    CapExceeded,
    InternalInvariantViolation,
    NotOddPrime,
    OutOfRange,
    Unsupported,
    UnsupportedDiscriminant,
    WrongResidueClass,
)
from .residues import ResidueClass, _int_text, exact_div
from .sequences import FIBONACCI_PARAMS, LucasParams, _u_single, _u_term

if TYPE_CHECKING:
    from fractions import Fraction


class BitWidthProbe:
    """Records the widest integer routed through instrumented arithmetic.

    Purely observational; pass one into a sum evaluator to measure how wide
    its intermediates actually get.
    """

    __slots__ = ("max_bits",)

    def __init__(self) -> None:
        self.max_bits = 0

    def observe(self, *values: int) -> None:
        for v in values:
            bits = v.bit_length()
            if bits > self.max_bits:
                self.max_bits = bits


# ---------------------------------------------------------------------------
# Supporting number theory
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_ORACLE_LIMIT = 1 << 64
_TRIAL_LIMIT = 1 << 16


def is_prime_oracle(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2**64.

    Trial division for small n; otherwise a strong-pseudoprime battery over
    the first twelve primes, which is exact far beyond 64 bits.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n >= _ORACLE_LIMIT:
        raise OutOfRange(f"{n} exceeds the deterministic range 2**64")
    if n < 2:
        return False
    if n < _TRIAL_LIMIT:
        if n % 2 == 0:
            return n == 2
        f = 3
        while f * f <= n:
            if n % f == 0:
                return False
            f += 2
        return True
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int, cap: Optional[int] = None) -> dict[int, int]:
    """Prime factorization by trial division.

    With a cap, a cofactor that cannot be certified prime raises CapExceeded
    instead of risking a wrong answer.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    factors: dict[int, int] = {}
    remaining = n
    divisor = 2
    while divisor * divisor <= remaining:
        if cap is not None and divisor > cap:
            raise CapExceeded(
                f"no factor of {_int_text(remaining)} at or below the trial-division cap {cap}"
            )
        while remaining % divisor == 0:
            factors[divisor] = factors.get(divisor, 0) + 1
            remaining //= divisor
        divisor += 1 if divisor == 2 else 2
    if remaining > 1:
        factors[remaining] = factors.get(remaining, 0) + 1
    return factors


def euler_phi(n: int) -> int:
    """Euler's totient: how many of 1..n are coprime to n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    result = n
    for p in _factorize(n):
        result -= result // p
    return result


def proper_divisors(n: int) -> list[int]:
    """All divisors d of n with 1 <= d < n, ascending."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    small: list[int] = []
    large: list[int] = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            other = n // d
            if other != d and other != n:
                large.append(other)
    return small + large[::-1]


def _divisor_classes(n: int, factors: Optional[dict[int, int]] = None) -> list[tuple[int, int]]:
    """(d, phi(n/d)) for every proper divisor d of n >= 2, ascending in d.

    One factorization of n, `factors` when the caller has it, yields every
    cofactor e = n/d together with its totient, so no divisor is found or
    factored again.
    """
    classes = [(n, 1)]  # (n/e, phi(e)) for the divisors e of n found so far, from e = 1
    for p, exponent in (factors or _factorize(n)).items():
        for d, phi in classes[:]:
            for i in range(exponent):
                d, phi = d // p, phi * (p if i else p - 1)
                classes.append((d, phi))
    classes.sort()
    return classes[:-1]  # all but d = n, the class of e = 1


def legendre_symbol(a: int, p: int) -> int:
    """The Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    if p == 2 or not is_prime_oracle(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# ---------------------------------------------------------------------------
# Mersenne sum criterion
# ---------------------------------------------------------------------------


def mersenne_sum_residue_direct(n: int, probe: BitWidthProbe | None = None) -> ResidueClass:
    """Sum over 1 <= k < n of the exact quotient (2^{kn}-1)/(2^k-1), mod 2^n - 1.

    The honest slow path: each term is materialized at full kn-bit width and
    exactly divided (zero remainder asserted). The quotients are summed
    exactly and the sum is reduced once, at the end.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    modulus = (1 << n) - 1
    total = 0
    for k in range(1, n):
        dividend = (1 << (k * n)) - 1
        quotient = exact_div(dividend, (1 << k) - 1)
        if probe is not None:
            probe.observe(dividend, quotient)
        total += quotient
    return ResidueClass(total % modulus, modulus)


def _repunit(d: int, count: int, base: int) -> int:
    """The sum of base << (i*d) over i < count, for a base whose copies share no bit.

    With base 1 it is the repunit (2^{count*d} - 1)/(2^d - 1), count d-bit
    blocks 0...01. With base the repunit R_{count*d} of some n, whose bits
    sit at multiples of count*d, it is R_d of the same n, as
    (2^{count*d} - 1)/(2^d - 1) times R_{count*d} is (2^n - 1)/(2^d - 1).
    The copies share no bit in either case, so | adds them. Built by
    doubling along the binary digits of count: log2(count) steps, one when
    count is 2, each a shift and an | no wider than the result.
    """
    pattern, blocks = base, 1
    for bit in bin(count)[3:]:
        pattern |= pattern << (blocks * d)
        blocks *= 2
        if bit == "1":
            pattern = (pattern << d) | base
            blocks += 1
    return pattern


def _repunit_sum(n: int) -> int:
    """T = the sum of d*phi(n/d)*R_d over the divisor classes of n, unreduced.

    R_d = (2^n-1)/(2^d-1) is the repunit of n/d blocks of d bits. R_1 is
    2^n - 1 itself, and R_n = 1. Every other R_d is built from its parent
    class's: R_d = _repunit(d, p, R_{dp}), where p is the least prime of
    n/d, in log2(p) linear steps and no long division. One factorization of
    n yields every class with its totient and its p, depth first: a class
    waits to be built holding its parent's repunit, so only the repunits
    with children still to build stay alive, one chain from n. Each class
    asserts (2^d - 1)*R_d = 2^n - 1 at full width as soon as it is built,
    before any class is built from it, so a wrong build fails at the class
    that made it. Since d*phi(n/d) <= n, each weighted term is below n*2^n,
    so T is no wider than n + 2*log2(n) bits.
    """
    modulus = (1 << n) - 1
    primes = sorted(_factorize(n))
    total = 0
    # Classes to build, as (d, phi(n/d), p, index of p, R_{dp}): first the
    # children of n, one by each of its primes. The last pushed comes first.
    pending = [(n // p, p - 1, p, i, 1) for i, p in enumerate(primes)]
    while pending:
        d, phi, p, i, parent = pending.pop()
        quotient = _repunit(d, p, parent) if d > 1 else modulus
        if (quotient << d) - quotient != modulus:
            raise InternalInvariantViolation(
                f"(2^{d} - 1) times the repunit R_{d} is not 2^{n} - 1"
            )
        total += d * phi * quotient
        for j in range(i):  # children by each prime below p, which n/d lacks
            q = primes[j]
            pending.append((d // q, phi * (q - 1), q, j, quotient))
        if d % p == 0:  # and by p again
            pending.append((d // p, phi * p, p, i, quotient))
    return total


def mersenne_sum_residue_fast(n: int, probe: BitWidthProbe | None = None) -> ResidueClass:
    """Divisor-class form of the same sum: phi(n/d) copies of d*(2^n-1)/(2^d-1).

    The k < n with gcd(n, k) = d all contribute the same residue, so the sum
    collapses to one term per proper divisor d, whose totient comes from one
    factorization of n. The terms are the repunit sum T, reduced mod 2^n - 1
    once. Every repunit, weighted term and partial sum is positive and no
    larger than T, so T is the widest value the path builds, and the only
    one the probe observes.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    modulus = (1 << n) - 1
    total = _repunit_sum(n)
    if probe is not None:
        probe.observe(total)
    return ResidueClass(total % modulus, modulus)


class PrimalityVerdict(NamedTuple):
    """One criterion run: the computed residue, the claim, and the ground truth."""

    n: int
    method: str
    sum_residue: ResidueClass
    criterion_says_prime: bool
    oracle_says_prime: bool
    agree: bool


class DivisorSumTerm(NamedTuple):
    divisor: int
    phi: int
    contribution: Fraction


class DivisorSumBreakdown(NamedTuple):
    """The criterion sum in exact rational form, one term per proper divisor."""

    n: int
    terms: tuple[DivisorSumTerm, ...]
    total: Fraction
    is_integer: bool


def divisor_sum_breakdown(n: int) -> DivisorSumBreakdown:
    """Exact rational sum of d*phi(n/d)/(2^d - 1) over proper divisors d of n.

    Integral iff n is prime; for prime n the single term is n - 1. Every
    denominator 2^d - 1 divides 2^n - 1, with c/(2^d - 1) = c*R_d/(2^n - 1),
    so the total is the repunit sum T of the Mersenne criterion over 2^n - 1:
    one reduction instead of a Fraction addition per divisor. The terms stay
    exact rationals, and their sum is an independent check of the total.
    """
    from fractions import Fraction  # here, so only this function pays for fractions and decimal

    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    terms = tuple(
        DivisorSumTerm(d, phi, Fraction(d * phi, (1 << d) - 1)) for d, phi in _divisor_classes(n)
    )
    total = Fraction(_repunit_sum(n), (1 << n) - 1)
    return DivisorSumBreakdown(n, terms, total, total.denominator == 1)


# ---------------------------------------------------------------------------
# Fibonacci sum criterion
# ---------------------------------------------------------------------------


def fibonacci_sum_residue_direct(n: int) -> ResidueClass:
    """Sum over 1 <= k < n of F_{kn}/F_k, mod F_n, without full-width terms.

    alpha^k and beta^k are the roots of x^2 - L_k*x + (-1)^k, so
    F_{kn}/F_k = U_n(L_k, (-1)^k): each term is one single-term read of
    index n mod F_n (_u_single, from the plain pair), with no quotient to
    take. The Lucas numbers L_k come from their own recurrence, walked mod
    F_n alongside k.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3 so the modulus F_n exceeds 1, got {n}")
    f_n = _u_term(FIBONACCI_PARAMS, n, ())
    total = 0
    lucas, lucas_next = 1, 3 % f_n  # L_k and L_{k+1} mod F_n, from k = 1
    for k in range(1, n):
        total += _u_single(lucas, -1 if k & 1 else 1, n, f_n)
        lucas, lucas_next = lucas_next, (lucas + lucas_next) % f_n
    return ResidueClass(total % f_n, f_n)


def fibonacci_sum_residue_exact(n: int) -> ResidueClass:
    """Secondary oracle for the same sum: full-width terms and exact division.

    The terms are read by the recurrence alone, in one walk over
    F_0 ... F_{(n-1)n}, never by index doubling. They grow like 0.2*k*n
    digits, so keep n modest (the tests stay at or below 60).
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    low = []  # F_0 ... F_n
    a, b, total = 0, 1, 0  # a = F_j
    for j in range((n - 1) * n + 1):
        if j <= n:
            low.append(a)
        if j and j % n == 0:  # a = F_{kn} with k = j // n
            total += exact_div(a, low[j // n])
        a, b = b, a + b
    return ResidueClass(total % low[n], low[n])


def _fib_class_counts(n: int) -> list[tuple[int, int, int]]:
    """(d, c_d, c'_d) for every proper divisor d of n >= 3, ascending in d.

    The k < n with gcd(n, k) = d are k = d*j, j < m = n/d coprime to m. By
    the main theorem (fib21: the cases and signs of congruences._fib_main),
    F_{kn}/F_k is d*(F_n/F_d) mod F_n times a sign, and times F_{d+1} when
    both quotients are odd: c'_d counts those j with their signs, c_d the
    rest. Case and sign depend on j mod 4 alone, so the counts come from
    the tallies of j mod 4, each a Moebius sum over the squarefree e | m,
    or from phi(m) when all four agree; no j is visited. One factorization
    of n gives every d, phi(m) and the primes of m.
    """
    factors = _factorize(n)
    classes = []
    for d, phi in _divisor_classes(n, factors):
        m = n // d
        period = []  # (both quotients odd, sign) of the j = r mod 4, for r = 0..3
        for r in range(4):
            k = d * (r + 4)  # each k = d*j with j = r mod 4 has this k's case and sign
            odd_quotients = _case(n, k) is _ODD_QUOTIENTS
            doubled_exponent = k * n - k - n + (0 if odd_quotients else d)
            period.append((odd_quotients, -1 if doubled_exponent & 2 else 1))
        if period.count(period[0]) == 4:  # all phi(m) of the j count alike
            tally = [phi, 0, 0, 0]
        else:
            squarefree = [(1, 1)]  # (e, mu(e)) for the squarefree divisors e of m
            for p in factors:
                if m % p == 0:
                    squarefree += [(e * p, -mu) for e, mu in squarefree]
            tally = [0, 0, 0, 0]  # how many j <= m coprime to m are r mod 4, for r = 0..3
            for e, mu in squarefree:
                for t in range(1, 5):  # the multiples j = e*t' <= m with t' = t mod 4
                    tally[e * t % 4] += mu * ((m // e - t) // 4 + 1)
        counts = [0, 0]  # c_d, c'_d
        for (odd_quotients, sign), tallied in zip(period, tally):
            counts[odd_quotients] += sign * tallied
        classes.append((d, *counts))
    return classes


def _fib_sum_classes(n: int) -> ResidueClass:
    """The Fibonacci sum mod F_n for any n >= 3, one term per divisor class.

    The class of d adds d*(F_n/F_d)*(c_d + c'_d*F_{d+1}), with the signed
    counts of _fib_class_counts; a class whose counts are both 0 costs no
    division. Such is every class at n = 3 mod 4: n and d are odd, so no j
    has both quotients odd, and j <-> m - j pairs off the j coprime to the
    odd m, none with itself. That is k <-> n - k, whose doubled sign
    exponents add up to n(n - 3) + 2d = 2 mod 4, so the two signs are
    opposite and the class count is 0. At n = 1 mod 4 that exponent sum is
    0 mod 4, the signs agree, and each class count is +-phi(n/d).
    """
    if n < 3:
        raise ValueError(f"n must be >= 3 so the modulus F_n exceeds 1, got {n}")
    f_n = _u_term(FIBONACCI_PARAMS, n, ())
    total = 0
    for d, count, odd_count in _fib_class_counts(n):
        if odd_count:
            count += odd_count * _u_term(FIBONACCI_PARAMS, d + 1, ())
        if count:
            total += d * exact_div(f_n, _u_term(FIBONACCI_PARAMS, d, ())) * count
    return ResidueClass(total % f_n, f_n)


def fibonacci_sum_residue_fast(n: int) -> ResidueClass:
    """Divisor-class form of the Fibonacci sum for n = 1 mod 4.

    The signed divisor classes of _fib_sum_classes, where the sign
    (-1)^{(kn-k-n+d)/2} collapses to (-1)^{(n-d)/2}, constant across each
    gcd class: each class is phi(n/d)*d*(F_n/F_d) with that sign.
    """
    if n % 4 != 1:
        raise WrongResidueClass(f"n = {n} is not congruent to 1 mod 4")
    if n < 5:
        raise ValueError(f"n must be >= 5, got {n}")
    return _fib_sum_classes(n)


def fibonacci_criterion_applies(n: int) -> bool:
    """The Fibonacci criterion's hypotheses: n = 1 mod 4, n >= 5, n not in {9, 25}."""
    return n % 4 == 1 and n >= 5 and n not in (9, 25)


def remark_applies(n: int) -> bool:
    """The remark's hypotheses: n = 3 mod 4 and n >= 3, so F_n exceeds 1."""
    return n % 4 == 3 and n >= 3


def _remark_refusal(n: int) -> Exception:
    """Why the remark does not apply at n, for an n that remark_applies rejects."""
    if n % 4 != 3:
        return WrongResidueClass(f"n = {n} is not congruent to 3 mod 4")
    return ValueError(f"n must be >= 3 so the modulus F_n exceeds 1, got {n}")


def remark_check(n: int) -> bool:
    """True iff the Fibonacci sum vanishes mod F_n, for n = 3 mod 4.

    In that residue class the sum should vanish whether or not n is prime, so
    any False here is a mismatch worth reporting. Every signed divisor class
    (_fib_sum_classes) vanishes there, so the check builds F_n and no term.
    """
    if not remark_applies(n):
        raise _remark_refusal(n)
    return _fib_sum_classes(n).value == 0


# ---------------------------------------------------------------------------
# Criterion table: every primetest and scan method, and one runner
# ---------------------------------------------------------------------------


class Criterion(NamedTuple):
    """How primetest and scan run one method at n, through run_criterion.

    scan skips an n that fails `applies`; primetest raises `refusal(n)` for it.
    `verdict(n, result, oracle)` says whether the result agrees with the oracle.
    """

    evaluate: Callable[[int], Any]
    fields: Optional[Callable[[Any, bool, bool], dict[str, Any]]] = None  # primetest record
    verdict: Callable[[int, Any, bool], bool] = lambda n, result, oracle: True
    detail: Optional[Callable[[Any, bool], str]] = None  # a scan mismatch
    applies: Callable[[int], bool] = lambda n: True
    refusal: Optional[Callable[[int], Exception]] = None
    diagnostic: Optional["Criterion"] = None  # what --diagnostic runs instead
    scan: bool = False


def _residue(r: ResidueClass) -> dict[str, str]:
    return {"residue": str(r.value), "modulus": str(r.modulus)}


def _claim(says_prime: bool, oracle: bool, agree: bool) -> dict[str, bool]:
    return {"criterion_says_prime": says_prime, "oracle_says_prime": oracle, "agree": agree}


_FROM_TWO = dict(
    applies=lambda n: n >= 2, refusal=lambda n: ValueError(f"n must be >= 2, got {n}")
)
# The residue criteria: the sum vanishes mod its modulus iff n is prime.
_ZERO_IFF_PRIME = dict(
    fields=lambda r, oracle, agree: {**_residue(r), **_claim(r.value == 0, oracle, agree)},
    verdict=lambda n, r, oracle: (r.value == 0) == oracle,
    detail=lambda r, oracle: f"residue={r.value} criterion={r.value == 0} oracle={oracle}",
)
_FIBONACCI = dict(
    _ZERO_IFF_PRIME,
    applies=fibonacci_criterion_applies,
    refusal=lambda n: Unsupported(
        "the Fibonacci sum criterion requires n = 1 mod 4, n >= 5, n not in {9, 25}; "
        f"got {n}"
    ),
)


def _fib_diagnostic(r: ResidueClass, oracle: bool, agree: bool) -> dict[str, Any]:
    """The --diagnostic record of either path: the residue alone, for any n >= 3, no verdict."""
    return {"diagnostic": True, **_residue(r), "oracle_says_prime": oracle}


_MERSENNE = dict(_ZERO_IFF_PRIME, **_FROM_TWO)

CRITERION_TABLE: dict[str, Criterion] = {
    # Each residue criterion's fast path, then its direct path.
    "mersenne-sum": Criterion(mersenne_sum_residue_fast, scan=True, **_MERSENNE),
    "mersenne-sum-direct": Criterion(mersenne_sum_residue_direct, **_MERSENNE),
    "fib-sum": Criterion(
        fibonacci_sum_residue_fast,
        diagnostic=Criterion(_fib_sum_classes, _fib_diagnostic),
        scan=True,
        **_FIBONACCI,
    ),
    "fib-sum-direct": Criterion(
        fibonacci_sum_residue_direct,
        diagnostic=Criterion(fibonacci_sum_residue_direct, _fib_diagnostic),
        **_FIBONACCI,
    ),
    # The sum vanishes whether or not n is prime.
    "remark": Criterion(
        remark_check,
        verdict=lambda n, vanishes, oracle: vanishes,
        detail=lambda vanishes, oracle: "nonzero sum residue",
        applies=remark_applies,
        refusal=_remark_refusal,
        scan=True,
    ),
    # Integral iff n is prime, and then the total is n - 1.
    "divisor-sum": Criterion(
        divisor_sum_breakdown,
        lambda b, oracle, agree: {
            "total": str(b.total),
            "is_integer": b.is_integer,
            **_claim(b.is_integer, oracle, agree),
        },
        lambda n, b, oracle: b.is_integer == oracle and (not oracle or b.total == n - 1),
        lambda b, oracle: f"total={b.total} oracle={oracle}",
        scan=True,
        **_FROM_TWO,
    ),
    # The oracle alone: nothing to evaluate and nothing to disagree with.
    "oracle": Criterion(lambda n: None, lambda result, oracle, agree: {"prime": oracle}),
}


def run_criterion(criterion: Criterion, n: int) -> tuple[Any, bool, bool]:
    """Run one criterion at n: (result, oracle's answer, verdict).

    An n that fails `applies` raises the criterion's refusal (scan skips it
    instead), and one outside the oracle's range its error, before any work.
    """
    if not criterion.applies(n):
        raise criterion.refusal(n)
    oracle = is_prime_oracle(n)
    result = criterion.evaluate(n)
    return result, oracle, criterion.verdict(n, result, oracle)


def _primality_test(method: str, n: int, path: str) -> PrimalityVerdict:
    """Run the fast path `method` or its `method-direct` path against the oracle."""
    if path not in ("fast", "direct"):
        raise ValueError(f"path must be 'fast' or 'direct', got {path!r}")
    if path == "direct":
        method += "-direct"
    residue, oracle, agree = run_criterion(CRITERION_TABLE[method], n)
    return PrimalityVerdict(n, method, residue, residue.value == 0, oracle, agree)


def mersenne_primality_test(n: int, path: str = "fast") -> PrimalityVerdict:
    """Run the Mersenne sum criterion (residue 0 iff n prime) against the oracle."""
    return _primality_test("mersenne-sum", n, path)


def fibonacci_primality_test(n: int, path: str = "fast") -> PrimalityVerdict:
    """Run the Fibonacci sum criterion against the oracle.

    The criterion is an iff only for n = 1 mod 4 with n not in {9, 25}; those
    hypotheses are hard preconditions, not skips, so violating them raises
    Unsupported rather than producing a verdict.
    """
    return _primality_test("fib-sum", n, path)


# ---------------------------------------------------------------------------
# Primitive prime divisors and rank of apparition
# ---------------------------------------------------------------------------


def _apparition_index(params: LucasParams, p: int, limit: int) -> Optional[int]:
    """Least 1 <= m <= limit with p | U_m, walking the sequence mod p."""
    a, b = 0, 1
    for m in range(1, limit + 1):
        a, b = b, (params.p_coeff * b - params.q_coeff * a) % p
        if a == 0:
            return m
    return None


def primitive_prime_divisor(
    params: LucasParams, n: int, cap: int = 1_000_000
) -> Optional[int]:
    """Smallest prime dividing U_n but no earlier positive-index term, or None.

    Requires a positive discriminant. Factorization is plain trial division
    up to `cap`; an uncertifiable cofactor raises CapExceeded rather than
    guessing.
    """
    if params.discriminant <= 0:
        raise UnsupportedDiscriminant(
            f"needs P^2 - 4Q > 0, got {params.discriminant}"
        )
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    target = abs(_u_term(params, n, ()))
    if target <= 1:
        return None
    for p in sorted(_factorize(target, cap=cap)):
        if _apparition_index(params, p, n) == n:
            return p
    return None


def rank_of_apparition_fib(p: int) -> int:
    """Least n >= 1 with p | F_n, verified to divide p - (5/p)."""
    if p in (2, 5):
        raise Unsupported(f"rank of apparition is not handled for p = {p}")
    if p % 2 == 0 or not is_prime_oracle(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    rank = _apparition_index(FIBONACCI_PARAMS, p, p + 1)
    if rank is None:
        raise InternalInvariantViolation(
            f"no Fibonacci index at or below {p + 1} is divisible by {p}"
        )
    bound = p - legendre_symbol(5, p)
    if bound % rank:
        raise InternalInvariantViolation(
            f"rank {rank} of p = {p} does not divide {bound}"
        )
    return rank
