"""Closed-form residue evaluators for the U-sequence congruence families.

Every family answers the same kind of question: what is U_{kn}/U_k (or a
shifted term U_{kn+r}) modulo some sequence term, expressed without ever
building the huge numerator? Each evaluator here is paired with a brute-force
oracle that reaches the numerator's index the slow way, so the two can be
compared on a grid: the general and Fibonacci oracles walk the defining
recurrence, reduced past the stored term table, and the Mersenne one builds
2^{kn} - 1 in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Optional

from .errors import InternalInvariantViolation, NotApplicable
from .residues import (
    TRIVIAL_MODULUS,
    Outcome,
    ResidueClass,
    TrivialModulus,
    exact_div,
    pow_signed_mod,
)
from .sequences import FIBONACCI_PARAMS, LucasParams, _u_term, _u_term_mod, make_params


def parity_indicator(x: int) -> int:
    """0 for odd x, 1 for even x; lets the odd/even branches share one formula."""
    return 1 - (x & 1)


class CaseTag(Enum):
    """Which branch of the four-way parity split an (n, k) pair lands in."""

    ODD_N = "odd_n"
    EVEN_N_ODD_K = "even_n_odd_k"
    BOTH_EVEN_MIXED_QUOTIENTS = "both_even_mixed_quotients"
    BOTH_EVEN_ODD_QUOTIENTS = "both_even_odd_quotients"


def classify_case(n: int, k: int) -> CaseTag:
    """Split (n, k) by the parities of n, k and of n/d, k/d with d = gcd(n, k).

    When n and k are both even the quotients n/d, k/d are coprime, so they are
    never both even; "mixed" means exactly one of them is.
    """
    if n < 1 or k < 1:
        raise ValueError(f"indices must be >= 1, got n = {n}, k = {k}")
    if n & 1:
        return CaseTag.ODD_N
    if k & 1:
        return CaseTag.EVEN_N_ODD_K
    d = gcd(n, k)
    if (n // d) & 1 and (k // d) & 1:
        return CaseTag.BOTH_EVEN_ODD_QUOTIENTS
    return CaseTag.BOTH_EVEN_MIXED_QUOTIENTS


# ---------------------------------------------------------------------------
# Closed-form right-hand sides
# ---------------------------------------------------------------------------


def lemma1_rhs(params: LucasParams, k: int, n: int) -> Outcome:
    """Residue of U_{kn}/U_k mod |U_k|, parity-split on n.

    Odd n gives n*Q^{k(n-1)/2}; even n gives n*U_{k+1}*Q^{k(n-2)/2}. The n = 0
    instance is 0 outright (the factor n kills every term), which sidesteps
    the negative exponent the even branch would otherwise need.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return TRIVIAL_MODULUS
    if n == 0:
        return ResidueClass(0, modulus)
    q = params.q_coeff
    if n & 1:
        value = n * pow_signed_mod(q, k * (n - 1) // 2, modulus)
    else:
        value = n * _u_term(params, k + 1) * pow_signed_mod(q, k * (n - 2) // 2, modulus)
    return ResidueClass.reduce(value, modulus)


def lemma2_rhs(params: LucasParams, k: int, n: int) -> Outcome:
    """Residue of U_{kn+1} mod |U_k|, parity-split on n.

    Odd n gives U_{k+1}*Q^{k(n-1)/2}; even n gives Q^{kn/2}.
    """
    if k < 0 or n < 0:
        raise ValueError(f"indices must be nonnegative, got k = {k}, n = {n}")
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return TRIVIAL_MODULUS
    q = params.q_coeff
    if n & 1:
        value = _u_term(params, k + 1) * pow_signed_mod(q, k * (n - 1) // 2, modulus)
    else:
        value = pow_signed_mod(q, k * n // 2, modulus)
    return ResidueClass.reduce(value, modulus)


def corollary_ratio_rhs(params: LucasParams, k: int, n: int) -> Outcome:
    """Parity-unified form of lemma1_rhs: n*(U_{k+1})^{a(n)}*Q^{k(n-a(n)-1)/2}."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return TRIVIAL_MODULUS
    if n == 0:
        return ResidueClass(0, modulus)
    a = parity_indicator(n)
    factor = _u_term(params, k + 1) if a else 1
    value = n * factor * pow_signed_mod(params.q_coeff, k * (n - a - 1) // 2, modulus)
    return ResidueClass.reduce(value, modulus)


def corollary_shift_rhs(params: LucasParams, k: int, n: int) -> Outcome:
    """Parity-unified form of lemma2_rhs: (U_{k+1})^{1-a(n)}*Q^{k(n+a(n)-1)/2}."""
    if k < 0 or n < 0:
        raise ValueError(f"indices must be nonnegative, got k = {k}, n = {n}")
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return TRIVIAL_MODULUS
    a = parity_indicator(n)
    factor = 1 if a else _u_term(params, k + 1)
    value = factor * pow_signed_mod(params.q_coeff, k * (n + a - 1) // 2, modulus)
    return ResidueClass.reduce(value, modulus)


def general_shift_rhs(params: LucasParams, k: int, n: int, r: int) -> Outcome:
    """Residue of U_{kn+r} mod |U_k|: U_r times the shifted-term closed form."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if k < 0 or n < 0:
        raise ValueError(f"indices must be nonnegative, got k = {k}, n = {n}")
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return TRIVIAL_MODULUS
    a = parity_indicator(n)
    factor = 1 if a else _u_term(params, k + 1)
    value = (
        _u_term(params, r)
        * factor
        * pow_signed_mod(params.q_coeff, k * (n + a - 1) // 2, modulus)
    )
    return ResidueClass.reduce(value, modulus)


def repetition_law_check(params: LucasParams, k: int, n: int, i: int) -> bool:
    """True iff n^{i+1} divides U_{kn}, given the hypothesis n^i | U_k.

    The hypothesis is checked, not assumed; when it fails the law says nothing
    and NotApplicable is raised.
    """
    if i < 1:
        raise ValueError(f"i must be >= 1, got {i}")
    if k < 1 or n < 1:
        raise ValueError(f"indices must be >= 1, got k = {k}, n = {n}")
    hypothesis = n**i
    u_k = _u_term(params, k)
    if u_k % hypothesis:
        raise NotApplicable(f"{n}^{i} does not divide U_{k} = {u_k}")
    return _u_term_mod(params, k * n, hypothesis * n) == 0


def main_theorem_rhs(params: LucasParams, n: int, k: int) -> tuple[Outcome, CaseTag]:
    """Residue of U_{kn}/U_k mod |U_n| from the four-case closed form.

    Three of the cases share one shape, d*(U_n/U_d)*Q^{(kn-k-n+d)/2}; the
    both-even-odd-quotients case picks up an extra U_{d+1} and drops d from
    the exponent. Both exponents are proven even and nonnegative for
    n, k >= 1, so that is asserted rather than handled.
    """
    tag = classify_case(n, k)
    modulus = abs(_u_term(params, n))
    if modulus <= 1:
        return TRIVIAL_MODULUS, tag
    d = gcd(n, k)
    ratio = exact_div(_u_term(params, n), _u_term(params, d))
    if tag is CaseTag.BOTH_EVEN_ODD_QUOTIENTS:
        doubled_exponent = k * n - k - n
        lead = d * _u_term(params, d + 1)
    else:
        doubled_exponent = k * n - k - n + d
        lead = d
    if doubled_exponent < 0 or doubled_exponent & 1:
        raise InternalInvariantViolation(
            f"exponent {doubled_exponent}/2 must be a nonnegative integer "
            f"(n = {n}, k = {k}, case {tag.value})"
        )
    value = lead * ratio * pow_signed_mod(params.q_coeff, doubled_exponent // 2, modulus)
    return ResidueClass.reduce(value, modulus), tag


class FibFamily(str, Enum):
    """The three specializations at (P, Q) = (1, -1)."""

    SHIFTED = "shifted"  # F_{kn+1} mod F_k
    RATIO = "ratio"  # F_{kn}/F_k mod F_k
    MAIN = "main"  # F_{kn}/F_k mod F_n


def _sign_pow(exponent: int) -> int:
    return -1 if exponent & 1 else 1


def fibonacci_rhs_family(k: int, n: int, family: FibFamily | str) -> Outcome:
    """The closed forms specialized to Fibonacci numbers, with (-1)^e kept as a sign.

    Implemented directly rather than by delegating to the general evaluators,
    so the sign bookkeeping gets exercised on its own; the two must agree
    pointwise (tested).
    """
    family = FibFamily(family)
    fib = FIBONACCI_PARAMS

    if family is FibFamily.MAIN:
        tag = classify_case(n, k)
        modulus = _u_term(fib, n)
        if modulus <= 1:
            return TRIVIAL_MODULUS
        d = gcd(n, k)
        ratio = exact_div(modulus, _u_term(fib, d))
        if tag is CaseTag.BOTH_EVEN_ODD_QUOTIENTS:
            value = d * ratio * _u_term(fib, d + 1) * _sign_pow((k * n - k - n) // 2)
        else:
            value = d * ratio * _sign_pow((k * n - k - n + d) // 2)
        return ResidueClass.reduce(value, modulus)

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    modulus = _u_term(fib, k)
    if modulus <= 1:
        return TRIVIAL_MODULUS
    if family is FibFamily.SHIFTED:
        if n & 1:
            value = _u_term(fib, k + 1) * _sign_pow(k * (n - 1) // 2)
        else:
            value = _sign_pow(k * n // 2)
    else:  # RATIO
        if n == 0:
            return ResidueClass(0, modulus)
        if n & 1:
            value = n * _sign_pow(k * (n - 1) // 2)
        else:
            value = n * _u_term(fib, k + 1) * _sign_pow(k * (n - 2) // 2)
    return ResidueClass.reduce(value, modulus)


def mersenne_ratio_rhs(n: int, k: int) -> ResidueClass:
    """d*(2^n - 1)/(2^d - 1) reduced mod 2^n - 1, with d = gcd(n, k).

    Congruent to the exact quotient (2^{kn} - 1)/(2^k - 1) but computed
    entirely from n-bit intermediates; the kn-bit numerator never exists here.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    modulus = (1 << n) - 1
    d = gcd(n, k)
    value = d * exact_div(modulus, (1 << d) - 1)
    return ResidueClass.reduce(value, modulus)


# ---------------------------------------------------------------------------
# Brute-force left-hand sides
# ---------------------------------------------------------------------------


def _ratio_mod(params: LucasParams, k: int, n: int, m: int) -> int:
    """U_{kn}/U_k mod m, read from U_{kn} mod |U_k|*m by the recurrence.

    U_k divides U_{kn}, so that residue is divisible by |U_k| (asserted, as
    exact_div does, a zero U_k included) and sgn(U_k) times the quotient is
    congruent to U_{kn}/U_k mod m. No term wider than |U_k|*m is built past
    the stored table.
    """
    u_k = _u_term(params, k)
    if u_k == 0:
        raise InternalInvariantViolation("exact division by a zero term")
    width = abs(u_k)
    quotient = exact_div(_u_term_mod(params, k * n, width * m), width)
    return quotient if u_k > 0 else -quotient


def ratio_lhs_exact(params: LucasParams, k: int, n: int) -> Outcome:
    """U_{kn}/U_k mod |U_k| by the recurrence and an asserted exact division; the slow oracle."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return TRIVIAL_MODULUS
    return ResidueClass.reduce(_ratio_mod(params, k, n, modulus), modulus)


def shifted_lhs_exact(params: LucasParams, k: int, n: int, r: int = 1) -> Outcome:
    """U_{kn+r} mod |U_k| by the recurrence, reduced past the stored table; the slow oracle."""
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return TRIVIAL_MODULUS
    return ResidueClass(_u_term_mod(params, k * n + r, modulus), modulus)


def main_lhs_exact(params: LucasParams, n: int, k: int) -> Outcome:
    """U_{kn}/U_k mod |U_n| by the recurrence and an asserted exact division; the slow oracle."""
    if n < 1 or k < 1:
        raise ValueError(f"indices must be >= 1, got n = {n}, k = {k}")
    modulus = abs(_u_term(params, n))
    if modulus <= 1:
        return TRIVIAL_MODULUS
    return ResidueClass.reduce(_ratio_mod(params, k, n, modulus), modulus)


def mersenne_ratio_lhs_exact(n: int, k: int) -> ResidueClass:
    """(2^{kn} - 1)/(2^k - 1) mod 2^n - 1, building the kn-bit numerator."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    modulus = (1 << n) - 1
    quotient = exact_div((1 << (k * n)) - 1, (1 << k) - 1)
    return ResidueClass.reduce(quotient, modulus)


# ---------------------------------------------------------------------------
# Family registry and one-call evaluation
# ---------------------------------------------------------------------------

GENERAL_FAMILIES = ("lemma1", "lemma2", "cor6", "cor7", "shift", "main")
SPECIALIZED_FAMILIES = ("fib19", "fib20", "fib21", "mersenne22")
FAMILIES = GENERAL_FAMILIES + SPECIALIZED_FAMILIES

_FIB_FAMILY_OF = {
    "fib19": FibFamily.SHIFTED,
    "fib20": FibFamily.RATIO,
    "fib21": FibFamily.MAIN,
}


@dataclass(frozen=True)
class CongruenceReport:
    """Both sides of one congruence instance and whether they matched."""

    family: str
    p_coeff: int
    q_coeff: int
    k: int
    n: int
    r: Optional[int]
    lhs: Outcome
    rhs: Outcome
    case_tag: Optional[CaseTag]
    holds: bool


def evaluate_congruence(
    family: str,
    p: Optional[int] = None,
    q: Optional[int] = None,
    k: int = 1,
    n: int = 0,
    r: Optional[int] = None,
) -> CongruenceReport:
    """Evaluate closed form and brute-force oracle for one instance of a family.

    The fib* families force (P, Q) = (1, -1) and mersenne22 forces (3, 2);
    the general families require explicit coefficients.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown congruence family {family!r}")
    if family == "mersenne22":
        p, q = 3, 2
    elif family in _FIB_FAMILY_OF:
        p, q = 1, -1
    elif p is None or q is None:
        raise ValueError(f"family {family!r} requires explicit -p and -q coefficients")
    params = make_params(p, q)

    tag: Optional[CaseTag] = None
    used_r: Optional[int] = None
    if family == "lemma1":
        rhs = lemma1_rhs(params, k, n)
        lhs = ratio_lhs_exact(params, k, n)
    elif family == "lemma2":
        rhs = lemma2_rhs(params, k, n)
        lhs = shifted_lhs_exact(params, k, n)
    elif family == "cor6":
        rhs = corollary_ratio_rhs(params, k, n)
        lhs = ratio_lhs_exact(params, k, n)
    elif family == "cor7":
        rhs = corollary_shift_rhs(params, k, n)
        lhs = shifted_lhs_exact(params, k, n)
    elif family == "shift":
        if r is None:
            raise ValueError("the shift family requires -r")
        used_r = r
        rhs = general_shift_rhs(params, k, n, r)
        lhs = shifted_lhs_exact(params, k, n, r)
    elif family == "main":
        rhs, tag = main_theorem_rhs(params, n, k)
        lhs = main_lhs_exact(params, n, k)
    elif family == "fib19":
        rhs = fibonacci_rhs_family(k, n, FibFamily.SHIFTED)
        lhs = shifted_lhs_exact(params, k, n)
    elif family == "fib20":
        rhs = fibonacci_rhs_family(k, n, FibFamily.RATIO)
        lhs = ratio_lhs_exact(params, k, n)
    elif family == "fib21":
        tag = classify_case(n, k)
        rhs = fibonacci_rhs_family(k, n, FibFamily.MAIN)
        lhs = main_lhs_exact(params, n, k)
    else:  # mersenne22
        rhs = mersenne_ratio_rhs(n, k)
        lhs = mersenne_ratio_lhs_exact(n, k)

    if isinstance(rhs, TrivialModulus) or isinstance(lhs, TrivialModulus):
        holds = True
    else:
        holds = lhs == rhs
    return CongruenceReport(
        family=family,
        p_coeff=p,
        q_coeff=q,
        k=k,
        n=n,
        r=used_r,
        lhs=lhs,
        rhs=rhs,
        case_tag=tag,
        holds=holds,
    )
