"""Closed-form residue evaluators for the U-sequence congruence families.

Every family answers the same kind of question: what is U_{kn}/U_k (or a
shifted term U_{kn+r}) modulo some sequence term, expressed without ever
building the huge numerator? Each evaluator here is paired with a brute-force
oracle that reaches the numerator's index the slow way, so the two can be
compared on a grid: the general and Fibonacci oracles walk the defining
recurrence, reduced past the stored term table, and the Mersenne one builds
2^{kn} - 1 in full.

Both sides of every family are private plain-int kernels, listed in one
table, FAMILY_TABLE, with the family's fixed (P, Q), whether it takes a
shift r, its domain check and its modulus. A kernel returns the least
nonnegative residue, or None when the modulus term has magnitude 0 or 1.
The public functions wrap the kernels and return Outcome values;
evaluate_congruence and the CLI's congruence grid read the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Callable, NamedTuple, Optional

from .errors import InternalInvariantViolation, NotApplicable
from .residues import (
    TRIVIAL_MODULUS,
    Outcome,
    ResidueClass,
    exact_div,
    pow_signed_mod,
)
from .sequences import (
    FIBONACCI_PARAMS,
    MERSENNE_PARAMS,
    LucasParams,
    _u_term,
    _u_term_mod,
    make_params,
)


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
    return _case(n, k)


def _case(n: int, k: int) -> CaseTag:
    if n & 1:
        return CaseTag.ODD_N
    if k & 1:
        return CaseTag.EVEN_N_ODD_K
    d = gcd(n, k)
    if (n // d) & 1 and (k // d) & 1:
        return CaseTag.BOTH_EVEN_ODD_QUOTIENTS
    return CaseTag.BOTH_EVEN_MIXED_QUOTIENTS


def _sign_pow(exponent: int) -> int:
    return -1 if exponent & 1 else 1


# ---------------------------------------------------------------------------
# Domain checks: one per family, shared by its closed form and its oracle.
# Each takes (k, n, r), raises ValueError outside the domain, and returns the
# case tag for the four-case families, else None.
# ---------------------------------------------------------------------------


def _check_k_positive(k: int, n: int, r: Optional[int] = None) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")


def _check_nonnegative(k: int, n: int, r: Optional[int] = None) -> None:
    if r is not None and r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if k < 0 or n < 0:
        raise ValueError(f"indices must be nonnegative, got k = {k}, n = {n}")


def _check_four_case(k: int, n: int, r: Optional[int] = None) -> CaseTag:
    return classify_case(n, k)


def _check_mersenne(k: int, n: int, r: Optional[int] = None) -> None:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


# Moduli, as (params, k, n) -> int; a kernel returns None when this is <= 1.


def _modulus_k(params: LucasParams, k: int, n: int) -> int:
    return abs(_u_term(params, k))


def _modulus_n(params: LucasParams, k: int, n: int) -> int:
    return abs(_u_term(params, n))


def _modulus_mersenne(params: LucasParams, k: int, n: int) -> int:
    return (1 << n) - 1


# ---------------------------------------------------------------------------
# Closed-form kernels: (params, k, n, r) -> residue or None, on a checked
# domain. r is the shift of the shift family and None for every other one.
# ---------------------------------------------------------------------------


def _lemma1(params: LucasParams, k: int, n: int, r: Optional[int]) -> Optional[int]:
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return None
    if n == 0:
        return 0
    q = params.q_coeff
    if n & 1:
        value = n * pow_signed_mod(q, k * (n - 1) // 2, modulus)
    else:
        value = n * _u_term(params, k + 1) * pow_signed_mod(q, k * (n - 2) // 2, modulus)
    return value % modulus


def _lemma2(params: LucasParams, k: int, n: int, r: Optional[int]) -> Optional[int]:
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return None
    q = params.q_coeff
    if n & 1:
        value = _u_term(params, k + 1) * pow_signed_mod(q, k * (n - 1) // 2, modulus)
    else:
        value = pow_signed_mod(q, k * n // 2, modulus)
    return value % modulus


def _cor6(params: LucasParams, k: int, n: int, r: Optional[int]) -> Optional[int]:
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return None
    if n == 0:
        return 0
    a = parity_indicator(n)
    factor = _u_term(params, k + 1) if a else 1
    value = n * factor * pow_signed_mod(params.q_coeff, k * (n - a - 1) // 2, modulus)
    return value % modulus


def _cor7(params: LucasParams, k: int, n: int, r: Optional[int]) -> Optional[int]:
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return None
    a = parity_indicator(n)
    factor = 1 if a else _u_term(params, k + 1)
    value = factor * pow_signed_mod(params.q_coeff, k * (n + a - 1) // 2, modulus)
    return value % modulus


def _general_shift(params: LucasParams, k: int, n: int, r: Optional[int]) -> Optional[int]:
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return None
    a = parity_indicator(n)
    factor = 1 if a else _u_term(params, k + 1)
    value = (
        _u_term(params, r)
        * factor
        * pow_signed_mod(params.q_coeff, k * (n + a - 1) // 2, modulus)
    )
    return value % modulus


def _main(params: LucasParams, k: int, n: int, r: Optional[int]) -> Optional[int]:
    modulus = abs(_u_term(params, n))
    if modulus <= 1:
        return None
    d = gcd(n, k)
    ratio = exact_div(_u_term(params, n), _u_term(params, d))
    if _case(n, k) is CaseTag.BOTH_EVEN_ODD_QUOTIENTS:
        doubled_exponent = k * n - k - n
        lead = d * _u_term(params, d + 1)
    else:
        doubled_exponent = k * n - k - n + d
        lead = d
    if doubled_exponent < 0 or doubled_exponent & 1:
        raise InternalInvariantViolation(
            f"exponent {doubled_exponent}/2 must be a nonnegative integer "
            f"(n = {n}, k = {k}, case {_case(n, k).value})"
        )
    value = lead * ratio * pow_signed_mod(params.q_coeff, doubled_exponent // 2, modulus)
    return value % modulus


# The Fibonacci kernels ignore params: they are the closed forms specialized
# to (1, -1), with (-1)^e kept as a sign, and are implemented directly rather
# than by delegating to the general kernels, so the sign bookkeeping gets
# exercised on its own; the two must agree pointwise (tested).


def _fib_shifted(params: LucasParams, k: int, n: int, r: Optional[int]) -> Optional[int]:
    modulus = _u_term(FIBONACCI_PARAMS, k)
    if modulus <= 1:
        return None
    if n & 1:
        value = _u_term(FIBONACCI_PARAMS, k + 1) * _sign_pow(k * (n - 1) // 2)
    else:
        value = _sign_pow(k * n // 2)
    return value % modulus


def _fib_ratio(params: LucasParams, k: int, n: int, r: Optional[int]) -> Optional[int]:
    modulus = _u_term(FIBONACCI_PARAMS, k)
    if modulus <= 1:
        return None
    if n == 0:
        return 0
    if n & 1:
        value = n * _sign_pow(k * (n - 1) // 2)
    else:
        value = n * _u_term(FIBONACCI_PARAMS, k + 1) * _sign_pow(k * (n - 2) // 2)
    return value % modulus


def _fib_main(params: LucasParams, k: int, n: int, r: Optional[int]) -> Optional[int]:
    modulus = _u_term(FIBONACCI_PARAMS, n)
    if modulus <= 1:
        return None
    d = gcd(n, k)
    ratio = exact_div(modulus, _u_term(FIBONACCI_PARAMS, d))
    if _case(n, k) is CaseTag.BOTH_EVEN_ODD_QUOTIENTS:
        value = d * ratio * _u_term(FIBONACCI_PARAMS, d + 1) * _sign_pow((k * n - k - n) // 2)
    else:
        value = d * ratio * _sign_pow((k * n - k - n + d) // 2)
    return value % modulus


def _mersenne(params: LucasParams, k: int, n: int, r: Optional[int]) -> int:
    modulus = (1 << n) - 1
    d = gcd(n, k)
    return d * exact_div(modulus, (1 << d) - 1) % modulus


# ---------------------------------------------------------------------------
# Oracle kernels: brute force by the recurrence (never u_pair_* or a
# closed-form kernel), or by the full numerator for Mersenne.
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


def _ratio_oracle(params: LucasParams, k: int, n: int, r: Optional[int]) -> Optional[int]:
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return None
    return _ratio_mod(params, k, n, modulus) % modulus


def _shifted_oracle(params: LucasParams, k: int, n: int, r: Optional[int]) -> Optional[int]:
    # Families without an r (lemma2, cor7, fib19) shift by 1.
    modulus = abs(_u_term(params, k))
    if modulus <= 1:
        return None
    return _u_term_mod(params, k * n + (1 if r is None else r), modulus)


def _main_oracle(params: LucasParams, k: int, n: int, r: Optional[int]) -> Optional[int]:
    modulus = abs(_u_term(params, n))
    if modulus <= 1:
        return None
    return _ratio_mod(params, k, n, modulus) % modulus


def _mersenne_oracle(params: LucasParams, k: int, n: int, r: Optional[int]) -> int:
    quotient = exact_div((1 << (k * n)) - 1, (1 << k) - 1)
    return quotient % ((1 << n) - 1)


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

Kernel = Callable[[LucasParams, int, int, Optional[int]], Optional[int]]


class Family(NamedTuple):
    """Everything the library knows about one congruence family."""

    closed_form: Kernel
    oracle: Kernel
    forced: Optional[tuple[int, int]]  # fixed (P, Q), or None for explicit -p/-q
    needs_r: bool
    check: Callable[[int, int, Optional[int]], Optional[CaseTag]]
    modulus: Callable[[LucasParams, int, int], int]


FAMILY_TABLE: dict[str, Family] = {
    "lemma1": Family(_lemma1, _ratio_oracle, None, False, _check_k_positive, _modulus_k),
    "lemma2": Family(_lemma2, _shifted_oracle, None, False, _check_nonnegative, _modulus_k),
    "cor6": Family(_cor6, _ratio_oracle, None, False, _check_k_positive, _modulus_k),
    "cor7": Family(_cor7, _shifted_oracle, None, False, _check_nonnegative, _modulus_k),
    "shift": Family(_general_shift, _shifted_oracle, None, True, _check_nonnegative, _modulus_k),
    "main": Family(_main, _main_oracle, None, False, _check_four_case, _modulus_n),
    "fib19": Family(_fib_shifted, _shifted_oracle, (1, -1), False, _check_k_positive, _modulus_k),
    "fib20": Family(_fib_ratio, _ratio_oracle, (1, -1), False, _check_k_positive, _modulus_k),
    "fib21": Family(_fib_main, _main_oracle, (1, -1), False, _check_four_case, _modulus_n),
    "mersenne22": Family(
        _mersenne, _mersenne_oracle, (3, 2), False, _check_mersenne, _modulus_mersenne
    ),
}

FAMILIES = tuple(FAMILY_TABLE)
GENERAL_FAMILIES = tuple(name for name, f in FAMILY_TABLE.items() if f.forced is None)
SPECIALIZED_FAMILIES = tuple(name for name, f in FAMILY_TABLE.items() if f.forced is not None)


def _outcome(value: Optional[int], modulus: int) -> Outcome:
    return TRIVIAL_MODULUS if value is None else ResidueClass(value, modulus)


def _closed_form(
    family: str, params: LucasParams, k: int, n: int, r: Optional[int] = None
) -> Outcome:
    entry = FAMILY_TABLE[family]
    entry.check(k, n, r)
    return _outcome(entry.closed_form(params, k, n, r), entry.modulus(params, k, n))


def _oracle(
    family: str, params: LucasParams, k: int, n: int, r: Optional[int] = None
) -> Outcome:
    entry = FAMILY_TABLE[family]
    entry.check(k, n, r)
    return _outcome(entry.oracle(params, k, n, r), entry.modulus(params, k, n))


# ---------------------------------------------------------------------------
# Closed-form right-hand sides
# ---------------------------------------------------------------------------


def lemma1_rhs(params: LucasParams, k: int, n: int) -> Outcome:
    """Residue of U_{kn}/U_k mod |U_k|, parity-split on n; k >= 1, n >= 0.

    Odd n gives n*Q^{k(n-1)/2}; even n gives n*U_{k+1}*Q^{k(n-2)/2}. The n = 0
    instance is 0 outright (the factor n kills every term), which sidesteps
    the negative exponent the even branch would otherwise need.
    """
    return _closed_form("lemma1", params, k, n)


def lemma2_rhs(params: LucasParams, k: int, n: int) -> Outcome:
    """Residue of U_{kn+1} mod |U_k|, parity-split on n; k, n >= 0.

    Odd n gives U_{k+1}*Q^{k(n-1)/2}; even n gives Q^{kn/2}.
    """
    return _closed_form("lemma2", params, k, n)


def corollary_ratio_rhs(params: LucasParams, k: int, n: int) -> Outcome:
    """Parity-unified form of lemma1_rhs: n*(U_{k+1})^{a(n)}*Q^{k(n-a(n)-1)/2}."""
    return _closed_form("cor6", params, k, n)


def corollary_shift_rhs(params: LucasParams, k: int, n: int) -> Outcome:
    """Parity-unified form of lemma2_rhs: (U_{k+1})^{1-a(n)}*Q^{k(n+a(n)-1)/2}."""
    return _closed_form("cor7", params, k, n)


def general_shift_rhs(params: LucasParams, k: int, n: int, r: int) -> Outcome:
    """Residue of U_{kn+r} mod |U_k|: U_r times the shifted-term closed form; k, n, r >= 0."""
    return _closed_form("shift", params, k, n, r)


def main_theorem_rhs(params: LucasParams, n: int, k: int) -> tuple[Outcome, CaseTag]:
    """Residue of U_{kn}/U_k mod |U_n| from the four-case closed form; n, k >= 1.

    Three of the cases share one shape, d*(U_n/U_d)*Q^{(kn-k-n+d)/2}; the
    both-even-odd-quotients case picks up an extra U_{d+1} and drops d from
    the exponent. Both exponents are proven even and nonnegative for
    n, k >= 1, so that is asserted rather than handled.
    """
    return _closed_form("main", params, k, n), _case(n, k)


class FibFamily(str, Enum):
    """The three specializations at (P, Q) = (1, -1)."""

    SHIFTED = "shifted"  # F_{kn+1} mod F_k
    RATIO = "ratio"  # F_{kn}/F_k mod F_k
    MAIN = "main"  # F_{kn}/F_k mod F_n


_FIB_TABLE_NAME = {FibFamily.SHIFTED: "fib19", FibFamily.RATIO: "fib20", FibFamily.MAIN: "fib21"}


def fibonacci_rhs_family(k: int, n: int, family: FibFamily | str) -> Outcome:
    """The closed forms specialized to Fibonacci numbers, with (-1)^e kept as a sign.

    Implemented directly rather than by delegating to the general evaluators,
    so the sign bookkeeping gets exercised on its own; the two must agree
    pointwise (tested).
    """
    return _closed_form(_FIB_TABLE_NAME[FibFamily(family)], FIBONACCI_PARAMS, k, n)


def mersenne_ratio_rhs(n: int, k: int) -> ResidueClass:
    """d*(2^n - 1)/(2^d - 1) reduced mod 2^n - 1, with d = gcd(n, k); n >= 2, k >= 1.

    Congruent to the exact quotient (2^{kn} - 1)/(2^k - 1) but computed
    entirely from n-bit intermediates; the kn-bit numerator never exists here.
    """
    return _closed_form("mersenne22", MERSENNE_PARAMS, k, n)


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


# ---------------------------------------------------------------------------
# Brute-force left-hand sides. Each answers on the domain of the closed form
# it checks, and raises the same ValueError outside it.
# ---------------------------------------------------------------------------


def ratio_lhs_exact(params: LucasParams, k: int, n: int) -> Outcome:
    """U_{kn}/U_k mod |U_k| by the recurrence and an asserted exact division; the slow oracle."""
    return _oracle("lemma1", params, k, n)


def shifted_lhs_exact(params: LucasParams, k: int, n: int, r: int = 1) -> Outcome:
    """U_{kn+r} mod |U_k| by the recurrence, reduced past the stored table; the slow oracle."""
    return _oracle("shift", params, k, n, r)


def main_lhs_exact(params: LucasParams, n: int, k: int) -> Outcome:
    """U_{kn}/U_k mod |U_n| by the recurrence and an asserted exact division; the slow oracle."""
    return _oracle("main", params, k, n)


def mersenne_ratio_lhs_exact(n: int, k: int) -> ResidueClass:
    """(2^{kn} - 1)/(2^k - 1) mod 2^n - 1, building the kn-bit numerator."""
    return _oracle("mersenne22", MERSENNE_PARAMS, k, n)


# ---------------------------------------------------------------------------
# One-call evaluation
# ---------------------------------------------------------------------------


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
    the general families require explicit coefficients. Only the shift
    family reads r. A trivial modulus on either side counts as holding.
    """
    entry = FAMILY_TABLE.get(family)
    if entry is None:
        raise ValueError(f"unknown congruence family {family!r}")
    if entry.forced is not None:
        p, q = entry.forced
    elif p is None or q is None:
        raise ValueError(f"family {family!r} requires explicit -p and -q coefficients")
    params = make_params(p, q)
    if not entry.needs_r:
        r = None
    elif r is None:
        raise ValueError(f"the {family} family requires -r")

    tag = entry.check(k, n, r)
    rhs = entry.closed_form(params, k, n, r)
    lhs = entry.oracle(params, k, n, r)
    modulus = entry.modulus(params, k, n)
    return CongruenceReport(
        family=family,
        p_coeff=p,
        q_coeff=q,
        k=k,
        n=n,
        r=r,
        lhs=_outcome(lhs, modulus),
        rhs=_outcome(rhs, modulus),
        case_tag=tag,
        holds=lhs is None or rhs is None or lhs == rhs,
    )
