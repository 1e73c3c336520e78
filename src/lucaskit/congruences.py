"""Closed-form residue evaluators for the U-sequence congruence families.

Every family answers the same kind of question: what is U_{kn}/U_k (or a
shifted term U_{kn+r}) modulo some sequence term, expressed without ever
building the huge numerator? Each evaluator here is paired with a brute-force
oracle that reaches the numerator's index the slow way, so the two can be
compared on a grid: the general and Fibonacci oracles read terms by the
defining recurrence reduced modulo what they need (sequences._u_walk_mod
describes that walk), and the Mersenne one builds 2^{kn} - 1 in full.

Both sides of every family are private plain-int kernels, listed in one
table, FAMILY_TABLE, with the family's fixed (P, Q), whether it takes a
shift r, its domain check and its modulus, the one place that modulus is
decided. A side is one call, side(params, k, r, ns, moduli, terms): it
takes n values of one (P, Q, k), in any order, with their moduli, and
returns their least nonnegative residues in that order. r is a tuple of
shifts, or None for the shift 1, which only the shift row and the shifted
oracle read. Sides and moduli read terms from `terms`, a prefix
[U_0, U_1, ...] of the pair, or (). Each closed form is one loop over n,
reading single terms by sequences._u_term, exactly or mod m. The five
families modulo |U_k| are two residue formulas in U_{k+1}, Q^k and U_r mod
|U_k|, read once per call: lemma1 and cor6 are the ratio row, and lemma2,
cor7 and shift the shift row. The recurrence oracles read every term of a
call in one _u_terms_mod call, and the ratio oracle its U_k from the prefix,
or by u_at past it. The caller checks the domain and reads the modulus: 0
or 1 makes the instance a TrivialModulus, and any other is handed to both
sides. _evaluate does so for one instance, with no prefix, and returns the
Outcome of each side it is asked for. grid_batch, the congruence-grid
scan's unit of work, takes one (P, Q) and builds its prefix once, up to the
widest index it reads, so within the prefix's budget no oracle read walks.
It reads main's |U_n| once per n, and for each k |U_k| once, and calls each
side once per modulus, on every n and every shift its variants check: 6
calls for the 24 sides of 12 variants with items.
"""

from __future__ import annotations

from enum import Enum
from functools import wraps
from math import gcd
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import InternalInvariantViolation, NotApplicable
from .residues import (
    TRIVIAL_MODULUS,
    Outcome,
    ResidueClass,
    _int_text,
    exact_div,
    pow_signed_mod,
)
from .sequences import (
    FIBONACCI_PARAMS,
    MERSENNE_PARAMS,
    LucasParams,
    _u_prefix,
    _u_term,
    _u_terms_mod,
    make_params,
    u_at,
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


# The members as plain names: on Python 3.11 each CaseTag.X read costs about
# as much as the rest of _case.
_ODD_N = CaseTag.ODD_N
_EVEN_N_ODD_K = CaseTag.EVEN_N_ODD_K
_MIXED_QUOTIENTS = CaseTag.BOTH_EVEN_MIXED_QUOTIENTS
_ODD_QUOTIENTS = CaseTag.BOTH_EVEN_ODD_QUOTIENTS


def _case(n: int, k: int) -> CaseTag:
    if n & 1:
        return _ODD_N
    if k & 1:
        return _EVEN_N_ODD_K
    if n & -n == k & -k:  # n/d, k/d both odd: n and k hold the same power of 2
        return _ODD_QUOTIENTS
    return _MIXED_QUOTIENTS


_Ints = Sequence[int]  # a side's ns and moduli, and a prefix [U_0, U_1, ...] or ()


def _sign_pow(exponent: int) -> int:
    return -1 if exponent & 1 else 1


# ---------------------------------------------------------------------------
# Domain checks: one per family, shared by its closed form and its oracle.
# Each takes (k, n, r), raises ValueError outside the domain, and returns the
# case tag for the four-case families, else None.
# ---------------------------------------------------------------------------


def _check_k_positive(k: int, n: int, r: Optional[int]) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")


def _check_nonnegative(k: int, n: int, r: Optional[int]) -> None:
    if r is not None and r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if k < 0 or n < 0:
        raise ValueError(f"indices must be nonnegative, got k = {k}, n = {n}")


def _check_four_case(k: int, n: int, r: Optional[int]) -> CaseTag:
    return classify_case(n, k)


def _check_mersenne(k: int, n: int, r: Optional[int]) -> None:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


# Moduli, as (params, k, n, terms) -> int; no side sees one that is <= 1.


def _modulus_k(params: LucasParams, k: int, n: int, terms: _Ints) -> int:
    return abs(_u_term(params, k, terms))


def _modulus_n(params: LucasParams, k: int, n: int, terms: _Ints) -> int:
    return abs(_u_term(params, n, terms))


def _modulus_mersenne(params: LucasParams, k: int, n: int, terms: _Ints) -> int:
    return (1 << n) - 1


# ---------------------------------------------------------------------------
# Closed-form sides. Every side is one call (params, k, r, ns, moduli, terms)
# -> residues: it takes n values in any order, each on a checked domain with
# the family's modulus, which exceeds 1, and returns their residues in that
# order. r is a tuple of shifts, or None for the shift 1: a side over
# U_{kn+r} (the shift row, the shifted oracle) answers shift by shift, and
# any other ignores it. A closed form is one loop over n: a plain side, or a
# row under _mod_u_k.
# ---------------------------------------------------------------------------


def _mod_u_k(
    formula: Callable[[int, int, _Ints, int, _Ints], list[int]]
) -> Callable[..., list[int]]:
    """Decorator for a side modulo |U_k|: formula(u_next, q_k, u_rs, m, ns).

    Each call reads U_{k+1}, Q^k and each shift's U_r ([1] without r) mod
    m = |U_k| once, taking m from moduli[0], since every item of such a side
    has it; Q^{ke} = pow(Q^k, e). The terms come by _u_term mod m, so no U_r
    is built exactly past the prefix. An empty column reads nothing.
    """

    @wraps(formula)
    def side(
        params: LucasParams, k: int, r: Optional[_Ints], ns: _Ints, moduli: _Ints, terms: _Ints
    ) -> list[int]:
        if not ns:
            return []
        m = moduli[0]
        u_next = _u_term(params, k + 1, terms, m)
        u_rs = [1] if r is None else [_u_term(params, j, terms, m) for j in r]
        q_k = pow_signed_mod(params.q_coeff, k, m)
        return formula(u_next, q_k, u_rs, m, ns)

    return side


def _ratio_row(u_next: int, q_k: int, u_rs: _Ints, m: int, ns: _Ints) -> list[int]:
    """U_{kn}/U_k: n*U_{k+1}^{[n even]}*(Q^k)^{ceil(n/2)-1}, and 0 at n = 0."""
    residues = []
    for n in ns:
        if n & 1:
            residues.append(n * pow(q_k, n >> 1, m) % m)
        else:
            residues.append(n * u_next * pow(q_k, (n >> 1) - 1, m) % m if n else 0)
    return residues


def _shift_row(u_next: int, q_k: int, u_rs: _Ints, m: int, ns: _Ints) -> list[int]:
    """U_{kn+r} for each U_r of u_rs: U_r*U_{k+1}^{[n odd]}*(Q^k)^{floor(n/2)}, shift by shift."""
    row = [pow(q_k, n >> 1, m) * u_next % m if n & 1 else pow(q_k, n >> 1, m) for n in ns]
    return [u_r * x % m for u_r in u_rs for x in row]


# Lemma 1 and Corollary 6 are one formula, as are Lemma 2, Corollary 7 and the
# general shift at U_1 = 1: parity split and parity-unified forms alike.
_lemma1 = _cor6 = _mod_u_k(_ratio_row)
_lemma2 = _cor7 = _general_shift = _mod_u_k(_shift_row)


def _main(
    params: LucasParams, k: int, r: Optional[_Ints], ns: _Ints, moduli: _Ints, terms: _Ints
) -> list[int]:
    """Reads the signed U_n, gcd(n, k) and n's case once per n."""
    residues = []
    for n, m in zip(ns, moduli):
        d = gcd(n, k)
        case = _case(n, k)
        ratio = exact_div(_u_term(params, n, terms), _u_term(params, d, terms))
        if case is _ODD_QUOTIENTS:
            doubled_exponent = k * n - k - n
            lead = d * _u_term(params, d + 1, terms)
        else:
            doubled_exponent = k * n - k - n + d
            lead = d
        if doubled_exponent < 0 or doubled_exponent & 1:
            raise InternalInvariantViolation(
                f"exponent {doubled_exponent}/2 must be a nonnegative integer "
                f"(n = {n}, k = {k}, case {case.value})"
            )
        residues.append(lead * ratio * pow(params.q_coeff, doubled_exponent // 2, m) % m)
    return residues


# The Fibonacci kernels ignore params and terms: they are the closed forms specialized to
# (P, Q) = (1, -1), kept apart from the rows above (see fibonacci_rhs_family), and read no prefix.


def _fib_shifted(
    params: LucasParams, k: int, r: Optional[_Ints], ns: _Ints, moduli: _Ints, terms: _Ints
) -> list[int]:
    f_next = _u_term(FIBONACCI_PARAMS, k + 1, ())
    residues = []
    for n, m in zip(ns, moduli):
        if n & 1:
            value = f_next * _sign_pow(k * (n - 1) // 2)
        else:
            value = _sign_pow(k * n // 2)
        residues.append(value % m)
    return residues


def _fib_ratio(
    params: LucasParams, k: int, r: Optional[_Ints], ns: _Ints, moduli: _Ints, terms: _Ints
) -> list[int]:
    f_next = _u_term(FIBONACCI_PARAMS, k + 1, ())
    residues = []
    for n, m in zip(ns, moduli):
        if n == 0:
            value = 0
        elif n & 1:
            value = n * _sign_pow(k * (n - 1) // 2)
        else:
            value = n * f_next * _sign_pow(k * (n - 2) // 2)
        residues.append(value % m)
    return residues


def _fib_main(
    params: LucasParams, k: int, r: Optional[_Ints], ns: _Ints, moduli: _Ints, terms: _Ints
) -> list[int]:
    residues = []
    for n, m in zip(ns, moduli):
        d = gcd(n, k)
        ratio = exact_div(m, _u_term(FIBONACCI_PARAMS, d, ()))
        if _case(n, k) is _ODD_QUOTIENTS:
            lead = d * _u_term(FIBONACCI_PARAMS, d + 1, ())
            value = lead * ratio * _sign_pow((k * n - k - n) // 2)
        else:
            value = d * ratio * _sign_pow((k * n - k - n + d) // 2)
        residues.append(value % m)
    return residues


def _mersenne(
    params: LucasParams, k: int, r: Optional[_Ints], ns: _Ints, moduli: _Ints, terms: _Ints
) -> list[int]:
    residues = []
    for n, m in zip(ns, moduli):
        d = gcd(n, k)
        residues.append(d * exact_div(m, (1 << d) - 1) % m)
    return residues


# ---------------------------------------------------------------------------
# Oracle sides: brute force by the recurrence (never u_pair_* or a
# closed-form side), or by the full numerator for Mersenne. They take
# nothing from the closed form but the modulus, and the recurrence sides read
# every U_{kn+s} of a call through one _u_terms_mod call, from the prefix
# where it reaches: _u_prefix builds it by the recurrence alone.
# ---------------------------------------------------------------------------


def _ratio_oracle(
    params: LucasParams, k: int, r: Optional[_Ints], ns: _Ints, moduli: _Ints, terms: _Ints
) -> list[int]:
    """U_{kn}/U_k mod m, from U_{kn} mod |U_k|*m and U_k (prefix, else u_at) by the recurrence.

    U_k divides U_{kn}, so that residue is divisible by |U_k| (asserted, as exact_div does,
    not assumed), and the quotient is U_{kn}/|U_k| mod m; U_k's sign is applied after.
    Past the prefix no product much wider than (|U_k|*m)^2 is built (see _u_walk_mod).
    """
    u_k = terms[k] if 0 <= k < len(terms) else u_at(params, k)
    if u_k == 0 and ns:
        raise InternalInvariantViolation("exact division by a zero term")
    width, sign = abs(u_k), -1 if u_k < 0 else 1
    wide = _u_terms_mod(params, [k * n for n in ns], [width * m for m in moduli], terms)
    residues = []
    for u, m in zip(wide, moduli):
        residues.append(sign * exact_div(u, width) % m)
    return residues


def _shifted_oracle(
    params: LucasParams, k: int, r: Optional[_Ints], ns: _Ints, moduli: _Ints, terms: _Ints
) -> list[int]:
    shifts = r or (1,)  # families without an r (lemma2, cor7, fib19) shift by 1
    indices = [k * n + shift for shift in shifts for n in ns]
    return _u_terms_mod(params, indices, [*moduli] * len(shifts), terms)


def _mersenne_oracle(
    params: LucasParams, k: int, r: Optional[_Ints], ns: _Ints, moduli: _Ints, terms: _Ints
) -> list[int]:
    residues = []
    for n, m in zip(ns, moduli):
        residues.append(exact_div((1 << (k * n)) - 1, (1 << k) - 1) % m)
    return residues


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------


class Family(NamedTuple):
    """Everything the library knows about one congruence family."""

    closed_form: Callable[..., list[int]]  # (params, k, r, ns, moduli, terms) -> residues
    oracle: Callable[..., list[int]]
    forced: Optional[tuple[int, int]]  # fixed (P, Q), or None for explicit -p/-q
    needs_r: bool
    check: Callable[[int, int, Optional[int]], Optional[CaseTag]]
    modulus: Callable[[LucasParams, int, int, _Ints], int]


FAMILY_TABLE: dict[str, Family] = {
    "lemma1": Family(_lemma1, _ratio_oracle, None, False, _check_k_positive, _modulus_k),
    "lemma2": Family(_lemma2, _shifted_oracle, None, False, _check_nonnegative, _modulus_k),
    "cor6": Family(_cor6, _ratio_oracle, None, False, _check_k_positive, _modulus_k),
    "cor7": Family(_cor7, _shifted_oracle, None, False, _check_nonnegative, _modulus_k),
    "shift": Family(_general_shift, _shifted_oracle, None, True, _check_nonnegative, _modulus_k),
    "main": Family(_main, _ratio_oracle, None, False, _check_four_case, _modulus_n),
    "fib19": Family(_fib_shifted, _shifted_oracle, (1, -1), False, _check_k_positive, _modulus_k),
    "fib20": Family(_fib_ratio, _ratio_oracle, (1, -1), False, _check_k_positive, _modulus_k),
    "fib21": Family(_fib_main, _ratio_oracle, (1, -1), False, _check_four_case, _modulus_n),
    "mersenne22": Family(
        _mersenne, _mersenne_oracle, (3, 2), False, _check_mersenne, _modulus_mersenne
    ),
}

FAMILIES = tuple(FAMILY_TABLE)
GENERAL_FAMILIES = tuple(name for name, f in FAMILY_TABLE.items() if f.forced is None)
SPECIALIZED_FAMILIES = tuple(name for name, f in FAMILY_TABLE.items() if f.forced is not None)


def _evaluate(
    family: str, sides: Sequence[str], params: LucasParams, k: int, n: int, r: Optional[int]
) -> tuple[list[Outcome], Optional[CaseTag]]:
    """The given sides ("closed_form", "oracle") of one instance, in order, and its case tag.

    The domain is checked once, its result being the case tag, and the modulus
    read once; each side then runs on the one n, with the shift r as a tuple.
    """
    entry = FAMILY_TABLE[family]
    tag = entry.check(k, n, r)
    modulus = entry.modulus(params, k, n, ())
    if modulus <= 1:
        return [TRIVIAL_MODULUS] * len(sides), tag
    shifts = None if r is None else (r,)
    return [
        ResidueClass(getattr(entry, side)(params, k, shifts, [n], [modulus], ())[0], modulus)
        for side in sides
    ], tag


def _evaluate_side(
    family: str, side: str, params: LucasParams, k: int, n: int, r: Optional[int] = None
) -> Outcome:
    """One side ("closed_form" or "oracle") of one instance."""
    return _evaluate(family, (side,), params, k, n, r)[0][0]


# ---------------------------------------------------------------------------
# Closed-form right-hand sides
# ---------------------------------------------------------------------------


def lemma1_rhs(params: LucasParams, k: int, n: int) -> Outcome:
    """Residue of U_{kn}/U_k mod |U_k|, parity-split on n; k >= 1, n >= 0.

    Odd n gives n*Q^{k(n-1)/2}; even n gives n*U_{k+1}*Q^{k(n-2)/2}. The n = 0
    instance is 0 outright (the factor n kills every term), which sidesteps
    the negative exponent the even branch would otherwise need.
    """
    return _evaluate_side("lemma1", "closed_form", params, k, n)


def lemma2_rhs(params: LucasParams, k: int, n: int) -> Outcome:
    """Residue of U_{kn+1} mod |U_k|, parity-split on n; k, n >= 0.

    Odd n gives U_{k+1}*Q^{k(n-1)/2}; even n gives Q^{kn/2}.
    """
    return _evaluate_side("lemma2", "closed_form", params, k, n)


def corollary_ratio_rhs(params: LucasParams, k: int, n: int) -> Outcome:
    """Parity-unified form of lemma1_rhs: n*(U_{k+1})^{a(n)}*Q^{k(n-a(n)-1)/2}."""
    return _evaluate_side("cor6", "closed_form", params, k, n)


def corollary_shift_rhs(params: LucasParams, k: int, n: int) -> Outcome:
    """Parity-unified form of lemma2_rhs: (U_{k+1})^{1-a(n)}*Q^{k(n+a(n)-1)/2}."""
    return _evaluate_side("cor7", "closed_form", params, k, n)


def general_shift_rhs(params: LucasParams, k: int, n: int, r: int) -> Outcome:
    """Residue of U_{kn+r} mod |U_k|: U_r times the shifted-term closed form; k, n, r >= 0."""
    return _evaluate_side("shift", "closed_form", params, k, n, r)


def main_theorem_rhs(params: LucasParams, n: int, k: int) -> tuple[Outcome, CaseTag]:
    """Residue of U_{kn}/U_k mod |U_n| from the four-case closed form; n, k >= 1.

    Three of the cases share one shape, d*(U_n/U_d)*Q^{(kn-k-n+d)/2}; the
    both-even-odd-quotients case picks up an extra U_{d+1} and drops d from
    the exponent. Both exponents are proven even and nonnegative for
    n, k >= 1, so that is asserted rather than handled.
    """
    (rhs,), tag = _evaluate("main", ("closed_form",), params, k, n, None)
    return rhs, tag


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
    return _evaluate_side(_FIB_TABLE_NAME[FibFamily(family)], "closed_form", FIBONACCI_PARAMS, k, n)


def mersenne_ratio_rhs(n: int, k: int) -> ResidueClass:
    """d*(2^n - 1)/(2^d - 1) reduced mod 2^n - 1, with d = gcd(n, k); n >= 2, k >= 1.

    Congruent to the exact quotient (2^{kn} - 1)/(2^k - 1) but computed
    entirely from n-bit intermediates; the kn-bit numerator never exists here.
    """
    return _evaluate_side("mersenne22", "closed_form", MERSENNE_PARAMS, k, n)


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
    u_k = _u_term(params, k, ())
    if u_k % hypothesis:
        raise NotApplicable(f"{n}^{i} does not divide U_{k} = {_int_text(u_k)}")
    return _u_terms_mod(params, [k * n], [hypothesis * n], ()) == [0]


# ---------------------------------------------------------------------------
# Brute-force left-hand sides. Each answers on the domain of the closed form
# it checks, and raises the same ValueError outside it.
# ---------------------------------------------------------------------------


def ratio_lhs_exact(params: LucasParams, k: int, n: int) -> Outcome:
    """U_{kn}/U_k mod |U_k| by the recurrence and an asserted exact division; the slow oracle."""
    return _evaluate_side("lemma1", "oracle", params, k, n)


def shifted_lhs_exact(params: LucasParams, k: int, n: int, r: int = 1) -> Outcome:
    """U_{kn+r} mod |U_k| by the recurrence, reduced at every step; the slow oracle."""
    return _evaluate_side("shift", "oracle", params, k, n, r)


def main_lhs_exact(params: LucasParams, n: int, k: int) -> Outcome:
    """U_{kn}/U_k mod |U_n| by the recurrence and an asserted exact division; the slow oracle."""
    return _evaluate_side("main", "oracle", params, k, n)


def mersenne_ratio_lhs_exact(n: int, k: int) -> ResidueClass:
    """(2^{kn} - 1)/(2^k - 1) mod 2^n - 1, building the kn-bit numerator."""
    return _evaluate_side("mersenne22", "oracle", MERSENNE_PARAMS, k, n)


# ---------------------------------------------------------------------------
# One-call evaluation
# ---------------------------------------------------------------------------


class CongruenceReport(NamedTuple):
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

    The fib* families force (P, Q) = (1, -1) and mersenne22 forces (3, 2): a
    p or q that differs from the forced value is rejected. The general
    families require explicit coefficients. Only the shift family takes r,
    and requires it. Both sides share the family's modulus; when it is
    trivial, both are TrivialModulus and the congruence counts as holding.
    """
    entry = FAMILY_TABLE.get(family)
    if entry is None:
        raise ValueError(f"unknown congruence family {family!r}")
    if entry.forced is not None:
        if p not in (None, entry.forced[0]) or q not in (None, entry.forced[1]):
            raise ValueError(f"the {family} family fixes (P, Q) = {entry.forced}")
        p, q = entry.forced
    elif p is None or q is None:
        raise ValueError(f"family {family!r} requires explicit -p and -q coefficients")
    params = make_params(p, q)
    if entry.needs_r and r is None:
        raise ValueError(f"the {family} family requires -r")
    if not entry.needs_r and r is not None:
        raise ValueError(f"-r applies to the shift family only, not {family}")

    (rhs, lhs), case_tag = _evaluate(family, ("closed_form", "oracle"), params, k, n, r)
    return CongruenceReport(
        family=family,
        p_coeff=p,
        q_coeff=q,
        k=k,
        n=n,
        r=r,
        lhs=lhs,
        rhs=rhs,
        case_tag=case_tag,
        holds=lhs == rhs,
    )


# ---------------------------------------------------------------------------
# The congruence grid: one batch per (P, Q), stepping every k and n
# ---------------------------------------------------------------------------

# Coefficient grid of the congruence-grid scan: P in 1..5, Q in -3..3,
# coprime pairs only.
COEFFICIENT_GRID = tuple(
    (p, q)
    for p in range(1, 6)
    for q in range(-3, 4)
    if gcd(p, abs(q)) == 1
)
SHIFT_R_RANGE = range(0, 7)

# The grid checks every general family of the table at each n, in table
# order, with the shift family last, once per r in SHIFT_R_RANGE.
GRID_VARIANTS = tuple(
    (name, None)
    for name, family in FAMILY_TABLE.items()
    if family.forced is None and not family.needs_r
) + tuple(
    (name, r)
    for name, family in FAMILY_TABLE.items()
    if family.forced is None and family.needs_r
    for r in SHIFT_R_RANGE
)


def grid_units(lo: int, hi: int) -> list[tuple[int, int, int, int]]:
    """One grid_batch unit (P, Q, max(lo, 0), hi) per COEFFICIENT_GRID pair; none with no k >= 1."""
    return [(p, q, max(lo, 0), hi) for p, q in COEFFICIENT_GRID if hi >= max(lo, 1)]


def grid_batch(unit: tuple[int, int, int, int]) -> tuple[str, tuple[tuple[int, str], ...]]:
    """Check every k, n and family variant of one (P, Q); details only for mismatches.

    The unit (P, Q, n_lo, hi) checks each k in max(n_lo, 1)..hi at each n in
    n_lo..hi. Returns one mark per item ("-" skipped, "+" held, "x"
    mismatch), ordered by k, then n, then variant, and the (n, detail) of
    each mismatch in the same order. The unit is checked once: k >= 1 and
    n >= 0 (with r in SHIFT_R_RANGE) leave only main at n = 0 outside a
    family's domain, and its modulus |U_0| = 0 is trivial, so no item runs a
    domain check. The pair's prefix, up to hi*hi + max r, the widest index
    read, is built once and passed to every modulus and side, and main's
    |U_n| is read once per n: main takes the n where it exceeds 1. For each
    k, |U_k| is read once: a variant modulo |U_k| takes every n when it
    exceeds 1, and none otherwise. A column is keyed by the side object, the
    effective shift (1 without r) and the modulus. Each side is called once
    per k and modulus, on its items in n order, for the columns of every
    variant that reads it: with None when their one shift is 1, else with
    all their shifts at once. Where |U_k| > 1 that is 6 calls for the 24
    sides of the 12 variants. An item holds when its two residues are equal.
    """
    p, q, n_lo, hi = unit
    if n_lo < 0 or hi < max(n_lo, 1):
        raise ValueError(f"a grid unit needs n >= 0 and some k >= 1, got n = {n_lo}..{hi}")
    params = make_params(p, q)
    terms = _u_prefix(params, hi * hi + SHIFT_R_RANGE[-1])
    span = range(n_lo, hi + 1)
    width = len(GRID_VARIANTS)
    variants = []  # (name, r, closed-form column, oracle column, modulus), in GRID_VARIANTS order
    shifts = {}  # (side, modulus) -> the effective shifts (1 without r) its variants read
    for name, r in GRID_VARIANTS:
        family = FAMILY_TABLE[name]
        shift = 1 if r is None else r
        sides = [(side, shift, family.modulus) for side in (family.closed_form, family.oracle)]
        variants.append((name, r, *sides, family.modulus))
        for side, _, modulus in sides:
            shifts.setdefault((side, modulus), {})[shift] = None
    # A side called with None computes the shift 1, so only other shifts need a tuple.
    calls = [(*key, None if [*s] == [1] else tuple(s)) for key, s in shifts.items()]
    items = {}  # modulus -> (ns, moduli, marks of span where each item holds)
    if _modulus_n in {modulus for _, modulus in shifts}:  # |U_n| does not depend on k
        n_moduli = [_modulus_n(params, 0, n, terms) for n in span]
        held = ["+" if m > 1 else "-" for m in n_moduli]
        ns = [n for n, mark in zip(span, held) if mark == "+"]
        items[_modulus_n] = ns, [m for m in n_moduli if m > 1], held
    marks = []  # one block of marks per k
    failed = {}  # (n, detail) of each mismatch, keyed by k and its mark's position in k's block
    for k in range(max(n_lo, 1), hi + 1):
        u_k = _modulus_k(params, k, n_lo, terms)
        items[_modulus_k] = (span, [u_k] * len(span), "+" * len(span)) if u_k > 1 else ([],) * 3
        columns = {}  # (side, shift, modulus) -> the side's residues on its items
        for side, modulus, r in calls:
            ns, moduli, _ = items[modulus]
            if ns:
                residues = side(params, k, r, ns, moduli, terms)
                for i, shift in enumerate(r or (1,)):
                    columns[side, shift, modulus] = residues[i * len(ns) : (i + 1) * len(ns)]
        block = ["-"] * (len(span) * width)  # item (n, variant) at (n - n_lo) * width + index
        for index, (name, r, closed_column, oracle_column, modulus) in enumerate(variants):
            ns, _, held = items[modulus]
            if not ns:
                continue
            closed, oracle = columns[closed_column], columns[oracle_column]
            if closed == oracle:
                block[index::width] = held
                continue
            for n, a, b in zip(ns, closed, oracle):
                position = (n - n_lo) * width + index
                if a == b:
                    block[position] = "+"
                else:
                    block[position] = "x"
                    shift = "" if r is None else f" r={r}"
                    failed[k, position] = (n, f"family={name} p={p} q={q} k={k} n={n}{shift}")
        marks += block
    return "".join(marks), tuple(map(failed.get, sorted(failed)))
