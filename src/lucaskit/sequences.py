"""Lucas sequences of the first and second kind.

Exact term evaluation by the defining recurrence, exact and modular
evaluation by index doubling, and the classical identities the sequences
satisfy, exposed as exact checks.
"""

from __future__ import annotations

import threading
from math import gcd, isqrt
from typing import NamedTuple, Sequence

from .errors import BadModulus, CoprimalityViolation, ZeroPair
from .residues import _set, _Value


class LucasParams(_Value):
    """Coefficient pair (P, Q) of the recurrence a_{j+1} = P*a_j - Q*a_{j-1}.

    P and Q must be coprime, which makes the U-sequence a strong divisibility
    sequence. The discriminant P^2 - 4Q is derived, never passed in.
    """

    __slots__ = ("p_coeff", "q_coeff", "discriminant")

    def __init__(self, p_coeff: int, q_coeff: int) -> None:
        if p_coeff == 0 and q_coeff == 0:
            raise ZeroPair("(P, Q) = (0, 0) defines no usable sequence")
        if gcd(abs(p_coeff), abs(q_coeff)) != 1:
            raise CoprimalityViolation(
                f"P = {p_coeff} and Q = {q_coeff} share a factor; "
                "coprime coefficients are required"
            )
        _set(self, "p_coeff", p_coeff)
        _set(self, "q_coeff", q_coeff)
        _set(self, "discriminant", p_coeff**2 - 4 * q_coeff)

    def _args(self) -> tuple[int, int]:
        return self.p_coeff, self.q_coeff


def make_params(p: int, q: int) -> LucasParams:
    """Validate and build the coefficient pair for U_n(P, Q) and V_n(P, Q)."""
    return LucasParams(p, q)


class OpCounter:
    """Mutable tally of the modular multiplications u_pair_mod makes."""

    __slots__ = ("mults",)

    def __init__(self) -> None:
        self.mults = 0

    def add(self, k: int) -> None:
        self.mults += k


def u_at(params: LucasParams, n: int) -> int:
    """U_n by direct recurrence from (U_0, U_1) = (0, 1); exact, O(n) multiplications."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, params.p_coeff * b - params.q_coeff * a
    return a


def v_at(params: LucasParams, n: int) -> int:
    """V_n by direct recurrence from (V_0, V_1) = (2, P); exact."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    a, b = 2, params.p_coeff
    for _ in range(n):
        a, b = b, params.p_coeff * b - params.q_coeff * a
    return a


def _u_doubling(p: int, q: int, digits: str, m: int | None) -> tuple[int, int]:
    """(U_j, U_{j+1}) by index doubling, for j = 1 followed by `digits` in binary.

    The walk starts after j's leading digit at (U_1, U_2) = (1, P), reduced
    mod m unless m is None, and keeps the window (a, b) = (U_i, U_{i+1}).
    Each digit is one step, by U_2i = U_i*V_i at i and i + 1, with
    V_i = 2*U_{i+1} - P*U_i and V_{i+1} = P*U_{i+1} - 2*Q*U_i:

        0-digit: (U_2i, U_2i+1)   = (a*(2b - P*a), b^2 - Q*a^2)
        1-digit: (U_2i+1, U_2i+2) = (b^2 - Q*a^2, b*(P*b - 2*Q*a))

    An exact walk (m is None) takes these for every Q: 5 multiplications
    for a 0-digit and 6 for a 1-digit. A modular walk has one loop per Q
    class, so no digit tests q: Q = 1 takes b^2 - a^2 as (b - a)*(b + a)
    and Q = -1 takes b^2 + a^2, so a digit costs 3 multiplications at Q = 1
    and 4 at Q = -1, and any other Q costs 5 and 6 as above. Each new term
    is reduced once, in the expression that builds it. This is the only
    doubling loop: the pair read and the single-term read both walk it.
    """
    if m is None:
        a, b = 1, p
        for bit in digits:
            if bit == "1":
                a, b = b * b - q * a * a, b * (p * b - 2 * q * a)
            else:
                a, b = a * (2 * b - p * a), b * b - q * a * a
        return a, b
    a, b = 1 % m, p % m
    if q == 1:
        for bit in digits:
            if bit == "1":
                a, b = (b - a) * (b + a) % m, b * (p * b - 2 * a) % m
            else:
                a, b = a * (2 * b - p * a) % m, (b - a) * (b + a) % m
    elif q == -1:
        for bit in digits:
            if bit == "1":
                a, b = (b * b + a * a) % m, b * (p * b + 2 * a) % m
            else:
                a, b = a * (2 * b - p * a) % m, (b * b + a * a) % m
    else:
        for bit in digits:
            if bit == "1":
                a, b = (b * b - q * a * a) % m, b * (p * b - 2 * q * a) % m
            else:
                a, b = a * (2 * b - p * a) % m, (b * b - q * a * a) % m
    return a, b


def _u_pair(params: LucasParams, n: int, m: int | None) -> tuple[int, int]:
    """(U_n, U_{n+1}) by index doubling, reduced mod m at every step unless m is None."""
    if n < 1:
        if n < 0:
            raise ValueError(f"index must be nonnegative, got {n}")
        return 0, 1
    return _u_doubling(params.p_coeff, params.q_coeff, bin(n)[3:], m)


def _u_single(p: int, q: int, n: int, m: int | None) -> int:
    """U_n(P, Q), or U_n mod m for m >= 1, by index doubling from plain coefficients.

    _u_doubling walks the digits of n between its leading and its last one,
    to (a, b) = (U_j, U_{j+1}) with j = n >> 1. The last digit then builds
    U_n alone: a*(2b - P*a) for a 0-digit, b^2 - Q*a^2 for a 1-digit, with
    Q = 1 and Q = -1 folded in as in the modular walk, exact or mod m. No
    U_{n+1} is built. P and Q are not validated; only a negative index
    raises ValueError.
    """
    if n < 2:
        if n < 0:
            raise ValueError(f"index must be nonnegative, got {n}")
        return n if m is None else n % m
    a, b = _u_doubling(p, q, bin(n)[3:-1], m)
    if not n & 1:
        term = a * (2 * b - p * a)
    elif q == 1:
        term = (b - a) * (b + a)
    elif q == -1:
        term = b * b + a * a
    else:
        term = b * b - q * a * a
    return term if m is None else term % m


def u_pair_mod(
    params: LucasParams, n: int, m: int, counter: OpCounter | None = None
) -> tuple[int, int]:
    """(U_n mod m, U_{n+1} mod m) by index doubling, O(log n) modular multiplications.

    The walk's multiplications (see _u_doubling) are added to the counter
    once, up front: one step per digit of n after the leading one.
    """
    if m <= 1:
        raise BadModulus(f"modulus must exceed 1, got {m}")
    if counter is not None and n > 0:
        steps, ones, q = n.bit_length() - 1, n.bit_count() - 1, params.q_coeff
        counter.add(3 * steps if q == 1 else 4 * steps if q == -1 else 5 * steps + ones)
    return _u_pair(params, n, m)


def u_pair_exact(params: LucasParams, n: int) -> tuple[int, int]:
    """Exact (U_n, U_{n+1}) by index doubling, O(log n) big-int multiplications.

    For single large terms. The brute-force oracles read terms from the
    recurrence instead, so they never share this formula.
    """
    return _u_pair(params, n, None)


# ---------------------------------------------------------------------------
# Exact prefixes and term reads
# ---------------------------------------------------------------------------

# The congruence grid builds each pair's prefix [U_0, U_1, ...] once with
# _u_prefix and passes it to every read as `terms`; other callers pass ().
# A prefix term is charged its bit length plus SLOT_BITS, the size of a small
# int object and its list slot, so a prefix of tiny terms stays bounded too;
# no prefix passes TABLE_BITS. Past the prefix, _u_term doubles (_u_single)
# and _u_terms_mod walks (_u_walk_mod). No term is kept between calls.
TABLE_BITS = 1 << 21  # 256 KiB
SLOT_BITS = 8 * 36

_hits = 0
_misses = 0
_count_lock = threading.Lock()


class TermCacheInfo(NamedTuple):
    hits: int  # terms read from a prefix
    misses: int  # terms read by index doubling or a walk
    currsize: int  # always 0: no term outlives the call that read it


def _u_prefix(params: LucasParams, n: int) -> list[int]:
    """[U_0, U_1, ..., U_n] (U_1 at least) by the recurrence alone, cut before TABLE_BITS."""
    p, q = params.p_coeff, params.q_coeff
    terms = [0, 1]
    a, b = 0, 1
    room = TABLE_BITS - (1 + 2 * SLOT_BITS)
    for _ in range(n - 1):
        a, b = b, p * b - q * a
        room -= b.bit_length() + SLOT_BITS
        if room < 0:
            break
        terms.append(b)
    return terms


def _u_term(params: LucasParams, n: int, terms: Sequence[int], m: int | None = None) -> int:
    """U_n, or U_n mod m for m >= 1: a prefix index is one hit; any other is one miss, by doubling.

    A miss mod m multiplies numbers below m, where an exact U_n grows
    linearly in n in width; the oracles read by _u_terms_mod, which never
    doubles. A negative index raises ValueError, and then the read counts
    nothing. A hit, the grid's hottest read, takes no lock, which would cost
    it several times its `+=`: CPython with the GIL switches threads only at
    calls and backward jumps, never inside one `+=` of an int.
    """
    global _hits, _misses
    if 0 <= n < len(terms):
        _hits += 1
        return terms[n] if m is None else terms[n] % m
    term = _u_single(params.p_coeff, params.q_coeff, n, m)
    with _count_lock:
        _misses += 1
    return term


# A giant step of _u_walk_mod costs about one block step per GIANT_STEP_BITS
# bits of the modulus, and at least one: its m-by-m products and their
# reductions grow with m, a block step's m-by-64-bit ones barely do. 400 is
# the middle of the best range in a sweep of moduli of 1,400 to 15,000 bits.
GIANT_STEP_BITS = 400


class WalkPlan(NamedTuple):
    """The steps of a _u_walk_mod walk from (U_0, U_1); sum(plan) transition applications.

    Building the giant step's transition takes `giant` block steps, then the
    walk takes `giants` giant steps, `blocks` block steps and `singles`
    single recurrence steps, in that order.
    """

    giant: int  # block steps per giant step, 0 when the walk takes none
    giants: int
    blocks: int
    singles: int


def _walk_plan(steps: int, block: int, weight: int) -> WalkPlan:
    """How _u_walk_mod walks `steps` recurrence steps with blocks of `block` steps.

    `weight` is what one giant step costs, counted in block steps: a giant
    step multiplies ints as wide as the modulus, a block step multiplies them
    by ints of about 64 bits. Under 16 whole blocks the walk takes them one
    by one. From 16 on, a giant step is g = isqrt(blocks * weight) blocks,
    so the walk costs about 3*sqrt(steps * weight / block) block steps, plus
    fewer than `block` single steps. A giant step that would cover the whole
    walk costs more than walking its blocks, so then the walk takes none.
    """
    whole, singles = divmod(steps, block)
    giant = isqrt(whole * weight)
    if whole < 16 or giant >= whole:
        return WalkPlan(0, 0, whole, singles)
    giants, blocks = divmod(whole, giant)
    return WalkPlan(giant, giants, blocks, singles)


def _u_walk_mod(params: LucasParams, n: int, m: int) -> int:
    """U_n mod m, for m >= 1, by the defining recurrence; reads no prefix.

    The walk takes n steps mod m from (U_0, U_1) = (0, 1), so
    _walk_plan(n, block, w) is its whole cost. Each step widens a term by
    at most (|P| + |Q|).bit_length() bits, and a block is as many steps as
    about 64 bits of such growth allows (at least one). The recurrence is
    linear, so the block's transition is walked once, from (1, 0) and from
    (0, 1), into four exact ints of at most about 64 bits (or 0, 1, -Q and P
    when the block is one step). A giant step multiplies ints as wide as m,
    which costs about w = max(1, m.bit_length() // GIANT_STEP_BITS) block
    steps. A walk of 16 blocks or more first applies the block's transition
    g = isqrt(blocks * w) times to (1, 0) and (0, 1), reducing mod m once the
    result is wider than m, which gives the transition of g blocks; it
    applies that one blocks // g times (see _walk_plan, which takes no giant
    step when g would cover the walk). It then applies the block's
    transition to each remaining whole block and takes the last steps one by
    one, reducing after every transition. That is O(sqrt(n * w)) products of
    ints no wider than m, none much wider than m^2. Only a short walk of a
    pair whose block is one step still pays one transition per step. Never
    squares a transition and never uses the doubling formula: the
    congruence oracles rely on this independence.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    p, q = params.p_coeff, params.q_coeff
    block = max(1, 64 // (abs(p) + abs(q)).bit_length())
    c0, d0, c1, d1 = 1, 0, 0, 1  # the block's transition, walked from (1, 0) and (0, 1)
    for _ in range(block):
        c0, d0, c1, d1 = d0, p * d0 - q * c0, d1, p * d1 - q * c1
    width = m.bit_length()
    giant, giants, blocks, rest = _walk_plan(n, block, max(1, width // GIANT_STEP_BITS))
    e0, f0, e1, f1 = 1, 0, 0, 1  # the giant step's transition, walked the same way
    for _ in range(giant):
        e0, f0, e1, f1 = c0 * e0 + c1 * f0, d0 * e0 + d1 * f0, c0 * e1 + c1 * f1, d0 * e1 + d1 * f1
        if f1.bit_length() > width:  # exact while narrower: a residue of a negative is m wide
            e0, f0, e1, f1 = e0 % m, f0 % m, e1 % m, f1 % m
    a, b = 0, 1
    for _ in range(giants):
        a, b = (e0 * a + e1 * b) % m, (f0 * a + f1 * b) % m
    for _ in range(blocks):
        a, b = (c0 * a + c1 * b) % m, (d0 * a + d1 * b) % m
    for _ in range(rest):
        a, b = b, p * b - q * a
    return a % m


def _u_terms_mod(
    params: LucasParams, indices: Sequence[int], moduli: Sequence[int], terms: Sequence[int]
) -> list[int]:
    """[U_j mod m for j, m in zip(indices, moduli)], in that order, for moduli m >= 1.

    Each index of `terms`, a prefix of the pair, is read from it and reduced,
    one hit; every other index is one miss, which _u_walk_mod walks from the
    start. A negative index raises ValueError, and then the call counts
    nothing.
    """
    global _hits, _misses
    stored = len(terms)
    residues = [
        terms[j] % m if 0 <= j < stored else _u_walk_mod(params, j, m)
        for j, m in zip(indices, moduli)
    ]
    # A negative index has raised by now, so the hits are the indices below stored.
    hits = sum(map(stored.__gt__, indices))
    with _count_lock:
        _hits += hits
        _misses += len(residues) - hits
    return residues


def _term_cache_info() -> TermCacheInfo:
    return TermCacheInfo(_hits, _misses, 0)


_u_term.cache_info = _term_cache_info  # type: ignore[attr-defined]


FIBONACCI_PARAMS = make_params(1, -1)
MERSENNE_PARAMS = make_params(3, 2)  # U_n(3, 2) = 2^n - 1


def check_addition_identity(params: LucasParams, m: int, n: int) -> bool:
    """Exact check of U_{m+n} = U_m*V_n - Q^n * U_{m-n}, for n <= m."""
    if n > m:
        raise ValueError(f"need n <= m, got n = {n}, m = {m}")
    lhs = u_at(params, m + n)
    rhs = u_at(params, m) * v_at(params, n) - params.q_coeff**n * u_at(params, m - n)
    return lhs == rhs


def check_v_from_u(params: LucasParams, n: int) -> bool:
    """Exact check of V_n = 2*U_{n+1} - P*U_n."""
    return v_at(params, n) == 2 * u_at(params, n + 1) - params.p_coeff * u_at(params, n)


def check_norm_identity(params: LucasParams, n: int) -> bool:
    """Exact check of V_n^2 - D*U_n^2 = 4*Q^n."""
    lhs = v_at(params, n) ** 2 - params.discriminant * u_at(params, n) ** 2
    return lhs == 4 * params.q_coeff**n


def check_strong_divisibility(params: LucasParams, x: int, y: int) -> bool:
    """Exact check of gcd(|U_x|, |U_y|) = |U_{gcd(x, y)}|, for x, y >= 1."""
    if x < 1 or y < 1:
        raise ValueError(f"indices must be >= 1, got {x}, {y}")
    return gcd(abs(u_at(params, x)), abs(u_at(params, y))) == abs(
        u_at(params, gcd(x, y))
    )
