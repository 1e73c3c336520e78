"""Lucas sequences of the first and second kind.

Exact term evaluation by the defining recurrence, exact and modular
evaluation by index doubling, and the classical identities the sequences
satisfy, exposed as exact checks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

from .errors import BadModulus, CoprimalityViolation, ZeroPair


@dataclass(frozen=True)
class LucasParams:
    """Coefficient pair (P, Q) of the recurrence a_{j+1} = P*a_j - Q*a_{j-1}.

    P and Q must be coprime, which makes the U-sequence a strong divisibility
    sequence. The discriminant P^2 - 4Q is derived, never passed in.
    """

    p_coeff: int
    q_coeff: int
    discriminant: int = field(init=False)

    def __post_init__(self) -> None:
        if self.p_coeff == 0 and self.q_coeff == 0:
            raise ZeroPair("(P, Q) = (0, 0) defines no usable sequence")
        if gcd(abs(self.p_coeff), abs(self.q_coeff)) != 1:
            raise CoprimalityViolation(
                f"P = {self.p_coeff} and Q = {self.q_coeff} share a factor; "
                "coprime coefficients are required"
            )
        object.__setattr__(self, "discriminant", self.p_coeff**2 - 4 * self.q_coeff)


# make_params keeps one validated instance per (P, Q); past this many pairs it
# starts over, so a long session over many pairs stays bounded.
_PARAMS_LIMIT = 4096
_params: dict[tuple[int, int], LucasParams] = {}


def make_params(p: int, q: int) -> LucasParams:
    """Validate and build the coefficient pair for U_n(P, Q) and V_n(P, Q).

    Each (P, Q) is validated once; later calls return the same instance.
    """
    params = _params.get((p, q))
    if params is None:
        params = LucasParams(p, q)
        if len(_params) >= _PARAMS_LIMIT:
            _params.clear()
        _params[(p, q)] = params
    return params


class OpCounter:
    """Mutable tally of big-int multiplications, for complexity assertions in tests."""

    __slots__ = ("mults",)

    def __init__(self) -> None:
        self.mults = 0

    def add(self, k: int = 1) -> None:
        self.mults += k


def u_at(params: LucasParams, n: int, counter: OpCounter | None = None) -> int:
    """U_n by direct recurrence from (U_0, U_1) = (0, 1); exact, O(n) multiplications."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, params.p_coeff * b - params.q_coeff * a
        if counter is not None:
            counter.add(2)
    return a


def v_at(params: LucasParams, n: int, counter: OpCounter | None = None) -> int:
    """V_n by direct recurrence from (V_0, V_1) = (2, P); exact."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    a, b = 2, params.p_coeff
    for _ in range(n):
        a, b = b, params.p_coeff * b - params.q_coeff * a
        if counter is not None:
            counter.add(2)
    return a


def _u_pair(
    params: LucasParams, n: int, m: int | None, counter: OpCounter | None
) -> tuple[int, int]:
    """(U_n, U_{n+1}) by index doubling, reduced mod m at every step unless m is None.

    Doubling steps:

        U_{2j}   = U_j * (2*U_{j+1} - P*U_j)
        U_{2j+1} = U_{j+1}^2 - Q*U_j^2

    The first uses V_j expressed through consecutive U-terms, so the whole
    walk needs only the (U_j, U_{j+1}) window.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    p, q = params.p_coeff, params.q_coeff
    a, b = 0, 1
    for i in range(n.bit_length() - 1, -1, -1):
        doubled = a * (2 * b - p * a)
        succ = b * b - q * a * a
        if m is not None:
            doubled %= m
            succ %= m
        if counter is not None:
            counter.add(5)
        if (n >> i) & 1:
            a, b = succ, p * succ - q * doubled
            if m is not None:
                b %= m
            if counter is not None:
                counter.add(2)
        else:
            a, b = doubled, succ
    return a, b


def u_pair_mod(
    params: LucasParams, n: int, m: int, counter: OpCounter | None = None
) -> tuple[int, int]:
    """(U_n mod m, U_{n+1} mod m) by index doubling, O(log n) modular multiplications."""
    if m <= 1:
        raise BadModulus(f"modulus must exceed 1, got {m}")
    return _u_pair(params, n, m, counter)


def u_pair_exact(params: LucasParams, n: int) -> tuple[int, int]:
    """Exact (U_n, U_{n+1}) by index doubling, O(log n) big-int multiplications.

    For single large terms. The brute-force oracles read terms from the
    recurrence instead, so they never share this formula.
    """
    return _u_pair(params, n, None, None)


# ---------------------------------------------------------------------------
# Exact term table
# ---------------------------------------------------------------------------

# One prefix table [U_0, U_1, ...] per (P, Q), grown by the recurrence. Each
# stored term is charged its bit length plus SLOT_BITS, the size of a small
# int object and its list slot, so tables of tiny terms stay bounded too. A
# table stores no term that would take it past TABLE_BITS, or all tables
# together past CACHE_BITS; larger indices are walked from its tail and not
# kept. A new (P, Q) that finds less than TABLE_BITS of room left clears all
# tables first.
TABLE_BITS = 1 << 21  # 256 KiB
CACHE_BITS = 1 << 23  # 1 MiB
SLOT_BITS = 8 * 36

_tables: dict[tuple[int, int], list[int]] = {}
_table_bits: dict[tuple[int, int], int] = {}
_stored_bits = 0
_hits = 0
_misses = 0
_grow_lock = threading.Lock()


class TermCacheInfo(NamedTuple):
    hits: int
    misses: int
    currsize: int  # stored terms, over all tables


def _u_term(params: LucasParams, n: int) -> int:
    """Exact U_n, read from the (P, Q) recurrence table (see TABLE_BITS)."""
    global _hits
    terms = _tables.get((params.p_coeff, params.q_coeff))
    if terms is not None and 0 <= n < len(terms):
        _hits += 1
        return terms[n]
    return _u_term_miss(params, n)


def _u_term_miss(params: LucasParams, n: int) -> int:
    """Extend the (P, Q) table towards n, then walk on past its end without storing."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    terms = _u_term_reserve(params, n)
    stored = len(terms)  # tables only grow, so this window stays consistent
    if n < stored:
        return terms[n]
    p, q = params.p_coeff, params.q_coeff
    a, b = terms[stored - 2], terms[stored - 1]
    for _ in range(n - stored + 1):
        a, b = b, p * b - q * a
    return b


def _u_term_mod(params: LucasParams, n: int, m: int) -> int:
    """U_n mod m by the defining recurrence, for m >= 1.

    A stored term is read from the (P, Q) table and reduced. Past the table's
    end the recurrence walks on from its last two terms, reduced at every
    step, so no term wider than m is built. Never uses the doubling formula:
    the congruence oracles rely on this independence.
    """
    global _hits
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    terms = _tables.get((params.p_coeff, params.q_coeff))
    if terms is not None and n < len(terms):
        _hits += 1
        return terms[n] % m
    terms = _u_term_reserve(params, n)
    stored = len(terms)
    if n < stored:
        return terms[n] % m
    p, q = params.p_coeff, params.q_coeff
    a, b = terms[stored - 2] % m, terms[stored - 1] % m
    for _ in range(n - stored + 1):
        a, b = b, (p * b - q * a) % m
    return b


def _u_term_reserve(params: LucasParams, n: int) -> list[int]:
    """Store the (P, Q) table up to index n, or as far as the budgets allow; returns it.

    Creating a table or growing one counts as a term-cache miss.
    """
    global _misses, _stored_bits
    key = (params.p_coeff, params.q_coeff)
    with _grow_lock:
        terms = _tables.get(key)
        if terms is None:
            if CACHE_BITS - _stored_bits < TABLE_BITS:
                _tables.clear()
                _table_bits.clear()
                _stored_bits = 0
            terms = _tables[key] = [0, 1]
            _table_bits[key] = 1 + 2 * SLOT_BITS
            _stored_bits += _table_bits[key]
        elif n < len(terms):
            return terms
        _misses += 1
        p, q = key
        a, b = terms[-2], terms[-1]
        room = min(TABLE_BITS - _table_bits[key], CACHE_BITS - _stored_bits)
        used = 0
        for _ in range(n - len(terms) + 1):
            a, b = b, p * b - q * a
            cost = b.bit_length() + SLOT_BITS
            if used + cost > room:
                break
            terms.append(b)
            used += cost
        _table_bits[key] += used
        _stored_bits += used
    return terms


def _term_cache_info() -> TermCacheInfo:
    return TermCacheInfo(_hits, _misses, sum(len(t) for t in _tables.values()))


def _term_cache_clear() -> None:
    global _stored_bits
    with _grow_lock:
        _tables.clear()
        _table_bits.clear()
        _stored_bits = 0


_u_term.cache_info = _term_cache_info  # type: ignore[attr-defined]
_u_term.cache_clear = _term_cache_clear  # type: ignore[attr-defined]


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
