import sys
import threading
from math import gcd, isqrt, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lucaskit.sequences as sequences
from lucaskit import (
    BadModulus,
    CoprimalityViolation,
    FIBONACCI_PARAMS,
    MERSENNE_PARAMS,
    OpCounter,
    ZeroPair,
    check_addition_identity,
    check_norm_identity,
    check_strong_divisibility,
    check_v_from_u,
    evaluate_congruence,
    make_params,
    u_at,
    u_pair_exact,
    u_pair_mod,
    v_at,
)
from lucaskit.sequences import (
    _u_prefix, _u_single, _u_term, _u_terms_mod, _u_walk_mod, _walk_plan,
)

PELL = make_params(2, -1)


def naive_terms(p, q, count):
    # Independent oracle: [U_0, ..., U_{count-1}], the recurrence written out with no library code.
    terms = [0, 1]
    while len(terms) < count:
        terms.append(p * terms[-1] - q * terms[-2])
    return terms[:count]


def naive_u(p, q, n):
    return naive_terms(p, q, n + 1)[n]


def matrix_pair_mod(params, n, m):
    # Independent oracle for a huge index: (U_n, U_{n+1}) mod m is the left
    # column of [[P, -Q], [1, 0]]^n, by repeated squaring of that matrix.
    def mul(x, y):
        return [
            [(x[i][0] * y[0][j] + x[i][1] * y[1][j]) % m for j in range(2)]
            for i in range(2)
        ]

    power, base = [[1, 0], [0, 1]], [[params.p_coeff, -params.q_coeff], [1, 0]]
    while n:
        if n & 1:
            power = mul(power, base)
        base = mul(base, base)
        n >>= 1
    return power[1][0], power[0][0]


class CountedInt(int):
    """An int that counts its products with other CountedInts in `CountedInt.products`.

    Every sum, difference, product and residue it takes part in is a
    CountedInt too, so a walk started from CountedInts counts each of its
    multiplications. A product with a plain int, such as a literal 2, is
    not counted, whatever the value of the CountedInt.
    """

    products = 0

    def __mul__(self, other):
        if isinstance(other, CountedInt):
            CountedInt.products += 1
        return CountedInt(int(self) * int(other))

    __rmul__ = __mul__  # reached only from a plain int on the left


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mod__", "__rmod__"):
    setattr(
        CountedInt, _name,
        lambda self, other, op=getattr(int, _name): CountedInt(op(int(self), int(other))),
    )


# Doubling-walk indices: the empty walk, one step, powers of two (a single
# 1-digit), all-ones runs, a power of two plus one, and a 4096-bit index.
# The walks start after the leading digit and a single-term read stops before
# the last: 2 and 3 walk no digit, 4 and 5 one 0-digit, then end on each kind.
DOUBLING_INDICES = [
    0,
    1,
    *(1 << j for j in (1, 2, 5, 12)),
    *((1 << j) - 1 for j in (2, 5, 12)),
    *((1 << j) + 1 for j in (2, 5, 12)),
    (1 << 4095) | 0x5DEECE66D << 2000 | 0xB,
]

# Moduli of the single-term read: 1, the smallest, a 64-bit prime and a 1,000-bit one.
DOUBLING_MODULI = (1, 2, 3, 2**64 - 59, (1 << 999) | 0x5DEECE66D)


def doubling_id(n):
    return str(n) if n.bit_length() <= 64 else f"{n.bit_length()}-bit"


@st.composite
def coprime_pairs(draw, lo=-20, hi=20, q_bound=None):
    # Repair instead of filter: divide out the gcd so every draw is usable.
    p = draw(st.integers(lo, hi))
    q = draw(st.integers(lo, hi) if q_bound is None else st.integers(-q_bound, q_bound))
    if p == 0 and q == 0:
        return 1, -1
    g = gcd(abs(p), abs(q))
    return p // g, q // g


# Pairs beyond a machine word: |P| up to 2^80, |Q| up to 2^40, and the Q = 0
# pairs P = +-1, whose U_n is a power of P.
wide_coprime_pairs = st.one_of(
    st.sampled_from([(1, 0), (-1, 0)]), coprime_pairs(-(2**80), 2**80, q_bound=2**40)
)

# The wider differential space: every coprime (P, Q) with P in -8..8, Q in -9..9.
WIDE_PAIRS = [
    (p, q) for p in range(-8, 9) for q in range(-9, 10) if gcd(abs(p), abs(q)) == 1
]


@pytest.mark.parametrize("call, message", [
    (lambda: v_at(FIBONACCI_PARAMS, -1), "index must be nonnegative, got -1"),
    (lambda: check_strong_divisibility(FIBONACCI_PARAMS, 0, 1), "indices must be >= 1, got 0, 1"),
], ids=["v_at", "strong_divisibility"])
def test_input_guards(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert type(excinfo.value) is ValueError and str(excinfo.value) == message


class TestMakeParams:
    def test_fibonacci_discriminant(self):
        assert make_params(1, -1).discriminant == 5

    def test_mersenne_discriminant(self):
        assert make_params(3, 2).discriminant == 1

    def test_degenerate_discriminant_accepted(self):
        assert make_params(2, 1).discriminant == 0

    def test_non_coprime_rejected(self):
        with pytest.raises(CoprimalityViolation):
            make_params(2, 4)

    def test_zero_pair_rejected(self):
        with pytest.raises(ZeroPair):
            make_params(0, 0)

    def test_rejected_pair_is_rejected_again(self):
        with pytest.raises(CoprimalityViolation):
            make_params(6, 9)
        with pytest.raises(CoprimalityViolation):
            make_params(6, 9)  # a rejected pair is not remembered

    def test_negative_coefficients_use_absolute_gcd(self):
        with pytest.raises(CoprimalityViolation):
            make_params(-2, -4)
        assert make_params(-3, -2).discriminant == 9 + 8


class TestTermEvaluation:
    def test_fibonacci_12(self):
        assert u_at(FIBONACCI_PARAMS, 12) == 144

    def test_seed(self):
        assert u_at(FIBONACCI_PARAMS, 0) == 0
        assert u_at(MERSENNE_PARAMS, 0) == 0

    def test_mersenne_5(self):
        assert u_at(MERSENNE_PARAMS, 5) == 31

    def test_pell_4(self):
        # hand-unrolled: 0, 1, 2, 5, 12
        assert u_at(PELL, 4) == 12

    def test_mersenne_closed_form(self):
        for n in range(0, 40):
            assert u_at(MERSENNE_PARAMS, n) == (1 << n) - 1

    def test_v_seeds(self):
        assert v_at(FIBONACCI_PARAMS, 0) == 2
        assert v_at(FIBONACCI_PARAMS, 1) == 1

    def test_lucas_numbers(self):
        # 2, 1, 3, 4, 7
        assert v_at(FIBONACCI_PARAMS, 4) == 7

    def test_v_mersenne(self):
        # 2^n + 1 for (3, 2): 2, 3, 5, 9
        assert v_at(MERSENNE_PARAMS, 3) == 9

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            u_at(FIBONACCI_PARAMS, -1)


class TestPairMod:
    def test_fibonacci_pair(self):
        # F_10 = 55, F_11 = 89
        assert u_pair_mod(FIBONACCI_PARAMS, 10, 11) == (0, 1)

    def test_seeds(self):
        assert u_pair_mod(FIBONACCI_PARAMS, 0, 7) == (0, 1)

    def test_mersenne_pair(self):
        # 2^6-1 = 63, 2^7-1 = 127
        assert u_pair_mod(MERSENNE_PARAMS, 6, 63) == (0, 1)

    def test_bad_modulus(self):
        for m in (1, 0, -5):
            with pytest.raises(BadModulus):
                u_pair_mod(FIBONACCI_PARAMS, 3, m)

    def test_agrees_with_direct_on_grid(self, param_grid):
        moduli = (2, 3, 10**6 + 3, 2**64 - 59)
        for params in param_grid:
            p, q = params.p_coeff, params.q_coeff
            a, b = 0, 1
            for n in range(0, 201):
                for m in moduli:
                    assert u_pair_mod(params, n, m) == (a % m, b % m), (params, n, m)
                    assert _u_single(p, q, n, m) == a % m, (params, n, m)
                assert _u_single(p, q, n, None) == a, (params, n)
                a, b = b, p * b - q * a

    @settings(deadline=None, max_examples=200)
    @given(pq=coprime_pairs(), n=st.integers(0, 400), m=st.integers(2, 10**12))
    def test_agrees_with_direct_random(self, pq, n, m):
        p, q = pq
        params = make_params(p, q)
        assert u_pair_mod(params, n, m)[0] == naive_u(p, q, n) % m

    @settings(deadline=None, max_examples=200)
    @given(
        pq=wide_coprime_pairs,
        n=st.integers(0, 2**4096),
        m=st.one_of(st.sampled_from([2, 3, 2**64, 2**64 - 59]), st.integers(2, 2**300)),
    )
    def test_wide_pairs_agree_with_the_matrix_power(self, pq, n, m):
        params = make_params(*pq)
        pair = matrix_pair_mod(params, n, m)
        assert u_pair_mod(params, n, m) == pair
        assert _u_single(*pq, n, m) == pair[0]

    @settings(deadline=None, max_examples=100)
    @given(pq=wide_coprime_pairs, n=st.integers(0, 300))
    def test_wide_pairs_exact_agree_with_the_recurrence(self, pq, n):
        params = make_params(*pq)
        assert u_pair_exact(params, n) == (u_at(params, n), u_at(params, n + 1))
        assert _u_single(*pq, n, None) == u_at(params, n)


class TestIdentities:
    def test_addition_identity_example(self):
        assert check_addition_identity(FIBONACCI_PARAMS, 7, 3)

    def test_addition_identity_degenerate(self):
        assert check_addition_identity(FIBONACCI_PARAMS, 5, 0)

    def test_addition_identity_order(self):
        with pytest.raises(ValueError):
            check_addition_identity(FIBONACCI_PARAMS, 3, 7)

    def test_v_from_u_examples(self):
        assert check_v_from_u(FIBONACCI_PARAMS, 6)  # 18 = 2*13 - 8
        assert check_v_from_u(FIBONACCI_PARAMS, 0)  # 2 = 2*1 - 0

    def test_norm_identity_examples(self):
        assert check_norm_identity(FIBONACCI_PARAMS, 5)  # 121 - 125 = -4
        assert check_norm_identity(FIBONACCI_PARAMS, 0)

    def test_strong_divisibility_examples(self):
        assert check_strong_divisibility(FIBONACCI_PARAMS, 10, 15)  # gcd(55, 610) = 5
        assert check_strong_divisibility(FIBONACCI_PARAMS, 7, 7)

    def test_identity_grid(self, param_grid):
        for params in param_grid:
            for m in range(0, 26):
                for n in range(0, m + 1):
                    assert check_addition_identity(params, m, n), (params, m, n)
            for n in range(0, 26):
                assert check_v_from_u(params, n), (params, n)
                assert check_norm_identity(params, n), (params, n)

    def test_strong_divisibility_grid(self, param_grid):
        for params in param_grid:
            for x in range(1, 31):
                for y in range(1, 31):
                    assert check_strong_divisibility(params, x, y), (params, x, y)

    @settings(deadline=None, max_examples=150)
    @given(
        pq=coprime_pairs(-10, 10),
        a=st.integers(0, 40),
        b=st.integers(0, 40),
    )
    def test_addition_identity_random(self, pq, a, b):
        m, n = max(a, b), min(a, b)
        assert check_addition_identity(make_params(*pq), m, n)

    @settings(deadline=None, max_examples=150)
    @given(
        pq=coprime_pairs(-10, 10),
        x=st.integers(1, 60),
        y=st.integers(1, 60),
    )
    def test_strong_divisibility_random(self, pq, x, y):
        assert check_strong_divisibility(make_params(*pq), x, y)


class TestOperationCounts:
    def test_pair_mod_is_logarithmic(self):
        counter = OpCounter()
        u_pair_mod(FIBONACCI_PARAMS, 10**6, 10**9 + 7, counter)
        # at most 7 multiplications per bit of the index
        assert counter.mults <= 7 * (10**6).bit_length()

    def test_pair_mod_growth_tracks_bit_length(self):
        small, large = OpCounter(), OpCounter()
        u_pair_mod(FIBONACCI_PARAMS, 1 << 20, 10**9 + 7, small)
        u_pair_mod(FIBONACCI_PARAMS, 1 << 40, 10**9 + 7, large)
        # doubling the bit length at most doubles the multiplication count
        assert large.mults <= 2 * small.mults + 7

    @pytest.mark.parametrize("n", DOUBLING_INDICES, ids=doubling_id)
    def test_pair_mod_count_is_pinned(self, n):
        # Per binary digit of n after the leading one: 3 multiplications at
        # Q = 1, 4 at Q = -1, and otherwise 5 and 1 more per 1-digit.
        steps, ones = max(n.bit_length() - 1, 0), max(bin(n).count("1") - 1, 0)
        for params, per_call in (
            (FIBONACCI_PARAMS, 4 * steps),
            (PELL, 4 * steps),
            (make_params(-5, 1), 3 * steps),
            (MERSENNE_PARAMS, 5 * steps + ones),
            (make_params(-3, 5), 5 * steps + ones),
        ):
            counter = OpCounter()
            u_pair_mod(params, n, 10**9 + 7, counter)
            u_pair_mod(params, n, 2**64 - 59, counter)
            assert counter.mults == 2 * per_call, (params, n)

    # Q = -1, Q = 1 and other Q; P = 2 and Q = 2 equal the walk's literal 2.
    @pytest.mark.parametrize("pq", [
        (1, -1), (2, -1), (-5, 1), (2, 1), (3, 2), (2, 3), (-3, 5), (2**80 + 1, 3),
    ], ids=str)
    def test_pair_mod_count_is_the_walks_products(self, pq):
        # The walk itself, run on ints that count their products, makes the
        # multiplications u_pair_mod adds to its counter, over indices with
        # 0-digits, 1-digits and both.
        params = make_params(*pq)
        p, q = (CountedInt(c) for c in pq)
        for n in DOUBLING_INDICES[1:]:
            for m in (10**9 + 7, 2**64 - 59):
                counter = OpCounter()
                pair = u_pair_mod(params, n, m, counter)
                CountedInt.products = 0
                assert sequences._u_doubling(p, q, bin(n)[3:], CountedInt(m)) == pair, (n, m)
                assert CountedInt.products == counter.mults, (pq, n, m)

    # Each Q class of the doubling walk, Q = -1, Q = 1 and any other Q, with
    # a negative P and a P beyond a machine word.
    @pytest.mark.parametrize("params", [
        FIBONACCI_PARAMS, PELL, MERSENNE_PARAMS, make_params(-3, 5), make_params(-5, -1),
        make_params(3, 1), make_params(-5, 1), make_params(0, 1), make_params(-8, -9),
        make_params(2**80 + 1, 3),
    ])
    @pytest.mark.parametrize("n", DOUBLING_INDICES, ids=doubling_id)
    def test_pairs_agree_with_the_recurrence(self, params, n):
        # The pair read and the single-term read against the matrix power,
        # at every modulus, and against the recurrence where u_at reaches n.
        pq = params.p_coeff, params.q_coeff
        exact = None
        if n.bit_length() <= 64:  # u_at cannot reach the 4096-bit index
            exact = u_at(params, n), u_at(params, n + 1)
            assert u_pair_exact(params, n) == exact
            assert _u_single(*pq, n, None) == exact[0]
        for m in DOUBLING_MODULI:
            pair = matrix_pair_mod(params, n, m)
            pair = pair[0] % m, pair[1] % m  # the matrix power leaves n = 0 unreduced
            if exact is not None:
                assert pair == (exact[0] % m, exact[1] % m), m
            if m > 1:
                assert u_pair_mod(params, n, m) == pair, m
            assert _u_single(*pq, n, m) == pair[0], m

    @pytest.mark.parametrize("n", [2**16 + 1, 10**5])
    def test_exact_reads_at_width_obey_two_identities(self, n):
        # The exact walk past u_at's reach, in each Q class, where its terms
        # are 45,000 to 140,000 bits wide. U_n(3, 1) = F_2n, as (3 + sqrt 5)/2
        # is the golden ratio squared, and U_n(-P, Q) = (-1)^(n+1) U_n(P, Q).
        # Three primes tie every read to the matrix power as well.
        primes = (10**9 + 7, 2**61 - 1, 2**64 - 59)
        f_2n, f_next = u_pair_exact(FIBONACCI_PARAMS, 2 * n)
        fib = f_2n, f_2n + f_next  # F_2n and F_2n+2
        assert _u_single(3, 1, n, None) == fib[0]
        assert u_pair_exact(make_params(3, 1), n) == fib
        for m in primes:
            assert matrix_pair_mod(FIBONACCI_PARAMS, 2 * n, m) == (f_2n % m, f_next % m), m
        sign = 1 if n & 1 else -1
        for p, q in ((3, 1), (1, -1), (3, 5)):
            plus, minus = make_params(p, q), make_params(-p, q)
            pair = u_pair_exact(plus, n)
            assert u_pair_exact(minus, n) == (sign * pair[0], -sign * pair[1]), (p, q)
            assert _u_single(p, q, n, None) == pair[0]
            assert _u_single(-p, q, n, None) == sign * pair[0]
            for m in primes:
                assert matrix_pair_mod(plus, n, m) == (pair[0] % m, pair[1] % m), (p, q, m)
                assert matrix_pair_mod(minus, n, m) == (sign * pair[0] % m, -sign * pair[1] % m)


def prefix_bits(terms):
    # What a prefix is charged: each term's bit length plus SLOT_BITS.
    return sum(t.bit_length() + sequences.SLOT_BITS for t in terms)


def held_term_lists(module):
    """The lists of ints that the module's globals hold, through dicts, lists, tuples and sets."""
    found, stack = [], [value for name, value in vars(module).items() if not name.startswith("__")]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, list) and value and all(type(t) is int for t in value):
            found.append(value)
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack.extend(value)
    return found


class TestTermPrefix:
    @settings(deadline=None, max_examples=300)
    @given(pq=st.sampled_from(WIDE_PAIRS), n=st.integers(0, 300))
    def test_prefix_and_doubling_agree_with_recurrence(self, pq, n):
        params = make_params(*pq)
        terms = _u_prefix(params, 150)  # n past 150 is read by doubling
        assert _u_term(params, n, terms) == _u_term(params, n, ()) == u_at(params, n)
        assert u_pair_exact(params, n) == (u_at(params, n), u_at(params, n + 1))

    @pytest.mark.parametrize("pq", [(1, -1), (-3, 2), (0, 1), (1, 0), (2, 1), (-8, -9)])
    def test_first_indices(self, pq):
        params = make_params(*pq)
        for n in (2, 1, 0):
            assert _u_term(params, n, ()) == u_at(params, n)
        assert _u_prefix(params, 0) == _u_prefix(params, 1) == [0, 1]
        assert _u_prefix(params, 2) == [0, 1, pq[0]]
        assert u_pair_exact(params, 0) == (0, 1)
        assert u_pair_exact(params, 1) == (1, pq[0])
        assert u_pair_exact(params, 2) == (pq[0], u_at(params, 3))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            _u_term(FIBONACCI_PARAMS, -1, _u_prefix(FIBONACCI_PARAMS, 10))
        with pytest.raises(ValueError):
            u_pair_exact(FIBONACCI_PARAMS, -1)

    @pytest.mark.parametrize("pq, n, length", [
        ((5, -3), 48 * 48 + 6, 1192),  # the widest pair of a 1..48 grid
        ((1, 0), 10**5, 7256),  # U_n = 1: every term costs 1 + SLOT_BITS bits
        ((1, -1), 10**5, None),
        ((-7, 3), 10**5, None),
        ((1, 1), 10**5, None),
    ])
    def test_prefix_stops_before_the_budget_and_reads_past_it_double(
        self, monkeypatch, pq, n, length
    ):
        params = make_params(*pq)
        terms = _u_prefix(params, n)
        stored = len(terms)
        assert stored == (length or stored) < n
        assert terms == naive_terms(*pq, stored)
        # The prefix fits, and the next term would take it past TABLE_BITS.
        assert prefix_bits(terms) <= sequences.TABLE_BITS
        next_cost = u_at(params, stored).bit_length() + sequences.SLOT_BITS
        assert prefix_bits(terms) + next_cost > sequences.TABLE_BITS
        doubled = spy_on_doubling(monkeypatch)
        for j in (stored - 2, stored - 1, stored, stored + 1, 2 * stored):
            assert _u_term(params, j, terms) == u_at(params, j), j
        assert doubled == [stored, stored + 1, 2 * stored]

    @pytest.mark.parametrize("pq", [(5, -3), (1, -1), (-8, -9), (2**80 + 1, 3)])
    def test_short_prefix_is_the_recurrence(self, pq):
        params = make_params(*pq)
        assert _u_prefix(params, 40) == naive_terms(*pq, 41)

    def test_read_past_the_prefix_doubles_once(self, monkeypatch):
        params = make_params(-7, 3)
        terms = _u_prefix(params, 40)
        start = _u_term.cache_info()
        doubled = spy_on_doubling(monkeypatch)
        assert _u_term(params, 41, terms) == u_at(params, 41)
        assert doubled == [41]
        assert terms == _u_prefix(params, 40)
        info = _u_term.cache_info()
        assert (info.hits, info.misses) == (start.hits, start.misses + 1)

    def test_cache_info_counts(self):
        # Building a prefix counts nothing, a read from it is one hit, and a
        # read past it, or with no prefix, one miss. No term is kept.
        start = _u_term.cache_info()
        terms = _u_prefix(FIBONACCI_PARAMS, 50)
        assert _u_term.cache_info() == start
        _u_term(FIBONACCI_PARAMS, 20, terms)
        _u_term(FIBONACCI_PARAMS, 50, terms)
        _u_term(FIBONACCI_PARAMS, 51, terms)
        _u_term(FIBONACCI_PARAMS, 20, ())
        info = _u_term.cache_info()
        assert info.hits - start.hits == 2
        assert info.misses - start.misses == 2
        assert info.currsize == 0

    @pytest.mark.parametrize("pq", [(1, -1), (5, -3), (-8, -9), (2, 1), (2**80 + 1, 3)])
    def test_modular_read_counts_as_the_exact_one(self, monkeypatch, pq):
        # A prefix index is one hit, reduced; any other is one miss, by one
        # doubling walk mod m, never an exact one. Both give U_n mod m.
        params = make_params(*pq)
        terms = _u_prefix(params, 30)
        assert len(terms) == 31
        real, walks = sequences._u_single, []

        def spy(p, q, n, m=None):
            assert (p, q) == pq
            walks.append((n, m))
            return real(p, q, n, m)

        monkeypatch.setattr(sequences, "_u_single", spy)
        for m in (1, 2, 5, 1 << 70, abs(u_at(params, 7)) or 3):
            start = _u_term.cache_info()
            walks.clear()
            for n in (0, 1, 29, 30, 31, 400):
                assert _u_term(params, n, terms, m) == u_at(params, n) % m, (n, m)
                assert _u_term(params, n, (), m) == u_at(params, n) % m, (n, m)
            info = _u_term.cache_info()
            assert (info.hits - start.hits, info.misses - start.misses) == (4, 8)
            assert walks == [(n, m) for n in (0, 1, 29, 30, 31, 31, 400, 400)]

    def test_modular_read_of_a_negative_index_counts_nothing(self):
        start = _u_term.cache_info()
        for terms in ((), _u_prefix(FIBONACCI_PARAMS, 10)):
            with pytest.raises(ValueError):
                _u_term(FIBONACCI_PARAMS, -1, terms, 7)
        assert _u_term.cache_info() == start

    def test_module_keeps_no_term(self):
        # Scans in this process and in forked workers, and one-instance
        # evaluation, leave no list of terms in the module's globals.
        from lucaskit.cli import run_scan

        for workers in (1, 2):
            record = run_scan("congruence-grid", 1, 24, workers)
            assert (record["checked"], record["mismatches"]) == (149472, [])
        assert evaluate_congruence("main", p=5, q=-3, k=24, n=24).holds
        assert held_term_lists(sequences) == []
        assert _u_term.cache_info().currsize == 0
        assert not hasattr(_u_term, "cache_clear")

    def test_concurrent_reads_count_exactly(self):
        # Threads read the same terms at once, from prefixes of their own and
        # with none, exactly and modulo m; every read is right, and the hit
        # and miss counts are exact sums, with no increment lost.
        pairs = [make_params(*pq) for pq in ((1, -1), (3, -5), (-2, 7))]
        m = 2**70 + 1
        expected = {
            params: [naive_u(params.p_coeff, params.q_coeff, n) for n in range(120)]
            for params in pairs
        }
        errors = []
        barrier = threading.Barrier(6, timeout=60)
        rounds, indices = 4, range(2, 120)

        def reader(seed):
            for round_ in range(rounds):
                barrier.wait()
                for n in indices:
                    params = pairs[(seed + n) % len(pairs)]
                    terms = _u_prefix(params, 60 + seed)
                    exact = expected[params]
                    if _u_term(params, n, terms) != exact[n] or _u_term(params, n, ()) != exact[n]:
                        errors.append((round_, params, n))
                    if _u_terms_mod(params, [n, 1], [m, m], terms) != [exact[n] % m, 1]:
                        errors.append((round_, params, n, m))

        hits = sum(2 * (n < 61 + seed) + 1 for seed in range(6) for n in indices)
        misses = sum(2 * (n >= 61 + seed) + 1 for seed in range(6) for n in indices)
        start = _u_term.cache_info()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        info = _u_term.cache_info()
        assert (info.hits - start.hits, info.misses - start.misses) == (
            rounds * hits, rounds * misses
        )


# Pairs and the block _u_walk_mod derives for them: about 64 bits of growth
# over (|P| + |Q|).bit_length() bits a step, at least one step. The wide pair
# reduces at every step. The moduli run from 1 to wider than the block's
# transition coefficients (2^400 + 1), and include one shaped like a ratio
# family's modulus, |U_k|*|U_n| with k and n near 200.
WALK_PAIRS = [((1, -1), 32), ((-3, 2), 21), ((-7, 3), 16), ((-8, -9), 12), ((2**200 + 1, 3), 1)]
WALK_MODULI = (1, 2, 97, 2**70 + 1, 2**400 + 1, abs(naive_u(-7, 3, 197) * naive_u(-7, 3, 203)))


# Whole blocks of a walk: below, at and above the giant-step cut-over of 16,
# exact multiples of the giant step (16 = 4*4, 20 = 5*4, 64 = 8*8) and not.
WALK_BLOCKS = (0, 1, 15, 16, 17, 20, 35, 64, 71)


def spy_on_doubling(monkeypatch):
    """Record the index of every _u_single call from now on; returns the list.

    Fails on any pair walk: a term read needs no U_{n+1}.
    """
    real, indices = sequences._u_single, []

    def spy(p, q, n, m=None):
        indices.append(n)
        return real(p, q, n, m)

    def no_pair(*args):
        raise AssertionError("a term read walked a pair")

    monkeypatch.setattr(sequences, "_u_single", spy)
    monkeypatch.setattr(sequences, "_u_pair", no_pair)
    return indices


class TestModularWalk:
    def check_walk(self, params, indices, terms):
        for n in indices:
            exact = u_at(params, n)
            for m in WALK_MODULI:
                assert _u_terms_mod(params, [n], [m], terms) == [exact % m], (params, n, m)

    @pytest.mark.parametrize("pq, block", WALK_PAIRS)
    def test_every_walk_length_past_a_short_prefix(self, pq, block):
        params = make_params(*pq)
        terms = _u_prefix(params, 500)[:60]
        # From the last terms of the prefix (hits), then 0 to 3 whole blocks and any remainder.
        self.check_walk(params, range(58, 60 + 3 * block + 2), terms)

    @pytest.mark.parametrize("pq, block", WALK_PAIRS)
    def test_walk_with_no_prefix(self, pq, block):
        self.check_walk(make_params(*pq), range(3 * block + 2), ())

    def test_modular_read_past_the_prefix_is_one_miss(self):
        prefix, cold = make_params(-7, 3), make_params(5, -3)
        terms = _u_prefix(prefix, 40)
        for params, n, held in [(prefix, 41, terms), (prefix, 500, terms), (cold, 0, ()),
                                (cold, 500, ())]:
            start = _u_term.cache_info()
            assert _u_terms_mod(params, [n], [2**70 + 1], held) == [u_at(params, n) % (2**70 + 1)]
            info = _u_term.cache_info()
            assert (info.hits, info.misses) == (start.hits, start.misses + 1), (params, n)
        assert terms == _u_prefix(prefix, 40)

    def test_column_read_counts_one_hit_or_miss_per_term(self):
        # Indices of the prefix are reduced from it, in the order given; the
        # two past its end each walk, as one miss.
        params = make_params(-7, 3)
        terms = _u_prefix(params, 40)
        start = _u_term.cache_info()
        indices = [40, 0, 500, 7, 41, 7]
        moduli = [97, 2, 2**70 + 1, 1, 5, 2**70 + 1]
        assert _u_terms_mod(params, indices, moduli, terms) == [
            u_at(params, j) % m for j, m in zip(indices, moduli)
        ]
        info = _u_term.cache_info()
        assert (info.hits - start.hits, info.misses - start.misses) == (4, 2)
        assert _u_terms_mod(params, [3, 40, 3], [7, 7, 2], terms) == [
            u_at(params, 3) % 7, u_at(params, 40) % 7, u_at(params, 3) % 2,
        ]
        assert _u_term.cache_info()[:2] == (info.hits + 3, info.misses)  # all held: 3 hits
        assert _u_terms_mod(params, [], [], terms) == []
        with pytest.raises(ValueError):
            _u_terms_mod(params, [3, -1], [7, 7], terms)

    def test_column_matches_doubling(self):
        # Hits, misses and repeated indices, in any order, each equal their
        # doubling residue; one negative index rejects the whole column
        # before anything is counted.
        params = make_params(-7, 3)
        terms = _u_prefix(params, 40)
        indices = [41, 3, 500, 3, 40, 500, 0, 41, 2000]
        moduli = [97, 97, 2**70 + 1, 2, 2**70 + 1, 2**70 + 1, 5, 2**400 + 1, 2**61 - 1]
        assert _u_terms_mod(params, indices, moduli, terms) == [
            u_pair_mod(params, j, m)[0] for j, m in zip(indices, moduli)
        ]
        start = _u_term.cache_info()
        with pytest.raises(ValueError):
            _u_terms_mod(params, indices + [-1], moduli + [97], terms)
        assert _u_term.cache_info() == start

    @pytest.mark.parametrize("pq, block", WALK_PAIRS)
    def test_giant_steps_match_doubling(self, pq, block):
        params = make_params(*pq)
        steps = sorted({whole * block + rest for whole in WALK_BLOCKS for rest in (0, block - 1)})

        def check(start, terms):
            for n in (start + s for s in steps):
                for m in WALK_MODULI:
                    expected = u_pair_mod(params, n, m)[0] if m > 1 else 0
                    assert _u_terms_mod(params, [n], [m], terms) == [expected], (params, n, m)

        check(0, ())  # no prefix
        # Past a short prefix: hits, then walks from (U_0, U_1).
        check(58, _u_prefix(params, 500)[:60])

    def test_every_miss_walks_from_the_start(self, monkeypatch):
        # A miss walks all n steps whatever prefix is passed: none, a short
        # one, or a (1, -1) prefix cut by the default budget.
        walked = []

        def plan(steps, block, weight):
            walked.append(steps)
            return _walk_plan(steps, block, weight)

        monkeypatch.setattr(sequences, "_walk_plan", plan)
        m = 2**200 + 1

        def check(params, n, terms):
            walked.clear()
            expected = u_pair_mod(params, n, m)[0]
            assert _u_terms_mod(params, [n], [m], terms) == [expected], (params, n)
            assert walked == [n], (params, n)

        check(make_params(5, -3), 300, ())
        short = make_params(-7, 3)
        check(short, 41, _u_prefix(short, 40))
        check(short, 500, _u_prefix(short, 40))
        full = _u_prefix(FIBONACCI_PARAMS, 5000)
        assert 40 < len(full) < 5000
        check(FIBONACCI_PARAMS, len(full), full)
        check(FIBONACCI_PARAMS, 4 * len(full), full)

    @pytest.mark.parametrize("pq, block", WALK_PAIRS)
    def test_wide_moduli_match_doubling(self, monkeypatch, pq, block):
        # Moduli shaped like a ratio family's U_k^2 for (5, -3), 2,000 to
        # 15,000 bits wide, weigh a giant step 5 to 37 block steps; the last
        # one, 25,600 bits, weighs it 64, so 16 blocks take no giant step.
        weights = []

        def plan(steps, block, weight):
            weights.append(weight)
            return _walk_plan(steps, block, weight)

        monkeypatch.setattr(sequences, "_walk_plan", plan)
        params = make_params(*pq)
        moduli = [naive_u(5, -3, k) ** 2 for k in (410, 1000, 3000)]
        moduli.append(moduli[0] << (64 * sequences.GIANT_STEP_BITS - moduli[0].bit_length()) | 1)
        for m in moduli:
            for whole in (16, 17, 100, 3000):
                n = whole * block + block - 1
                assert _u_walk_mod(params, n, m) == u_pair_mod(params, n, m)[0], (m.bit_length(), n)
        assert sorted(set(weights)) == [5, 12, 37, 64]

    def test_wide_pair_long_walk(self):
        # |P| + |Q| is 41 bits wide, so a block is one step: 100,003 of them.
        params = make_params(2**40 + 1, 3)
        for m in (2**61 - 1, 2**400 + 1, 2**1500 + 1):
            assert _u_walk_mod(params, 100_003, m) == u_pair_mod(params, 100_003, m)[0], m


class TestWalkPlan:
    @pytest.mark.parametrize("block", [1, 12, 21, 32, 64])
    @pytest.mark.parametrize("whole", WALK_BLOCKS)
    def test_giant_steps_start_at_16_blocks(self, block, whole):
        for singles in (0, block - 1):
            plan = _walk_plan(whole * block + singles, block, 1)
            assert plan.singles == singles
            assert plan.giant == (isqrt(whole) if whole >= 16 else 0)
            assert plan.giant * plan.giants + plan.blocks == whole
            assert plan.blocks < max(plan.giant, 16)

    @pytest.mark.parametrize("block", [1, 12, 16, 21, 32, 64])
    def test_transition_applications_grow_as_the_square_root(self, block):
        # The proxy for a walk's cost: building the giant step, the giant
        # steps, the block steps and the single steps, for N up to 10^9.
        for i in range(37):
            steps = round(10 ** (i / 4))
            plan = _walk_plan(steps, block, 1)
            assert (plan.giant * plan.giants + plan.blocks) * block + plan.singles == steps
            assert sum(plan) <= 4 * sqrt(steps / block) + block + 2, (steps, plan)

    @pytest.mark.parametrize("weight", [1, 2, 5, 16, 37, 64, 1000])
    @pytest.mark.parametrize("block", [1, 12, 32, 64])
    def test_weighted_cost_grows_as_the_square_root(self, block, weight):
        # A giant step costs `weight` block steps; its build costs one per block.
        for i in range(37):
            steps = round(10 ** (i / 4))
            plan = _walk_plan(steps, block, weight)
            whole = plan.giant * plan.giants + plan.blocks
            assert whole * block + plan.singles == steps
            assert plan.giant < whole or plan.giant == 0  # no giant step covers the walk
            cost = plan.giant + plan.giants * weight + plan.blocks + plan.singles
            assert cost <= 4 * sqrt(steps * weight / block) + block + 2, (steps, plan)

    def test_weighted_giant_steps(self):
        # isqrt(16 * 64) = 32 blocks would cover a walk of 16 blocks, and
        # isqrt(16 * 16) = 16 would equal it: the walk takes the blocks.
        assert _walk_plan(16 * 32 + 5, 32, 64) == (0, 0, 16, 5)
        assert _walk_plan(16 * 32, 32, 16) == (0, 0, 16, 0)
        assert _walk_plan(16 * 32, 32, 15) == (15, 1, 1, 0)  # isqrt(240) = 15
        assert _walk_plan(3000 * 12, 12, 37) == (333, 9, 3, 0)  # isqrt(111,000) = 333
