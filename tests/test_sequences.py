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
    make_params,
    u_at,
    u_pair_exact,
    u_pair_mod,
    v_at,
)
from lucaskit.sequences import _u_term, _u_terms_mod, _u_walk_mod, _walk_plan

PELL = make_params(2, -1)


def naive_u(p, q, n):
    # Independent oracle: the recurrence written out with no library code.
    terms = [0, 1]
    while len(terms) <= n:
        terms.append(p * terms[-1] - q * terms[-2])
    return terms[n]


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


# Doubling-walk indices: the empty walk, one step, powers of two (a single
# 1-digit), all-ones runs, and a 4096-bit index.
DOUBLING_INDICES = [
    0,
    1,
    *(1 << j for j in (1, 5, 12)),
    *((1 << j) - 1 for j in (2, 5, 12)),
    (1 << 4095) | 0x5DEECE66D << 2000 | 0xB,
]


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
            a, b = 0, 1
            for n in range(0, 201):
                for m in moduli:
                    assert u_pair_mod(params, n, m) == (a % m, b % m), (params, n, m)
                a, b = b, params.p_coeff * b - params.q_coeff * a

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
        assert u_pair_mod(params, n, m) == matrix_pair_mod(params, n, m)

    @settings(deadline=None, max_examples=100)
    @given(pq=wide_coprime_pairs, n=st.integers(0, 300))
    def test_wide_pairs_exact_agree_with_the_recurrence(self, pq, n):
        params = make_params(*pq)
        assert u_pair_exact(params, n) == (u_at(params, n), u_at(params, n + 1))


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
    def test_u_at_is_linear(self):
        counter = OpCounter()
        u_at(FIBONACCI_PARAMS, 500, counter)
        assert counter.mults == 1000  # two multiplications per step

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
        # 5 multiplications per binary digit of n and 1 more per 1-digit
        counter = OpCounter()
        u_pair_mod(FIBONACCI_PARAMS, n, 10**9 + 7, counter)
        assert counter.mults == 5 * n.bit_length() + bin(n).count("1")
        u_pair_mod(PELL, n, 2**64 - 59, counter)
        assert counter.mults == 2 * (5 * n.bit_length() + bin(n).count("1"))

    @pytest.mark.parametrize("params", [FIBONACCI_PARAMS, PELL, MERSENNE_PARAMS, make_params(-3, 5)])
    @pytest.mark.parametrize("n", DOUBLING_INDICES, ids=doubling_id)
    def test_pairs_agree_with_the_recurrence(self, params, n):
        m = 2**64 - 59
        pair = matrix_pair_mod(params, n, m)
        if n.bit_length() <= 64:  # u_at cannot reach the 4096-bit index
            exact = u_at(params, n), u_at(params, n + 1)
            assert u_pair_exact(params, n) == exact
            assert pair == (exact[0] % m, exact[1] % m)
        assert u_pair_mod(params, n, m) == pair


def stored_bits():
    # Recount what the table holds, by the same charge the table uses.
    return sum(
        sum(t.bit_length() + sequences.SLOT_BITS for t in terms)
        for terms in sequences._tables.values()
    )


class TestTermTable:
    @settings(deadline=None, max_examples=300)
    @given(pq=st.sampled_from(WIDE_PAIRS), n=st.integers(0, 300))
    def test_table_and_doubling_agree_with_recurrence(self, pq, n):
        params = make_params(*pq)
        sequences._u_term_reserve(params, 150)  # n past 150 is read by doubling
        assert _u_term(params, n) == u_at(params, n)
        assert u_pair_exact(params, n) == (u_at(params, n), u_at(params, n + 1))

    @pytest.mark.parametrize("pq", [(1, -1), (-3, 2), (0, 1), (1, 0), (2, 1), (-8, -9)])
    def test_first_indices_on_a_cold_table(self, fresh_tables, pq):
        params = make_params(*pq)
        for n in (2, 1, 0):
            assert _u_term(params, n) == u_at(params, n)
        assert sequences._tables == {}  # reads never store
        assert u_pair_exact(params, 0) == (0, 1)
        assert u_pair_exact(params, 1) == (1, pq[0])
        assert u_pair_exact(params, 2) == (pq[0], u_at(params, 3))

    def test_negative_index_rejected(self, fresh_tables):
        sequences._u_term_reserve(FIBONACCI_PARAMS, 10)
        with pytest.raises(ValueError):
            _u_term(FIBONACCI_PARAMS, -1)
        with pytest.raises(ValueError):
            u_pair_exact(FIBONACCI_PARAMS, -1)

    @pytest.mark.parametrize("pq", [(1, -1), (-7, 3), (1, 1)])
    def test_reserve_stops_at_the_budget_and_reads_past_it_double(
        self, fresh_tables, monkeypatch, pq
    ):
        monkeypatch.setattr(sequences, "TABLE_BITS", 20_000)
        params = make_params(*pq)
        sequences._u_term_reserve(params, 5000)
        terms = sequences._tables[pq]
        stored = len(terms)
        assert stored < 5000
        assert stored_bits() <= sequences.TABLE_BITS
        next_cost = u_at(params, stored).bit_length() + sequences.SLOT_BITS
        assert stored_bits() + next_cost > sequences.TABLE_BITS  # the table is full
        doubled = spy_on_doubling(monkeypatch)
        for n in (stored - 2, stored - 1, stored, stored + 1, 2 * stored, 5000):
            assert _u_term(params, n) == u_at(params, n), n
        assert doubled == [stored, stored + 1, 2 * stored, 5000]
        assert len(terms) == stored  # unstored terms stay unstored

    def test_read_past_the_table_doubles_once_and_stores_nothing(self, fresh_tables, monkeypatch):
        params = make_params(-7, 3)
        sequences._u_term_reserve(params, 40)
        state, start = table_state(), _u_term.cache_info()
        doubled = spy_on_doubling(monkeypatch)
        assert _u_term(params, 41) == u_at(params, 41)
        assert doubled == [41]
        assert table_state() == state
        info = _u_term.cache_info()
        assert (info.hits, info.misses) == (start.hits, start.misses + 1)

    def test_new_pair_replaces_the_table(self, fresh_tables, monkeypatch):
        # Reserves over pairs that come back: each new pair replaces the one
        # table and fills the whole budget again, whatever was read before
        # it; an exact or a column read of any pair leaves it as it is.
        monkeypatch.setattr(sequences, "TABLE_BITS", 20_000)
        pairs = WIDE_PAIRS[:5] + WIDE_PAIRS[3::-1] + WIDE_PAIRS[4:5] * 2 + WIDE_PAIRS[-3:]

        def full_length(params):
            # Terms a fresh table holds, recounted by the same charge.
            length, bits = 0, 0
            while True:
                cost = u_at(params, length).bit_length() + sequences.SLOT_BITS
                if bits + cost > sequences.TABLE_BITS:
                    return length
                length, bits = length + 1, bits + cost

        for i, pq in enumerate(pairs):
            params = make_params(*pq)
            for n in (30, 2000) if i % 2 else (2000,):
                sequences._u_term_reserve(params, n)
                assert list(sequences._tables) == [pq]
                assert stored_bits() == sequences._stored_bits <= sequences.TABLE_BITS
            state = table_state()
            assert state[0] == {pq: full_length(params)}, pq
            other = make_params(*pairs[i - 1])
            for n in (37, 0, 400, 5, 2000):
                assert _u_term(params, n) == u_at(params, n), (pq, n)
                assert _u_term(other, n) == u_at(other, n), (pq, n)
            assert _u_terms_mod(other, [3], [97]) == [u_at(other, 3) % 97]
            assert table_state() == state

    def test_concurrent_growth_keeps_tables_exact(self, fresh_tables):
        # Threads reserve the same cold tables step by step at once, and
        # replace each other's, as they alternate pairs, reading each term
        # just reserved; a lost or doubled append, or a term read from another
        # pair's table, would shift every later term.
        pairs = [make_params(*pq) for pq in ((1, -1), (3, -5), (-2, 7))]
        errors = []
        barrier = threading.Barrier(6, timeout=60)

        def grower(seed):
            for round_ in range(4):
                barrier.wait()
                for n in range(2, 400):
                    params = pairs[(seed + n) % len(pairs)]
                    sequences._u_term_reserve(params, n)
                    if _u_term(params, n) != naive_u(params.p_coeff, params.q_coeff, n):
                        errors.append((round_, params, n))
                barrier.wait()
                if seed == 0:
                    _u_term.cache_clear()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grower, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_cache_info_counts(self, fresh_tables):
        # A reserve that grows the table is one miss, a stored read one hit,
        # and a read past the table one miss.
        start = _u_term.cache_info()
        sequences._u_term_reserve(FIBONACCI_PARAMS, 50)
        _u_term(FIBONACCI_PARAMS, 20)
        _u_term(FIBONACCI_PARAMS, 50)
        _u_term(FIBONACCI_PARAMS, 51)
        sequences._u_term_reserve(FIBONACCI_PARAMS, 50)  # already stored: counts nothing
        info = _u_term.cache_info()
        assert info.hits - start.hits == 2
        assert info.misses - start.misses == 2
        assert info.currsize == 51


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
    """Record the index of every _u_pair call from now on; returns the list."""
    real, indices = sequences._u_pair, []

    def spy(params, n, m, counter):
        indices.append(n)
        return real(params, n, m, counter)

    monkeypatch.setattr(sequences, "_u_pair", spy)
    return indices


def table_state():
    return (
        {key: len(terms) for key, terms in sequences._tables.items()},
        sequences._stored_bits,
    )


class TestModularWalk:
    def check_walk(self, params, indices):
        for n in indices:
            exact = u_at(params, n)
            for m in WALK_MODULI:
                assert _u_terms_mod(params, [n], [m]) == [exact % m], (params, n, m)

    @pytest.mark.parametrize("pq, block", WALK_PAIRS)
    def test_every_walk_length_past_a_small_table(self, fresh_tables, monkeypatch, pq, block):
        monkeypatch.setattr(sequences, "TABLE_BITS", 20_000)
        params = make_params(*pq)
        sequences._u_term_reserve(params, 500)
        stored = len(sequences._tables[pq])
        assert stored < 500  # the table is full
        # From the last stored terms (hits), then 0 to 3 whole blocks and any remainder.
        self.check_walk(params, range(stored - 2, stored + 3 * block + 2))
        assert len(sequences._tables[pq]) == stored

    @pytest.mark.parametrize("pq, block", WALK_PAIRS)
    def test_walk_with_no_table(self, fresh_tables, pq, block):
        params = make_params(*pq)
        self.check_walk(params, range(3 * block + 2))
        assert sequences._tables == {}

    def test_concurrent_growth_keeps_walks_exact(self, fresh_tables):
        # Modular reads hit or walk from (U_0, U_1) while other threads grow
        # the tables by reserves or clear them; neither may read a term that
        # is not there.
        pairs = [make_params(*pq) for pq in ((1, -1), (-7, 3), (-8, -9))]
        m = 2**70 + 1
        expected = {
            params: [naive_u(params.p_coeff, params.q_coeff, n) % m for n in range(404)]
            for params in pairs
        }
        errors = []
        barrier = threading.Barrier(6, timeout=60)

        def worker(seed):
            for round_ in range(4):
                barrier.wait()
                for n in range(2, 400):
                    params = pairs[(seed + n) % len(pairs)]
                    if seed % 2:
                        sequences._u_term_reserve(params, n)
                    elif _u_terms_mod(params, [n + seed], [m]) != [expected[params][n + seed]]:
                        errors.append((round_, params, n + seed))
                barrier.wait()
                if seed == 0:
                    _u_term.cache_clear()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_modular_read_stores_nothing(self, fresh_tables):
        table, cold = make_params(-7, 3), make_params(5, -3)
        sequences._u_term_reserve(table, 40)
        for params, n in [(table, 41), (table, 500), (cold, 0), (cold, 500)]:
            state, start = table_state(), _u_term.cache_info()
            assert _u_terms_mod(params, [n], [2**70 + 1]) == [u_at(params, n) % (2**70 + 1)]
            info = _u_term.cache_info()
            assert table_state() == state, (params, n)
            assert (info.hits, info.misses) == (start.hits, start.misses + 1), (params, n)
        assert list(sequences._tables) == [(-7, 3)]
        # Exact reads never store either.
        state = table_state()
        assert _u_term(table, 500) == u_at(table, 500)
        assert _u_term(cold, 60) == u_at(cold, 60)
        assert table_state() == state

    def test_column_read_counts_one_hit_or_miss_per_term(self, fresh_tables):
        # Stored indices are reduced from the table, in the order given; the
        # two past its end each walk, as one miss; nothing is stored.
        params = make_params(-7, 3)
        sequences._u_term_reserve(params, 40)
        state, start = table_state(), _u_term.cache_info()
        indices = [40, 0, 500, 7, 41, 7]
        moduli = [97, 2, 2**70 + 1, 1, 5, 2**70 + 1]
        assert _u_terms_mod(params, indices, moduli) == [
            u_at(params, j) % m for j, m in zip(indices, moduli)
        ]
        info = _u_term.cache_info()
        assert (info.hits - start.hits, info.misses - start.misses) == (4, 2)
        assert _u_terms_mod(params, [3, 40, 3], [7, 7, 2]) == [
            u_at(params, 3) % 7, u_at(params, 40) % 7, u_at(params, 3) % 2,
        ]
        assert _u_term.cache_info()[:2] == (info.hits + 3, info.misses)  # all stored: 3 hits
        assert table_state() == state
        assert _u_terms_mod(params, [], []) == []
        with pytest.raises(ValueError):
            _u_terms_mod(params, [3, -1], [7, 7])

    def test_column_matches_doubling(self, fresh_tables):
        # Hits, misses and repeated indices, in any order, each equal their
        # doubling residue; one negative index rejects the whole column
        # before anything is counted.
        params = make_params(-7, 3)
        sequences._u_term_reserve(params, 40)
        indices = [41, 3, 500, 3, 40, 500, 0, 41, 2000]
        moduli = [97, 97, 2**70 + 1, 2, 2**70 + 1, 2**70 + 1, 5, 2**400 + 1, 2**61 - 1]
        assert _u_terms_mod(params, indices, moduli) == [
            u_pair_mod(params, j, m)[0] for j, m in zip(indices, moduli)
        ]
        start = _u_term.cache_info()
        with pytest.raises(ValueError):
            _u_terms_mod(params, indices + [-1], moduli + [97])
        assert _u_term.cache_info() == start

    @pytest.mark.parametrize("pq, block", WALK_PAIRS)
    def test_giant_steps_match_doubling(self, fresh_tables, monkeypatch, pq, block):
        monkeypatch.setattr(sequences, "TABLE_BITS", 20_000)
        params = make_params(*pq)
        steps = sorted({whole * block + rest for whole in WALK_BLOCKS for rest in (0, block - 1)})

        def check(start):
            for n in (start + s for s in steps):
                for m in WALK_MODULI:
                    expected = u_pair_mod(params, n, m)[0] if m > 1 else 0
                    assert _u_terms_mod(params, [n], [m]) == [expected], (params, n, m)

        check(0)  # no table
        sequences._u_term_reserve(params, 500)
        stored = len(sequences._tables[pq])
        check(stored - 2)  # past a full table: hits, then walks from (U_0, U_1)
        assert len(sequences._tables[pq]) == stored

    def test_every_miss_walks_from_the_start(self, fresh_tables, monkeypatch):
        # A miss walks all n steps whatever the pair's table holds: none, a
        # partial table, or a (1, -1) table full at the default budget.
        walked = []

        def plan(steps, block, weight):
            walked.append(steps)
            return _walk_plan(steps, block, weight)

        monkeypatch.setattr(sequences, "_walk_plan", plan)
        m = 2**200 + 1

        def check(params, n):
            walked.clear()
            assert _u_terms_mod(params, [n], [m]) == [u_pair_mod(params, n, m)[0]], (params, n)
            assert walked == [n], (params, n)

        check(make_params(5, -3), 300)
        partial, full = make_params(-7, 3), FIBONACCI_PARAMS
        sequences._u_term_reserve(partial, 40)
        check(partial, 41)
        check(partial, 500)
        sequences._u_term_reserve(full, 5000)
        stored = len(sequences._tables[(1, -1)])
        assert 40 < stored < 5000
        check(full, stored)
        check(full, 4 * stored)

    @pytest.mark.parametrize("pq, block", WALK_PAIRS)
    def test_wide_moduli_match_doubling(self, fresh_tables, monkeypatch, pq, block):
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

    def test_wide_pair_long_walk(self, fresh_tables):
        # |P| + |Q| is 41 bits wide, so a block is one step: 100,003 of them.
        params = make_params(2**40 + 1, 3)
        for m in (2**61 - 1, 2**400 + 1, 2**1500 + 1):
            assert _u_walk_mod(params, 100_003, m) == u_pair_mod(params, 100_003, m)[0], m


class TestWalkPlan:
    @pytest.mark.parametrize("block", [1, 12, 21, 32, 64])
    @pytest.mark.parametrize("whole", WALK_BLOCKS)
    def test_giant_steps_start_at_16_blocks(self, block, whole):
        for singles in (0, block - 1):
            plan = _walk_plan(whole * block + singles, block)
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
            plan = _walk_plan(steps, block)
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
