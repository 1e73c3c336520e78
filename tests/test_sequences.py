import sys
import threading
from math import gcd

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
from lucaskit.sequences import _u_term

PELL = make_params(2, -1)


def naive_u(p, q, n):
    # Independent oracle: the recurrence written out with no library code.
    terms = [0, 1]
    while len(terms) <= n:
        terms.append(p * terms[-1] - q * terms[-2])
    return terms[n]


@st.composite
def coprime_pairs(draw, lo=-20, hi=20):
    # Repair instead of filter: divide out the gcd so every draw is usable.
    p = draw(st.integers(lo, hi))
    q = draw(st.integers(lo, hi))
    if p == 0 and q == 0:
        return 1, -1
    g = gcd(abs(p), abs(q))
    return p // g, q // g


# The wider differential space: every coprime (P, Q) with P in -8..8, Q in -9..9.
WIDE_PAIRS = [
    (p, q) for p in range(-8, 9) for q in range(-9, 10) if gcd(abs(p), abs(q)) == 1
]


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

    def test_one_instance_per_pair(self):
        assert make_params(4, -7) is make_params(4, -7)
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


def stored_bits():
    # Recount what the tables hold, by the same charge the table uses.
    return sum(
        sum(t.bit_length() + sequences.SLOT_BITS for t in terms)
        for terms in sequences._tables.values()
    )


class TestTermTable:
    @settings(deadline=None, max_examples=300)
    @given(pq=st.sampled_from(WIDE_PAIRS), n=st.integers(0, 300))
    def test_table_and_doubling_agree_with_recurrence(self, pq, n):
        params = make_params(*pq)
        assert _u_term(params, n) == u_at(params, n)
        assert u_pair_exact(params, n) == (u_at(params, n), u_at(params, n + 1))

    @pytest.mark.parametrize("pq", [(1, -1), (-3, 2), (0, 1), (1, 0), (2, 1), (-8, -9)])
    def test_first_indices_on_a_cold_table(self, fresh_tables, pq):
        params = make_params(*pq)
        for n in (2, 1, 0):
            assert _u_term(params, n) == u_at(params, n)
        assert u_pair_exact(params, 0) == (0, 1)
        assert u_pair_exact(params, 1) == (1, pq[0])
        assert u_pair_exact(params, 2) == (pq[0], u_at(params, 3))

    def test_negative_index_rejected(self, fresh_tables):
        _u_term(FIBONACCI_PARAMS, 10)
        with pytest.raises(ValueError):
            _u_term(FIBONACCI_PARAMS, -1)
        with pytest.raises(ValueError):
            u_pair_exact(FIBONACCI_PARAMS, -1)

    @pytest.mark.parametrize("pq", [(1, -1), (-7, 3), (1, 1)])
    def test_per_table_budget_and_tail_walk(self, fresh_tables, monkeypatch, pq):
        monkeypatch.setattr(sequences, "TABLE_BITS", 20_000)
        params = make_params(*pq)
        assert _u_term(params, 5000) == u_at(params, 5000)  # walked past the table
        terms = sequences._tables[pq]
        stored = len(terms)
        assert stored < 5000
        assert stored_bits() <= sequences.TABLE_BITS
        next_cost = u_at(params, stored).bit_length() + sequences.SLOT_BITS
        assert stored_bits() + next_cost > sequences.TABLE_BITS  # the table is full
        for n in (stored - 2, stored - 1, stored, stored + 1, 2 * stored):
            assert _u_term(params, n) == u_at(params, n), n
        assert len(terms) == stored  # unstored terms stay unstored

    def test_global_budget_clears_on_new_pair(self, fresh_tables, monkeypatch):
        monkeypatch.setattr(sequences, "TABLE_BITS", 20_000)
        monkeypatch.setattr(sequences, "CACHE_BITS", 50_000)
        # Open several small tables, then grow them all: the later ones must
        # stop storing at the global budget, not at their own.
        for pq in WIDE_PAIRS[:8]:
            _u_term(make_params(*pq), 10)
        for pq in WIDE_PAIRS[:8]:
            params = make_params(*pq)
            assert _u_term(params, 400) == u_at(params, 400)
            assert stored_bits() == sequences._stored_bits <= sequences.CACHE_BITS
        assert len(sequences._tables) == 8
        seen = []
        for pq in WIDE_PAIRS[:40]:
            params = make_params(*pq)
            assert _u_term(params, 400) == u_at(params, 400)
            assert _u_term(params, 37) == u_at(params, 37)
            seen.append(pq)
            assert stored_bits() == sequences._stored_bits <= sequences.CACHE_BITS
        assert len(sequences._tables) < len(seen)  # some clear happened
        assert list(sequences._tables) == seen[-len(sequences._tables):]
        for pq in seen:  # cleared pairs rebuild their tables correctly
            params = make_params(*pq)
            assert _u_term(params, 123) == u_at(params, 123)
            assert stored_bits() <= sequences.CACHE_BITS

    def test_concurrent_growth_keeps_tables_exact(self, fresh_tables):
        # Threads grow the same cold tables step by step at once; a lost or
        # doubled append would shift every later term.
        pairs = [make_params(*pq) for pq in ((1, -1), (3, -5), (-2, 7))]
        errors = []
        barrier = threading.Barrier(6, timeout=60)

        def grower(seed):
            for round_ in range(4):
                barrier.wait()
                for n in range(2, 400):
                    params = pairs[(seed + n) % len(pairs)]
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
        start = _u_term.cache_info()
        _u_term(FIBONACCI_PARAMS, 50)
        _u_term(FIBONACCI_PARAMS, 20)
        _u_term(FIBONACCI_PARAMS, 50)
        info = _u_term.cache_info()
        assert info.hits - start.hits == 2
        assert info.misses - start.misses == 1
        assert info.currsize == 51
