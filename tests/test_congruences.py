import functools
import inspect
import random
import types
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lucaskit.congruences as congruences
import lucaskit.sequences as sequences
from lucaskit import (
    FIBONACCI_PARAMS,
    MERSENNE_PARAMS,
    CaseTag,
    FibFamily,
    InternalInvariantViolation,
    NotApplicable,
    ResidueClass,
    TRIVIAL_MODULUS,
    TrivialModulus,
    classify_case,
    corollary_ratio_rhs,
    corollary_shift_rhs,
    evaluate_congruence,
    exact_div,
    fibonacci_rhs_family,
    fibonacci_sum_residue_direct,
    fibonacci_sum_residue_exact,
    general_shift_rhs,
    lemma1_rhs,
    lemma2_rhs,
    main_lhs_exact,
    main_theorem_rhs,
    make_params,
    mersenne_ratio_lhs_exact,
    mersenne_ratio_rhs,
    mersenne_sum_residue_direct,
    parity_indicator,
    pow_signed_mod,
    ratio_lhs_exact,
    repetition_law_check,
    shifted_lhs_exact,
    u_at,
    u_pair_mod,
)
from lucaskit.congruences import FAMILY_TABLE, _evaluate_side
from lucaskit.sequences import _u_prefix, _u_terms_mod

PELL = make_params(2, -1)

# The wider differential space: every coprime (P, Q) with P in -8..8, Q in -9..9.
WIDE_PAIRS = [
    (p, q) for p in range(-8, 9) for q in range(-9, 10) if gcd(abs(p), abs(q)) == 1
]


def test_parity_indicator():
    assert parity_indicator(1) == 0
    assert parity_indicator(2) == 1
    assert parity_indicator(0) == 1


class TestClassifyCase:
    def test_odd_n(self):
        assert classify_case(7, 4) is CaseTag.ODD_N

    def test_mixed_quotients(self):
        # d = 2, quotients 3 (odd) and 2 (even)
        assert classify_case(6, 4) is CaseTag.BOTH_EVEN_MIXED_QUOTIENTS

    def test_odd_quotients(self):
        # d = 2, quotients 3 and 5, both odd
        assert classify_case(6, 10) is CaseTag.BOTH_EVEN_ODD_QUOTIENTS

    def test_even_n_odd_k(self):
        assert classify_case(6, 3) is CaseTag.EVEN_N_ODD_K

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            classify_case(0, 4)

    def test_partition_is_total(self):
        for n in range(1, 40):
            for k in range(1, 40):
                tag = classify_case(n, k)
                d = gcd(n, k)
                if tag is CaseTag.BOTH_EVEN_ODD_QUOTIENTS:
                    assert n % 2 == 0 and k % 2 == 0
                    assert (n // d) % 2 == 1 and (k // d) % 2 == 1

    def test_matches_the_definition_by_gcd(self):
        # The split reads 2-adic valuations; this is the split as stated, by d = gcd(n, k).
        for n in range(1, 130):
            for k in range(1, 130):
                d = gcd(n, k)
                if n % 2:
                    expected = CaseTag.ODD_N
                elif k % 2:
                    expected = CaseTag.EVEN_N_ODD_K
                elif (n // d) % 2 and (k // d) % 2:
                    expected = CaseTag.BOTH_EVEN_ODD_QUOTIENTS
                else:
                    expected = CaseTag.BOTH_EVEN_MIXED_QUOTIENTS
                assert classify_case(n, k) is expected, (n, k)


@pytest.mark.parametrize("family", ["main", "fib21"])
@pytest.mark.parametrize("n, k", [(7, 4), (6, 3), (6, 4), (6, 10)])  # one of each case
def test_a_single_instance_is_classified_once(monkeypatch, family, n, k):
    # The domain check classifies the instance for its report, and the
    # closed form classifies it once more; the closed form's gcd(n, k) is the
    # only gcd, and the oracle classifies nothing.
    calls = {"_case": 0, "gcd": 0}
    for name in calls:
        real = getattr(congruences, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(congruences, name, counted)
    p, q = FAMILY_TABLE[family].forced or (2, -1)
    report = evaluate_congruence(family, p=p, q=q, k=k, n=n)
    assert calls == {"_case": 2, "gcd": 1}
    assert report.holds and report.case_tag is classify_case(n, k)


class TestSignedPow:
    @settings(deadline=None, max_examples=300)
    @given(
        base=st.integers(-50, 50) | st.integers(-10**30, 10**30),
        exponent=st.integers(0, 200),
        modulus=st.integers(2, 10**9),
    )
    def test_matches_exact_power(self, base, exponent, modulus):
        assert pow_signed_mod(base, exponent, modulus) == (base**exponent) % modulus

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            pow_signed_mod(2, -1, 7)


class TestLemma1:
    def test_fibonacci_example(self):
        # RHS 3*(-1)^4 = 3 = 0 mod F_4 = 3; oracle F_12/F_4 = 48 = 0 mod 3
        assert lemma1_rhs(FIBONACCI_PARAMS, 4, 3) == ResidueClass(0, 3)

    def test_n_1_is_unit(self):
        for params in (FIBONACCI_PARAMS, MERSENNE_PARAMS, PELL):
            for k in range(3, 9):
                out = lemma1_rhs(params, k, 1)
                assert isinstance(out, ResidueClass) and out.value == 1

    def test_mersenne_example(self):
        # RHS 2*15*2^0 = 30 = 2 mod 7; oracle (2^6-1)/(2^3-1) = 9 = 2 mod 7
        assert lemma1_rhs(MERSENNE_PARAMS, 3, 2) == ResidueClass(2, 7)

    def test_trivial_modulus(self):
        assert lemma1_rhs(FIBONACCI_PARAMS, 1, 5) == TRIVIAL_MODULUS
        assert lemma1_rhs(make_params(1, 1), 3, 2) == TRIVIAL_MODULUS  # U_3(1,1) = 0

    def test_n_0(self):
        assert lemma1_rhs(FIBONACCI_PARAMS, 4, 0) == ResidueClass(0, 3)


class TestLemma2:
    def test_fibonacci_even(self):
        # RHS (-1)^4 = 1; oracle F_9 = 34 = 1 mod 3
        assert lemma2_rhs(FIBONACCI_PARAMS, 4, 2) == ResidueClass(1, 3)

    def test_n_0(self):
        # U_1 = 1, RHS Q^0 = 1
        assert lemma2_rhs(FIBONACCI_PARAMS, 4, 0) == ResidueClass(1, 3)

    def test_fibonacci_odd(self):
        # RHS F_6*(-1)^5 = -8 = 2 mod 5; oracle F_16 = 987 = 2 mod 5
        assert lemma2_rhs(FIBONACCI_PARAMS, 5, 3) == ResidueClass(2, 5)


class TestCorollaries:
    def test_ratio_matches_lemma1_example(self):
        assert corollary_ratio_rhs(FIBONACCI_PARAMS, 4, 3) == lemma1_rhs(
            FIBONACCI_PARAMS, 4, 3
        )

    def test_ratio_fibonacci(self):
        # 4*F_7*(-1)^6 = 52 = 4 mod 8; oracle F_24/F_6 = 5796 = 4 mod 8
        assert corollary_ratio_rhs(FIBONACCI_PARAMS, 6, 4) == ResidueClass(4, 8)

    def test_ratio_mersenne(self):
        # 5*2^4 = 80 = 2 mod 3; oracle (2^10-1)/3 = 341 = 2 mod 3
        assert corollary_ratio_rhs(MERSENNE_PARAMS, 2, 5) == ResidueClass(2, 3)

    def test_shift_pell_spot_check(self):
        # Pell U_3 = 5; RHS U_4*(-1)^3 = -12 = 3 mod 5; oracle U_10 = 2378 = 3 mod 5
        assert corollary_shift_rhs(PELL, 3, 3) == ResidueClass(3, 5)
        assert u_at(PELL, 10) % 5 == 3

    def test_unified_forms_match_split_forms(self, param_grid):
        for params in param_grid:
            for k in range(1, 13):
                for n in range(0, 13):
                    assert corollary_ratio_rhs(params, k, n) == lemma1_rhs(
                        params, k, n
                    ), (params, k, n)
                    assert corollary_shift_rhs(params, k, n) == lemma2_rhs(
                        params, k, n
                    ), (params, k, n)


class TestGeneralShift:
    def test_r_1_equals_shift_corollary(self, param_grid):
        for params in param_grid:
            for k in range(1, 10):
                for n in range(0, 10):
                    assert general_shift_rhs(params, k, n, 1) == corollary_shift_rhs(
                        params, k, n
                    )

    def test_fibonacci_examples(self):
        # F_3*(-1)^5 = -2 = 3 mod 5; oracle F_13 = 233 = 3 mod 5
        assert general_shift_rhs(FIBONACCI_PARAMS, 5, 2, 3) == ResidueClass(3, 5)
        # F_2*F_5*(-1)^4 = 5 = 2 mod 3; oracle F_14 = 377 = 2 mod 3
        assert general_shift_rhs(FIBONACCI_PARAMS, 4, 3, 2) == ResidueClass(2, 3)

    def test_r_0_gives_zero(self):
        # U_{kn} = 0 mod U_k
        out = general_shift_rhs(FIBONACCI_PARAMS, 5, 3, 0)
        assert out == ResidueClass(0, 5)

    @pytest.mark.parametrize("family", ["lemma1", "lemma2", "shift"])
    def test_rows_read_no_exact_term(self, monkeypatch, family):
        # The rows modulo |U_k| read U_{k+1} and each U_r mod |U_k|, by
        # doubling past the prefix: at r = 4*10^7 the exact U_r would be
        # about 28M bits, for a modulus of 5. One miss per read.
        entry = FAMILY_TABLE[family]
        shifts = (40_000_000, 7) if entry.needs_r else (None,)
        expected = [
            (ratio_lhs_exact(FIBONACCI_PARAMS, 5, n) if family == "lemma1"
             else shifted_lhs_exact(FIBONACCI_PARAMS, 5, n, r or 1)).value
            for r in shifts
            for n in (3, 4)
        ]
        real = sequences._u_single

        def modular_only(p, q, n, m=None):
            assert m is not None, "an exact term"
            return real(p, q, n, m)

        monkeypatch.setattr(sequences, "_u_single", modular_only)
        start = sequences._u_term.cache_info()
        r = shifts if entry.needs_r else None
        assert entry.closed_form(FIBONACCI_PARAMS, 5, r, [3, 4], [5, 5], ()) == expected
        info = sequences._u_term.cache_info()
        assert (info.hits - start.hits, info.misses - start.misses) == (0, 1 + len(r or ()))


class TestRepetitionLaw:
    def test_fibonacci_5(self):
        # 5 | F_5 = 5, so 25 | F_25 = 75025
        assert repetition_law_check(FIBONACCI_PARAMS, 5, 5, 1)

    def test_fibonacci_power_of_two(self):
        # 8 | F_6 = 8, so 16 | F_12 = 144
        assert repetition_law_check(FIBONACCI_PARAMS, 6, 2, 3)

    @pytest.mark.parametrize("k, n, i, message", [
        (5, 5, 0, "i must be >= 1, got 0"),
        (0, 5, 1, "indices must be >= 1, got k = 0, n = 5"),
        (5, 0, 1, "indices must be >= 1, got k = 5, n = 0"),
    ])
    def test_input_guards(self, k, n, i, message):
        with pytest.raises(ValueError) as excinfo:
            repetition_law_check(FIBONACCI_PARAMS, k, n, i)
        assert type(excinfo.value) is ValueError and str(excinfo.value) == message

    def test_hypothesis_failure_of_a_wide_term(self):
        # 11 divides F_k only for 10 | k, and F_25001 is wider than 4300 digits:
        # the message gives its bit length.
        with pytest.raises(NotApplicable) as excinfo:
            repetition_law_check(FIBONACCI_PARAMS, 25001, 11, 1)
        assert str(excinfo.value) == "11^1 does not divide U_25001 = a 17356-bit integer"

    def test_hypothesis_failure(self):
        with pytest.raises(NotApplicable):
            repetition_law_check(FIBONACCI_PARAMS, 3, 5, 1)  # 5 does not divide F_3 = 2

    def test_grid(self, param_grid):
        for params in param_grid:
            for k in range(1, 11):
                for n in range(2, 6):
                    for i in (1, 2):
                        try:
                            assert repetition_law_check(params, k, n, i), (params, k, n, i)
                        except NotApplicable:
                            pass


class TestMainTheorem:
    def test_mersenne_example(self):
        out, tag = main_theorem_rhs(MERSENNE_PARAMS, 6, 4)
        assert out == ResidueClass(42, 63)
        assert tag is CaseTag.BOTH_EVEN_MIXED_QUOTIENTS

    def test_k_1_degenerate(self):
        out, tag = main_theorem_rhs(FIBONACCI_PARAMS, 5, 1)
        assert out == ResidueClass(0, 5)
        assert tag is CaseTag.ODD_N

    def test_both_even_odd_quotients(self):
        # 2*F_3*(F_6/F_2)*(-1)^22 = 32 = 0 mod 8; oracle F_60/F_10 = 0 mod 8
        out, tag = main_theorem_rhs(FIBONACCI_PARAMS, 6, 10)
        assert out == ResidueClass(0, 8)
        assert tag is CaseTag.BOTH_EVEN_ODD_QUOTIENTS

    def test_k_multiple_of_n(self):
        # d = n degenerate branch, still matches the oracle
        for n in range(2, 8):
            for mult in (1, 2, 3):
                k = n * mult
                rhs, _ = main_theorem_rhs(FIBONACCI_PARAMS, n, k)
                if isinstance(rhs, TrivialModulus):
                    continue
                assert rhs == main_lhs_exact(FIBONACCI_PARAMS, n, k)

    def test_trivial_modulus_keeps_tag(self):
        out, tag = main_theorem_rhs(FIBONACCI_PARAMS, 2, 4)
        assert out == TRIVIAL_MODULUS
        assert tag is CaseTag.BOTH_EVEN_MIXED_QUOTIENTS


class TestFibonacciFamily:
    def test_ratio_example(self):
        assert fibonacci_rhs_family(4, 3, FibFamily.RATIO) == ResidueClass(0, 3)

    def test_shifted_example(self):
        assert fibonacci_rhs_family(4, 2, FibFamily.SHIFTED) == ResidueClass(1, 3)

    def test_main_example(self):
        assert fibonacci_rhs_family(10, 6, FibFamily.MAIN) == ResidueClass(0, 8)

    def test_accepts_plain_strings(self):
        assert fibonacci_rhs_family(4, 3, "ratio") == ResidueClass(0, 3)

    def test_agrees_with_general_operations(self):
        for k in range(1, 13):
            for n in range(0, 13):
                assert fibonacci_rhs_family(k, n, FibFamily.SHIFTED) == lemma2_rhs(
                    FIBONACCI_PARAMS, k, n
                )
                assert fibonacci_rhs_family(k, n, FibFamily.RATIO) == lemma1_rhs(
                    FIBONACCI_PARAMS, k, n
                )
                if n >= 1:
                    general, _ = main_theorem_rhs(FIBONACCI_PARAMS, n, k)
                    assert fibonacci_rhs_family(k, n, FibFamily.MAIN) == general


class TestMersenneRatio:
    def test_example(self):
        assert mersenne_ratio_rhs(6, 4) == ResidueClass(42, 63)

    def test_d_equals_n(self):
        # d = 5: 5*(2^5-1)/(2^5-1) = 5
        assert mersenne_ratio_rhs(5, 10) == ResidueClass(5, 31)

    def test_k_1(self):
        for n in range(2, 12):
            assert mersenne_ratio_rhs(n, 1).value == 0

    def test_agrees_with_general_operation(self):
        for n in range(2, 13):
            for k in range(1, 13):
                general, _ = main_theorem_rhs(MERSENNE_PARAMS, n, k)
                assert mersenne_ratio_rhs(n, k) == general

    def test_matches_exact_quotient(self):
        for n in range(2, 11):
            for k in range(1, 11):
                assert mersenne_ratio_rhs(n, k) == mersenne_ratio_lhs_exact(n, k)


class TestOracleEquivalenceGrid:
    """Closed forms vs brute force on a reduced grid; the full grid runs in
    the acceptance suite."""

    def test_reduced_grid(self, param_grid):
        for params in param_grid:
            for k in range(1, 9):
                for n in range(0, 9):
                    pairs = [
                        (lemma1_rhs(params, k, n), ratio_lhs_exact(params, k, n)),
                        (lemma2_rhs(params, k, n), shifted_lhs_exact(params, k, n)),
                    ]
                    for r in (0, 2, 5):
                        pairs.append(
                            (
                                general_shift_rhs(params, k, n, r),
                                shifted_lhs_exact(params, k, n, r),
                            )
                        )
                    if n >= 1:
                        pairs.append(
                            (
                                main_theorem_rhs(params, n, k)[0],
                                main_lhs_exact(params, n, k),
                            )
                        )
                    for rhs, lhs in pairs:
                        if isinstance(rhs, TrivialModulus):
                            assert isinstance(lhs, TrivialModulus)
                        else:
                            assert rhs == lhs, (params, k, n)

    @settings(deadline=None, max_examples=200)
    @given(
        p=st.integers(-6, 6),
        q=st.integers(-6, 6),
        k=st.integers(1, 15),
        n=st.integers(0, 15),
    )
    def test_lemma1_random(self, p, q, k, n):
        if p == 0 and q == 0:
            p, q = 1, -1
        g = gcd(abs(p), abs(q))
        params = make_params(p // g, q // g)
        rhs = lemma1_rhs(params, k, n)
        lhs = ratio_lhs_exact(params, k, n)
        if isinstance(rhs, TrivialModulus):
            assert isinstance(lhs, TrivialModulus)
        else:
            assert rhs == lhs


class TestEvaluateCongruence:
    def test_mersenne22_report(self):
        report = evaluate_congruence("mersenne22", n=6, k=4)
        assert report.holds
        assert report.lhs == report.rhs == ResidueClass(42, 63)
        assert report.p_coeff == 3 and report.q_coeff == 2

    def test_lemma1_report(self):
        report = evaluate_congruence("lemma1", p=1, q=-1, k=4, n=3)
        assert report.holds and report.rhs == ResidueClass(0, 3)

    def test_main_report_has_tag(self):
        report = evaluate_congruence("main", p=1, q=-1, k=1, n=5)
        assert report.holds and report.case_tag is CaseTag.ODD_N

    def test_trivial_holds(self):
        report = evaluate_congruence("lemma1", p=1, q=-1, k=1, n=5)
        assert report.holds and isinstance(report.rhs, TrivialModulus)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            evaluate_congruence("nope", p=1, q=-1, k=2, n=2)

    def test_general_family_needs_coefficients(self):
        with pytest.raises(ValueError):
            evaluate_congruence("lemma1", k=4, n=3)

    def test_shift_needs_r(self):
        with pytest.raises(ValueError):
            evaluate_congruence("shift", p=1, q=-1, k=4, n=3)

    def test_fib_families_force_coefficients(self):
        report = evaluate_congruence("fib20", k=4, n=3)
        assert (report.p_coeff, report.q_coeff) == (1, -1)
        assert report.holds


# ---------------------------------------------------------------------------
# One domain per family, on both sides
# ---------------------------------------------------------------------------

# Each family's public closed form and oracle, as (k, n, r) -> Outcome at (1, -1).
PUBLIC_PAIRS = {
    "lemma1": (
        lambda k, n, r: lemma1_rhs(FIBONACCI_PARAMS, k, n),
        lambda k, n, r: ratio_lhs_exact(FIBONACCI_PARAMS, k, n),
    ),
    "cor6": (
        lambda k, n, r: corollary_ratio_rhs(FIBONACCI_PARAMS, k, n),
        lambda k, n, r: ratio_lhs_exact(FIBONACCI_PARAMS, k, n),
    ),
    "lemma2": (
        lambda k, n, r: lemma2_rhs(FIBONACCI_PARAMS, k, n),
        lambda k, n, r: shifted_lhs_exact(FIBONACCI_PARAMS, k, n),
    ),
    "cor7": (
        lambda k, n, r: corollary_shift_rhs(FIBONACCI_PARAMS, k, n),
        lambda k, n, r: shifted_lhs_exact(FIBONACCI_PARAMS, k, n),
    ),
    "shift": (
        lambda k, n, r: general_shift_rhs(FIBONACCI_PARAMS, k, n, r),
        lambda k, n, r: shifted_lhs_exact(FIBONACCI_PARAMS, k, n, r),
    ),
    "main": (
        lambda k, n, r: main_theorem_rhs(FIBONACCI_PARAMS, n, k),
        lambda k, n, r: main_lhs_exact(FIBONACCI_PARAMS, n, k),
    ),
    "mersenne22": (
        lambda k, n, r: mersenne_ratio_rhs(n, k),
        lambda k, n, r: mersenne_ratio_lhs_exact(n, k),
    ),
}

# (family, k, n, r, the ValueError message both sides give)
REJECTED = [
    ("lemma1", 0, 3, None, "k must be >= 1, got 0"),
    ("lemma1", 1, -1, None, "n must be nonnegative, got -1"),  # |U_1| = 1: trivial
    ("lemma1", 3, -1, None, "n must be nonnegative, got -1"),
    ("cor6", 0, 3, None, "k must be >= 1, got 0"),
    ("cor6", 4, -2, None, "n must be nonnegative, got -2"),
    ("lemma2", -1, 2, None, "indices must be nonnegative, got k = -1, n = 2"),
    ("lemma2", 3, -1, None, "indices must be nonnegative, got k = 3, n = -1"),
    ("cor7", -2, 2, None, "indices must be nonnegative, got k = -2, n = 2"),
    ("cor7", 4, -3, None, "indices must be nonnegative, got k = 4, n = -3"),
    ("shift", 3, 2, -1, "r must be nonnegative, got -1"),  # U_5 mod |U_3| before
    ("shift", 3, -1, 2, "indices must be nonnegative, got k = 3, n = -1"),
    ("shift", -1, 2, 2, "indices must be nonnegative, got k = -1, n = 2"),
    ("main", 3, 0, None, "indices must be >= 1, got n = 0, k = 3"),
    ("main", 0, 4, None, "indices must be >= 1, got n = 4, k = 0"),
    ("main", 2, -1, None, "indices must be >= 1, got n = -1, k = 2"),
    ("mersenne22", 3, 1, None, "n must be >= 2, got 1"),
    ("mersenne22", 0, 5, None, "k must be >= 1, got 0"),
]


class TestOneDomainPerFamily:
    @pytest.mark.parametrize("family, k, n, r, message", REJECTED)
    def test_closed_form_and_oracle_reject_alike(self, family, k, n, r, message):
        for side in PUBLIC_PAIRS[family]:
            with pytest.raises(ValueError) as exc:
                side(k, n, r)
            assert str(exc.value) == message
        p, q = FAMILY_TABLE[family].forced or (1, -1)
        with pytest.raises(ValueError) as exc:
            evaluate_congruence(family, p=p, q=q, k=k, n=n, r=r)
        assert str(exc.value) == message

    @pytest.mark.parametrize("family, k, n, message", [
        ("fib19", 0, 3, "k must be >= 1, got 0"),
        ("fib19", 2, -1, "n must be nonnegative, got -1"),
        ("fib20", 0, 3, "k must be >= 1, got 0"),
        ("fib20", 3, -1, "n must be nonnegative, got -1"),
        ("fib21", 3, 0, "indices must be >= 1, got n = 0, k = 3"),
        ("fib21", 0, 3, "indices must be >= 1, got n = 3, k = 0"),
    ])
    def test_fibonacci_families_reject_alike(self, family, k, n, message):
        fib = {"fib19": FibFamily.SHIFTED, "fib20": FibFamily.RATIO, "fib21": FibFamily.MAIN}
        for call in (
            lambda: fibonacci_rhs_family(k, n, fib[family]),
            lambda: evaluate_congruence(family, k=k, n=n),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    def test_reported_shift_oracle_input(self):
        # U_{3*2-1} = U_5 = 5 = 1 mod |U_3| = 2 was returned for r = -1.
        with pytest.raises(ValueError, match="r must be nonnegative"):
            shifted_lhs_exact(make_params(1, -1), 3, 2, -1)

    def test_specialized_wrappers_equal_their_kernels(self):
        for family, public in [
            ("fib19", lambda k, n: fibonacci_rhs_family(k, n, FibFamily.SHIFTED)),
            ("fib20", lambda k, n: fibonacci_rhs_family(k, n, FibFamily.RATIO)),
            ("fib21", lambda k, n: fibonacci_rhs_family(k, n, FibFamily.MAIN)),
            ("mersenne22", lambda k, n: mersenne_ratio_rhs(n, k)),
        ]:
            entry = FAMILY_TABLE[family]
            params = make_params(*entry.forced)
            for k in range(1, 13):
                residues = []  # the closed form of every n with a residue, in n order
                for n in range(2, 13):
                    closed = _evaluate_side(family, "closed_form", params, k, n)
                    assert public(k, n) == closed, (family, k, n)
                    if isinstance(closed, ResidueClass):
                        residues.append((n, closed))
                    oracle = _evaluate_side(family, "oracle", params, k, n)
                    if family == "mersenne22":
                        assert mersenne_ratio_lhs_exact(n, k) == oracle
                    report = evaluate_congruence(family, k=k, n=n)
                    assert (report.rhs, report.lhs) == (closed, oracle), (family, k, n)
                    assert report.holds
                if residues:  # one call of the side over every such n
                    column = entry.closed_form(
                        params, k, None,
                        [n for n, _ in residues], [closed.modulus for _, closed in residues], (),
                    )
                    assert column == [closed.value for _, closed in residues], (family, k)


@pytest.mark.parametrize("family", FAMILY_TABLE)
def test_every_side_has_one_signature(family):
    # Every side is one call on a batch of n; a side modulo |U_k| wraps a formula
    # of the residues it reads once per call, U_r once per shift. A side and a
    # modulus take the pair's prefix of terms, or (), last.
    entry = FAMILY_TABLE[family]
    assert list(inspect.signature(entry.modulus).parameters) == ["params", "k", "n", "terms"]
    for side in (entry.closed_form, entry.oracle):
        signature = inspect.signature(side, follow_wrapped=False)
        assert list(signature.parameters) == ["params", "k", "r", "ns", "moduli", "terms"], side
        if hasattr(side, "__wrapped__"):
            assert side.__code__ is congruences._lemma1.__code__  # the one decorator, _mod_u_k
            formula = inspect.signature(side.__wrapped__)
            assert list(formula.parameters) == ["u_next", "q_k", "u_rs", "m", "ns"], side


def test_exact_div_flags_nonzero_remainder():
    from lucaskit import InternalInvariantViolation

    assert exact_div(144, 3) == 48
    assert exact_div(-12, 3) == -4
    with pytest.raises(InternalInvariantViolation):
        exact_div(7, 2)
    with pytest.raises(InternalInvariantViolation):
        exact_div(7, 0)


# ---------------------------------------------------------------------------
# Oracle independence: what each oracle reaches by call closure
# ---------------------------------------------------------------------------


def _reachable(fn):
    """The lucaskit functions fn reaches, itself included, and every code object they run.

    Walks the names each function's code (nested code objects included)
    loads, resolved through its module's globals, and the functions it holds
    in closure cells; a partial is walked through its func. A global of the
    same name as an attribute counts as reached too, which can only
    over-report.
    """
    seen = set()
    codes_seen = set()
    stack = [fn]
    while stack:
        f = stack.pop()
        if isinstance(f, functools.partial):
            stack.append(f.func)
            continue
        if f in seen:
            continue
        seen.add(f)
        held = [cell.cell_contents for cell in f.__closure__ or ()]
        codes = [f.__code__]
        while codes:
            code = codes.pop()
            codes_seen.add(code)
            codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            held.extend(f.__globals__.get(name) for name in code.co_names)
        stack.extend(
            target
            for target in held
            if isinstance(target, functools.partial)
            or isinstance(target, types.FunctionType)
            and target.__module__.startswith("lucaskit")
        )
    return seen, codes_seen


def _nested_codes(fn):
    codes, found = [fn.__code__], set()
    while codes:
        code = codes.pop()
        found.add(code)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


# Each closed-form side, the formula it wraps when it has one, and the code
# of both.
CLOSED_FORMS = {entry.closed_form for entry in FAMILY_TABLE.values()}
CLOSED_FORMS |= {getattr(f, "__wrapped__", f) for f in CLOSED_FORMS}
CLOSED_FORM_CODES = set().union(*map(_nested_codes, CLOSED_FORMS))


def _instance(family):
    """(params, k, n, r, modulus) of one instance of the family with a modulus over 1."""
    entry = FAMILY_TABLE[family]
    params = make_params(*(entry.forced or (2, -1)))
    k, n, r = 5, 4, 3 if entry.needs_r else None
    return params, k, n, r, entry.modulus(params, k, n, ())


def _no_doubling(*args):
    raise AssertionError("an oracle reached index doubling")


class TestOracleIndependence:
    # An oracle must not share the formula under test: no closed-form side
    # (neither its wrapper nor its formula), no Q-power, no index doubling.
    # Its context is U_k alone, read by the oracle itself.

    @pytest.mark.parametrize("family", FAMILY_TABLE)
    def test_table_oracles_reach_no_closed_form(self, family):
        oracle = FAMILY_TABLE[family].oracle
        reached, codes = _reachable(oracle)
        assert {sequences._u_walk_mod, exact_div} & reached  # the walk sees the oracle's work
        shared = {
            f.__name__
            for f in reached
            if f in CLOSED_FORMS
            or f is pow_signed_mod
            or f is sequences._u_doubling
            or "u_pair" in f.__name__
        } | {code.co_qualname for code in codes & CLOSED_FORM_CODES}
        assert not shared, (family, oracle, shared)

    @pytest.mark.parametrize("family", FAMILY_TABLE)
    def test_oracle_context_reads_u_k_only(self, family, monkeypatch):
        params, k, n, r, modulus = _instance(family)
        oracle = FAMILY_TABLE[family].oracle
        expected_residues = oracle(params, k, r and (r,), [n], [modulus], ())
        reads = []
        for name in ("_u_term", "u_at", "_u_terms_mod"):
            real = getattr(congruences, name)

            def reader(params, j, *m, real=real, name=name):
                reads.append((name, j))
                return real(params, j, *m)

            monkeypatch.setattr(congruences, name, reader)
        # No prefix, one that stops short of index k, and one that holds it.
        for stored in (0, k, 41):
            terms = _u_prefix(params, stored - 1) if stored else ()
            assert len(terms) == stored
            reads.clear()
            assert oracle(params, k, r and (r,), [n], [modulus], terms) == expected_residues
            # One call reads U_k alone of the exact terms, by the recurrence:
            # the prefix's term when it holds index k, else u_at's. It reads
            # U_{kn+shift} by one _u_terms_mod.
            assert {read for read in reads if read[0] != "_u_terms_mod"} <= {("u_at", k)}, (
                family, reads,
            )
            context = [("u_at", k)] if oracle is congruences._ratio_oracle and k >= stored else []
            assert [read for read in reads if read[0] != "_u_terms_mod"] == context, (
                family, stored, reads,
            )
            shift = 0 if family in ("lemma1", "cor6", "main", "fib20", "fib21") else r or 1
            expected = [] if family == "mersenne22" else [("_u_terms_mod", [k * n + shift])]
            assert [read for read in reads if read[0] == "_u_terms_mod"] == expected, (
                family, reads,
            )

    @pytest.mark.parametrize("prefix", [False, True], ids=["empty", "prefix"])
    @pytest.mark.parametrize("family", FAMILY_TABLE)
    def test_oracles_never_double(self, monkeypatch, family, prefix):
        # At run time: with index doubling made to raise, every oracle side
        # answers, with no prefix and with one that stops inside the column,
        # with the residues of full terms read by u_at.
        entry = FAMILY_TABLE[family]
        params = make_params(*(entry.forced or (2, -1)))
        k, r = 5, 3 if entry.needs_r else None
        ns, moduli, expected = [], [], []
        for n in range(2, 10):
            if family == "mersenne22":
                m = (1 << n) - 1
                value = exact_div((1 << k * n) - 1, (1 << k) - 1)
            elif entry.oracle is congruences._ratio_oracle:
                m = abs(u_at(params, n if entry.modulus is congruences._modulus_n else k))
                value = exact_div(u_at(params, k * n), u_at(params, k))
            else:
                m = abs(u_at(params, k))
                value = u_at(params, k * n + (r or 1))
            if m <= 1:  # no side sees a trivial modulus
                continue
            ns.append(n)
            moduli.append(m)
            expected.append(value % m)
        terms = _u_prefix(params, 25) if prefix else ()
        monkeypatch.setattr(sequences, "_u_doubling", _no_doubling)
        assert entry.oracle(params, k, r and (r,), ns, moduli, terms) == expected

    def test_exact_fibonacci_sum_never_doubles(self, monkeypatch):
        expected = {}
        for n in (3, 5, 12, 29):
            f_n = u_at(FIBONACCI_PARAMS, n)
            total = sum(
                exact_div(u_at(FIBONACCI_PARAMS, k * n), u_at(FIBONACCI_PARAMS, k))
                for k in range(1, n)
            )
            expected[n] = ResidueClass(total % f_n, f_n)
        monkeypatch.setattr(sequences, "_u_doubling", _no_doubling)
        for n, residue in expected.items():
            assert fibonacci_sum_residue_exact(n) == residue, n

    @pytest.mark.parametrize("direct", [mersenne_sum_residue_direct, fibonacci_sum_residue_direct])
    def test_direct_sum_residues_reach_no_divisor_classes(self, direct):
        reached = {f.__name__ for f in _reachable(direct)[0]}
        worker = "exact_div" if direct is mersenne_sum_residue_direct else "_u_single"
        assert worker in reached  # exact quotients, or single-term reads
        assert not {
            name for name in reached if name == "_divisor_classes" or name.startswith("_repunit")
        }


# ---------------------------------------------------------------------------
# Reduced oracles against full-width terms
# ---------------------------------------------------------------------------


def full_width_ratio(params, k, n, modulus):
    # U_kn/U_k reduced mod modulus, from full terms by u_at alone.
    if modulus <= 1:
        return TRIVIAL_MODULUS
    quotient = exact_div(u_at(params, k * n), u_at(params, k))
    return ResidueClass(quotient % modulus, modulus)


def check_reduced_oracles(pq, k, n, r):
    params = make_params(*pq)
    u_k = u_at(params, k)
    width = abs(u_k)
    assert shifted_lhs_exact(params, k, n, r) == (
        ResidueClass(u_at(params, k * n + r) % width, width) if width > 1 else TRIVIAL_MODULUS
    )
    if k < 1:
        with pytest.raises(ValueError):
            ratio_lhs_exact(params, k, n)
        return
    assert ratio_lhs_exact(params, k, n) == full_width_ratio(params, k, n, width)
    if n < 1:
        with pytest.raises(ValueError):
            main_lhs_exact(params, n, k)
        return
    modulus = abs(u_at(params, n))
    assert main_lhs_exact(params, n, k) == full_width_ratio(params, k, n, modulus)
    if u_k % n:
        with pytest.raises(NotApplicable):
            repetition_law_check(params, k, n, 1)
    else:
        assert repetition_law_check(params, k, n, 1) == (u_at(params, k * n) % n**2 == 0)


oracle_cases = given(
    pq=st.sampled_from(WIDE_PAIRS),
    k=st.integers(0, 12),
    n=st.integers(0, 12),
    r=st.integers(0, 6),
)


def edge_examples(test):
    # k = 0 and n = 0, and a negative U_k (U_2 = P = -3), every run.
    for pq, k, n, r in [
        ((1, -1), 0, 5, 2),
        ((-3, 2), 4, 0, 0),
        ((-3, 2), 2, 5, 1),
        ((-8, -9), 11, 12, 6),
    ]:
        test = example(pq=pq, k=k, n=n, r=r)(test)
    return test


class TestReducedOracles:
    @settings(deadline=None, max_examples=300)
    @oracle_cases
    @edge_examples
    def test_match_full_width_terms(self, pq, k, n, r):
        check_reduced_oracles(pq, k, n, r)

    @settings(deadline=None, max_examples=300)
    @oracle_cases
    @edge_examples
    def test_oracle_sides_match_full_width_terms_across_a_short_prefix(self, pq, k, n, r):
        # At most 60 terms in the prefix: every index from 60 on is walked.
        params = make_params(*pq)
        terms = _u_prefix(params, k * n + r)[:60]
        u_k = u_at(params, k)
        cases = [("shift", r, abs(u_k))]
        if k >= 1:
            cases.append(("lemma1", None, abs(u_k)))
        if k >= 1 and n >= 1:
            cases.append(("main", None, abs(u_at(params, n))))
        for family, shift, m in cases:
            if m <= 1:  # no side sees a trivial modulus
                continue
            if shift is None:
                value = exact_div(u_at(params, k * n), u_k)
            else:
                value = u_at(params, k * n + shift)
            oracle = FAMILY_TABLE[family].oracle
            r_arg = None if shift is None else (shift,)
            assert oracle(params, k, r_arg, [n], [m], terms) == [value % m], (family, pq, k, n)

    def test_reader_matches_recurrence_past_the_prefix(self):
        for pq in [(1, -1), (-7, 3), (1, 1)]:
            params = make_params(*pq)
            terms = _u_prefix(params, 500)[:60]
            for n in (0, 1, 59, 60, 61, 500):
                for m in (1, 2, 97, 2**70 + 1):
                    expected = u_at(params, n) % m
                    assert _u_terms_mod(params, [n], [m], terms) == [expected], (pq, n, m)


# ---------------------------------------------------------------------------
# One side call per (P, Q, k) against one-instance evaluation and full-width terms
# ---------------------------------------------------------------------------

GRID_FAMILIES = ("lemma1", "lemma2", "cor6", "cor7", "shift", "main")


def full_width_reference(family, params, k, n, r, term):
    """The family's left side reduced mod its modulus, from full terms read by term(j)."""
    modulus = abs(term(n if family == "main" else k))
    if family in ("lemma1", "cor6", "main"):
        return exact_div(term(k * n), term(k)) % modulus
    return term(k * n + (r if family == "shift" else 1)) % modulus


def check_one_call_sides(pq, k, r, order):
    """Call each side once, as the grid does, on every n with a modulus over 1, in the given order.

    A family with no such n calls each side on an empty column, which returns [] and reads
    nothing that could raise (the ratio oracle's zero U_k included).
    """
    params = make_params(*pq)
    memo = {}

    def term(j):
        if j not in memo:
            memo[j] = u_at(params, j)
        return memo[j]

    for family in GRID_FAMILIES:
        entry = FAMILY_TABLE[family]
        shift = r if entry.needs_r else None
        ns, moduli, expected = [], [], []
        for n in order:
            try:
                entry.check(k, n, shift)
            except ValueError:
                with pytest.raises(ValueError):
                    _evaluate_side(family, "closed_form", params, k, n, shift)
                continue
            single = [
                _evaluate_side(family, side, params, k, n, shift)
                for side in ("closed_form", "oracle")
            ]
            modulus = entry.modulus(params, k, n, ())
            if modulus <= 1:
                assert single == [TRIVIAL_MODULUS] * 2, (family, pq, k, n, r)
                continue
            reference = full_width_reference(family, params, k, n, shift, term)
            assert single == [ResidueClass(reference, modulus)] * 2, (family, pq, k, n, r)
            ns.append(n)
            moduli.append(modulus)
            expected.append(reference)
        r_arg = None if shift is None else (shift,)
        columns = [
            side(params, k, r_arg, ns, moduli, ()) for side in (entry.closed_form, entry.oracle)
        ]
        assert columns == [expected] * 2, (family, pq, k, r)


class TestOneCallSides:
    # One call of each side serves every n of a (P, Q, k), in any order.

    @settings(deadline=None, max_examples=60)
    @given(
        pq=st.sampled_from(WIDE_PAIRS),
        k=st.integers(1, 12),
        r=st.integers(0, 6),
        order=st.permutations(range(41)),
    )
    @example(pq=(-3, 2), k=2, r=1, order=list(range(40, -1, -1)))  # U_2 = -3
    @example(pq=(-8, -9), k=3, r=6, order=list(range(41)))  # U_3 = 73
    @example(pq=(1, 1), k=3, r=2, order=list(range(41)))  # U_3 = 0: empty ratio columns
    def test_calls_match_single_instances_and_full_terms(self, pq, k, r, order):
        check_one_call_sides(pq, k, r, order)

    @pytest.mark.parametrize("pq", [(1, -1), (-3, 2), (2, 1)])
    def test_k_0_is_trivial_and_raises_nothing(self, pq):
        # U_0 = 0: lemma2, cor7 and shift are trivial at every n and read
        # nothing; lemma1, cor6 and main reject k = 0 in their domain check.
        check_one_call_sides(pq, 0, 4, list(range(41)))
        params = make_params(*pq)
        for family, r in [("lemma2", None), ("cor7", None), ("shift", 4)]:
            report = evaluate_congruence(family, p=pq[0], q=pq[1], k=0, n=7, r=r)
            assert report.lhs == report.rhs == TRIVIAL_MODULUS and report.holds
            assert _evaluate_side(family, "oracle", params, 0, 0, r) == TRIVIAL_MODULUS


# ---------------------------------------------------------------------------
# The two formula rows modulo |U_k|, beyond the desk grid
# ---------------------------------------------------------------------------

# Every coprime (P, Q) with P in -7..7 and Q in -9..9.
ROW_PAIRS = [(p, q) for p in range(-7, 8) for q in range(-9, 10) if gcd(abs(p), abs(q)) == 1]
ROW_VARIANTS = [("lemma1", None), ("cor6", None), ("lemma2", None), ("cor7", None)] + [
    ("shift", r) for r in range(7)
]


def paper_lemma1(params, k, n):
    """Lemma 1 as the paper states it, in exact ints: n*Q^{k(n-1)/2} for odd n, else
    n*U_{k+1}*Q^{k(n-2)/2}; 0 at n = 0, where the factor n kills the term."""
    q = params.q_coeff
    if n == 0:
        return 0
    if n % 2:
        return n * q ** exact_div(k * (n - 1), 2)
    return n * u_at(params, k + 1) * q ** exact_div(k * (n - 2), 2)


def paper_lemma2(params, k, n):
    """Lemma 2 as the paper states it, in exact ints: U_{k+1}*Q^{k(n-1)/2} for odd n, else
    Q^{kn/2}."""
    q = params.q_coeff
    if n % 2:
        return u_at(params, k + 1) * q ** exact_div(k * (n - 1), 2)
    return q ** exact_div(k * n, 2)


class TestFormulaRows:
    # lemma1 and cor6 are the ratio row; lemma2, cor7 and shift the shift row.
    # Each family's closed form is checked against its oracle, and each row
    # against the paper's parity-split statement (times U_r for the shift).

    @pytest.mark.parametrize("pq", ROW_PAIRS)
    def test_rows_match_oracles_and_the_paper(self, pq):
        params = make_params(*pq)
        ns = list(range(21))
        for k in range(1, 11):
            m = abs(u_at(params, k))
            if m <= 1:
                continue
            moduli = [m] * len(ns)
            lemma1 = [paper_lemma1(params, k, n) % m for n in ns]
            lemma2 = [paper_lemma2(params, k, n) for n in ns]
            for family, r in ROW_VARIANTS:
                entry = FAMILY_TABLE[family]
                shifts = None if r is None else (r,)
                closed = entry.closed_form(params, k, shifts, ns, moduli, ())
                assert closed == entry.oracle(params, k, shifts, ns, moduli, ()), (family, pq, k)
                if entry.oracle is congruences._ratio_oracle:
                    assert closed == lemma1, (family, pq, k)
                else:
                    u_r = u_at(params, 1 if r is None else r)
                    assert closed == [u_r * value % m for value in lemma2], (family, pq, k, r)


class TestMultiShiftPass:
    # The shift row and the shifted oracle take every shift of a k in one call.
    # On shuffled, repeated n (0 included) and shifts in any order, a repeat
    # among them, each call answers shift by shift, each residue being that
    # (n, r)'s one-instance closed form and oracle; with no prefix, and with
    # one the reads run past.

    @pytest.mark.parametrize("pq", ROW_PAIRS)
    def test_matches_single_instances(self, pq):
        params = make_params(*pq)
        rng = random.Random(repr(pq))
        entry = FAMILY_TABLE["shift"]
        trivial = 0
        for k in (0, 1, 2, 3, 5, 8):
            ns = [0, 0, *rng.choices(range(1, 13), k=6)]
            rng.shuffle(ns)
            shifts = (*rng.sample(range(7), 7), rng.randrange(7))
            singles = [
                (general_shift_rhs(params, k, n, r), shifted_lhs_exact(params, k, n, r))
                for r in shifts
                for n in ns
            ]
            m = abs(u_at(params, k))
            if m <= 1:  # |U_k| is 0 or 1: every instance is trivial, and no side runs
                assert set(singles) == {(TRIVIAL_MODULUS, TRIVIAL_MODULUS)}, (pq, k)
                trivial += 1
                continue
            expected = [closed.value for closed, _ in singles]
            assert [oracle.value for _, oracle in singles] == expected, (pq, k)
            for terms in ((), _u_prefix(params, 40)):
                for side in (entry.closed_form, entry.oracle):
                    assert side(params, k, shifts, ns, [m] * len(ns), terms) == expected, (
                        pq, k, side,
                    )
        assert trivial >= 2  # k = 0 and k = 1 at least


@pytest.mark.parametrize("prefix", [0, 8, 40], ids=["none", "short", "covering"])
def test_main_counts_each_read_once(prefix):
    # main reads U_n and U_d for each n, and U_{d+1} in the odd-quotients case
    # alone: each index of the prefix is a hit, and the rest one miss each.
    params = make_params(3, -2)
    terms = _u_prefix(params, prefix) if prefix else ()
    k, ns = 6, [9, 2, 6, 5, 2]
    moduli = [abs(u_at(params, n)) for n in ns]
    indices = []
    for n in ns:
        d = gcd(n, k)
        odd_quotients = classify_case(n, k) is CaseTag.BOTH_EVEN_ODD_QUOTIENTS
        indices += [n, d, d + 1] if odd_quotients else [n, d]
    assert len(indices) > 2 * len(ns)  # some n are in the odd-quotients case
    hits = sum(j < len(terms) for j in indices)
    start = sequences._u_term.cache_info()
    residues = congruences._main(params, k, None, ns, moduli, terms)
    info = sequences._u_term.cache_info()
    assert (info.hits - start.hits, info.misses - start.misses) == (hits, len(indices) - hits)
    assert residues == [main_lhs_exact(params, n, k).value for n in ns]


class TestReducedOracleInvariants:
    @pytest.mark.parametrize("oracle", [
        lambda: ratio_lhs_exact(PELL, 3, 4),  # |U_3| = 5
        lambda: main_lhs_exact(PELL, 4, 3),  # |U_4| = 12
    ])
    def test_non_divisible_residue_raises(self, monkeypatch, oracle):
        monkeypatch.setattr(
            congruences,
            "_u_terms_mod",
            lambda params, indices, moduli, terms: [
                (u_at(params, n) + 1) % m for n, m in zip(indices, moduli)
            ],
        )
        with pytest.raises(InternalInvariantViolation):
            oracle()

    def test_zero_divisor_term_raises(self, monkeypatch):
        real = congruences.u_at
        monkeypatch.setattr(congruences, "u_at", lambda params, j: 0 if j == 3 else real(params, j))
        with pytest.raises(InternalInvariantViolation):
            main_lhs_exact(PELL, 4, 3)

    @pytest.mark.parametrize("n, k", [(3, 2), (2, 1)])  # exponents 1/2 and -1/2
    def test_main_exponent_must_be_even_and_nonnegative(self, monkeypatch, n, k):
        monkeypatch.setattr(congruences, "_case", lambda n, k: CaseTag.BOTH_EVEN_ODD_QUOTIENTS)
        with pytest.raises(InternalInvariantViolation, match="must be a nonnegative integer"):
            main_theorem_rhs(PELL, n, k)
        with pytest.raises(InternalInvariantViolation, match="must be a nonnegative integer"):
            evaluate_congruence("main", p=2, q=-1, k=k, n=n)

    @pytest.mark.parametrize("warm", [False, True])
    def test_negative_index_raises(self, warm):
        # a negative index must not read from the end of a prefix
        terms = _u_prefix(FIBONACCI_PARAMS, 10) if warm else ()
        with pytest.raises(ValueError):
            _u_terms_mod(FIBONACCI_PARAMS, [-1], [7], terms)
        with pytest.raises(ValueError):
            shifted_lhs_exact(FIBONACCI_PARAMS, 3, 1, -5)
        with pytest.raises(ValueError):
            ratio_lhs_exact(FIBONACCI_PARAMS, 3, -1)


# ---------------------------------------------------------------------------
# Long sweeps (pytest -m slow)
# ---------------------------------------------------------------------------

# k and n spread over 1..200, so kn reaches 40,000, the widest index the CLI
# query mix asks an oracle for.
SWEEP_INDICES = (1, 2, 3, 4, 7, 12, 30, 64, 101, 150, 199, 200)
SWEEP_PAIRS = [(1, -1), (3, 2), (2, -1), (-5, 7), (-8, -9)]


@pytest.mark.slow
class TestQueriesRangeSweep:
    @pytest.mark.parametrize("pq", SWEEP_PAIRS)
    def test_closed_forms_match_reduced_oracles(self, pq):
        p, q = pq
        for k in SWEEP_INDICES:
            for n in SWEEP_INDICES:
                for family, r in [
                    ("lemma1", None), ("lemma2", None), ("cor6", None), ("cor7", None),
                    ("shift", 0), ("shift", 3), ("shift", 6), ("main", None),
                ]:
                    report = evaluate_congruence(family, p=p, q=q, k=k, n=n, r=r)
                    assert report.holds, (family, pq, k, n, r)
                    assert isinstance(report.lhs, TrivialModulus) == isinstance(
                        report.rhs, TrivialModulus
                    ), (family, pq, k, n, r)

    @pytest.mark.parametrize("pq", [(1, -1), (-8, -9)])
    @pytest.mark.parametrize("k, n", [(200, 200), (199, 150), (64, 101)])
    def test_reduced_oracles_match_full_width_terms(self, pq, k, n):
        check_reduced_oracles(pq, k, n, 6)


# (k, n) whose k*n spans the oracle indices of the CLI query mix, up to 40,000,
# and two past it, up to 60,000. Every walk but the shortest takes giant steps.
WALK_KN = ((200, 200), (199, 150), (64, 101), (13, 29), (240, 250), (300, 200))


@pytest.mark.slow
class TestModularWalkSweep:
    # The recurrence walk against the doubling reference u_pair_mod, on every
    # (P, Q) of the query mix, at moduli shaped like the ratio oracle's
    # |U_k|*|U_n| and at 2^61 - 1; first with no prefix, then with one of
    # 201 terms.
    @pytest.mark.parametrize("pq", WIDE_PAIRS, ids=str)
    def test_walk_matches_doubling(self, pq):
        params = make_params(*pq)
        cases = []
        for k, n in WALK_KN:
            for m in (abs(u_at(params, k)) * abs(u_at(params, n)), 2**61 - 1):
                if m > 1:
                    cases += [(k * n, m), (k * n + 6, m)]

        def check(terms):
            for index, m in cases:
                assert _u_terms_mod(params, [index], [m], terms) == [
                    u_pair_mod(params, index, m)[0]
                ], (pq, index, m)

        check(())
        check(_u_prefix(params, 200))
