from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings
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
    general_shift_rhs,
    lemma1_rhs,
    lemma2_rhs,
    main_lhs_exact,
    main_theorem_rhs,
    make_params,
    mersenne_ratio_lhs_exact,
    mersenne_ratio_rhs,
    parity_indicator,
    pow_signed_mod,
    ratio_lhs_exact,
    repetition_law_check,
    shifted_lhs_exact,
    u_at,
)
from lucaskit.congruences import FAMILY_TABLE, _outcome
from lucaskit.sequences import _u_term_mod

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


class TestSignedPow:
    @settings(deadline=None, max_examples=300)
    @given(
        base=st.integers(-50, 50),
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


class TestRepetitionLaw:
    def test_fibonacci_5(self):
        # 5 | F_5 = 5, so 25 | F_25 = 75025
        assert repetition_law_check(FIBONACCI_PARAMS, 5, 5, 1)

    def test_fibonacci_power_of_two(self):
        # 8 | F_6 = 8, so 16 | F_12 = 144
        assert repetition_law_check(FIBONACCI_PARAMS, 6, 2, 3)

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
                for n in range(2, 13):
                    modulus = entry.modulus(params, k, n)
                    closed = _outcome(entry.closed_form(params, k, n, None), modulus)
                    assert public(k, n) == closed, (family, k, n)
                    oracle = _outcome(entry.oracle(params, k, n, None), modulus)
                    if family == "mersenne22":
                        assert mersenne_ratio_lhs_exact(n, k) == oracle
                    report = evaluate_congruence(family, k=k, n=n)
                    assert (report.rhs, report.lhs) == (closed, oracle), (family, k, n)
                    assert report.holds


def test_exact_div_flags_nonzero_remainder():
    from lucaskit import InternalInvariantViolation

    assert exact_div(144, 3) == 48
    assert exact_div(-12, 3) == -4
    with pytest.raises(InternalInvariantViolation):
        exact_div(7, 2)
    with pytest.raises(InternalInvariantViolation):
        exact_div(7, 0)


# ---------------------------------------------------------------------------
# Reduced oracles against full-width terms
# ---------------------------------------------------------------------------


@pytest.fixture
def small_tables(fresh_tables, monkeypatch):
    # About 60 stored terms per (P, Q), so indices up to 150 walk past the table.
    monkeypatch.setattr(sequences, "TABLE_BITS", 20_000)


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

    @settings(
        deadline=None,
        max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @oracle_cases
    @edge_examples
    def test_match_full_width_terms_past_the_table(self, small_tables, pq, k, n, r):
        check_reduced_oracles(pq, k, n, r)

    def test_small_tables_walk_past_their_end(self, small_tables):
        check_reduced_oracles((-8, -9), 12, 12, 6)
        assert len(sequences._tables[(-8, -9)]) < 12 * 12

    def test_reader_matches_recurrence_past_the_table(self, small_tables):
        for pq in [(1, -1), (-7, 3), (1, 1)]:
            params = make_params(*pq)
            for n in (0, 1, 59, 60, 61, 500):
                for m in (1, 2, 97, 2**70 + 1):
                    assert _u_term_mod(params, n, m) == u_at(params, n) % m, (pq, n, m)


class TestReducedOracleInvariants:
    @pytest.mark.parametrize("oracle", [
        lambda: ratio_lhs_exact(PELL, 3, 4),  # |U_3| = 5
        lambda: main_lhs_exact(PELL, 4, 3),  # |U_4| = 12
    ])
    def test_non_divisible_residue_raises(self, monkeypatch, oracle):
        monkeypatch.setattr(
            congruences, "_u_term_mod", lambda params, n, m: (u_at(params, n) + 1) % m
        )
        with pytest.raises(InternalInvariantViolation):
            oracle()

    def test_zero_divisor_term_raises(self, monkeypatch):
        real = congruences._u_term
        monkeypatch.setattr(
            congruences, "_u_term", lambda params, j: 0 if j == 3 else real(params, j)
        )
        with pytest.raises(InternalInvariantViolation):
            main_lhs_exact(PELL, 4, 3)

    @pytest.mark.parametrize("warm", [False, True])
    def test_negative_index_raises(self, fresh_tables, warm):
        if warm:
            _u_term_mod(FIBONACCI_PARAMS, 10, 7)  # a negative index must not read from the end
        with pytest.raises(ValueError):
            _u_term_mod(FIBONACCI_PARAMS, -1, 7)
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
