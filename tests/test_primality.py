import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

import lucaskit.primality as primality_module
import lucaskit.sequences as sequences
from lucaskit import (
    BitWidthProbe,
    CapExceeded,
    FIBONACCI_PARAMS,
    NotOddPrime,
    OutOfRange,
    ResidueClass,
    Unsupported,
    UnsupportedDiscriminant,
    InternalInvariantViolation,
    LucasKitError,
    WrongResidueClass,
    divisor_sum_breakdown,
    euler_phi,
    exact_div,
    fibonacci_criterion_applies,
    fibonacci_primality_test,
    fibonacci_sum_residue_direct,
    fibonacci_sum_residue_exact,
    fibonacci_sum_residue_fast,
    is_prime_oracle,
    legendre_symbol,
    make_params,
    mersenne_primality_test,
    mersenne_sum_residue_direct,
    mersenne_sum_residue_fast,
    primitive_prime_divisor,
    proper_divisors,
    rank_of_apparition_fib,
    remark_applies,
    remark_check,
    u_pair_mod,
)
from lucaskit.congruences import CaseTag, classify_case
from lucaskit.primality import (
    CRITERION_TABLE,
    _divisor_classes,
    _factorize,
    _fib_class_counts,
    _fib_sum_classes,
    run_criterion,
)


def sieve(limit):
    # Independent oracle for primality of small n.
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return flags


@pytest.mark.parametrize("call, message", [
    (lambda: _factorize(0), "n must be >= 1, got 0"),
    (lambda: euler_phi(0), "n must be >= 1, got 0"),
    (lambda: mersenne_sum_residue_direct(1), "n must be >= 2, got 1"),
    (lambda: divisor_sum_breakdown(1), "n must be >= 2, got 1"),
    (lambda: fibonacci_sum_residue_exact(2), "n must be >= 3, got 2"),
    (lambda: fibonacci_sum_residue_fast(1), "n must be >= 5, got 1"),
    (lambda: primitive_prime_divisor(FIBONACCI_PARAMS, 0), "n must be >= 1, got 0"),
], ids=["factorize", "euler_phi", "mersenne_direct", "divisor_sum", "fib_exact", "fib_fast",
        "primitive_divisor"])
def test_input_guards(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert type(excinfo.value) is ValueError and str(excinfo.value) == message


class TestEulerPhi:
    def test_one(self):
        assert euler_phi(1) == 1

    def test_twelve(self):
        assert euler_phi(12) == 4  # {1, 5, 7, 11}

    def test_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101):
            assert euler_phi(p) == p - 1

    def test_against_gcd_count(self):
        from math import gcd

        for n in range(1, 200):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(n, k) == 1)


class TestProperDivisors:
    def test_twelve(self):
        assert proper_divisors(12) == [1, 2, 3, 4, 6]

    def test_prime(self):
        assert proper_divisors(13) == [1]

    def test_four(self):
        assert proper_divisors(4) == [1, 2]

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            proper_divisors(1)

    def test_exhaustive(self):
        for n in range(2, 300):
            assert proper_divisors(n) == [d for d in range(1, n) if n % d == 0]


class TestDivisorClasses:
    def test_matches_divisors_and_totients(self):
        for n in range(2, 5001):
            expected = [(d, euler_phi(n // d)) for d in proper_divisors(n)]
            assert _divisor_classes(n) == expected, n


class TestLegendreSymbol:
    def test_residue(self):
        assert legendre_symbol(5, 11) == 1  # 4^2 = 16 = 5 mod 11

    def test_nonresidue(self):
        assert legendre_symbol(5, 7) == -1  # squares mod 7 are {1, 2, 4}

    def test_zero(self):
        assert legendre_symbol(14, 7) == 0

    def test_rejects_non_prime(self):
        with pytest.raises(NotOddPrime):
            legendre_symbol(3, 9)
        with pytest.raises(NotOddPrime):
            legendre_symbol(3, 2)

    def test_against_square_enumeration(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            squares = {pow(x, 2, p) for x in range(1, p)}
            for a in range(0, p):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert legendre_symbol(a, p) == expected


class TestPrimeOracle:
    def test_examples(self):
        assert is_prime_oracle(2)
        assert not is_prime_oracle(12)
        assert is_prime_oracle(8191)  # 2^13 - 1, checked by trial division

    def test_edges(self):
        assert not is_prime_oracle(0)
        assert not is_prime_oracle(1)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            is_prime_oracle(1 << 64)

    def test_against_sieve(self):
        # Past 2^16 the oracle leaves trial division for the strong-pseudoprime
        # battery; 10^5 is the top of the benchmark's mersenne-sum draws.
        flags = sieve(100_000)
        for n in range(0, 100_001):
            assert is_prime_oracle(n) == bool(flags[n]), n

    def test_large_values(self):
        assert is_prime_oracle(2**61 - 1)
        assert not is_prime_oracle((2**31 - 1) * (2**31 + 11))
        assert is_prime_oracle(18446744073709551557)  # largest prime below 2^64


class TestMersenneSum:
    def test_pinned_composite_residue(self):
        assert mersenne_sum_residue_direct(12) == ResidueClass(3354, 4095)
        assert mersenne_sum_residue_fast(12) == ResidueClass(3354, 4095)

    def test_small_composite(self):
        # terms reduce to 0, 10, 0 mod 15
        assert mersenne_sum_residue_direct(4) == ResidueClass(10, 15)
        assert mersenne_sum_residue_fast(4) == ResidueClass(10, 15)

    def test_prime(self):
        assert mersenne_sum_residue_direct(7).value == 0
        assert mersenne_sum_residue_fast(13).value == 0

    def test_smallest_input(self):
        # single term (2^2-1)/(2-1) = 3 = 0 mod 3
        assert mersenne_sum_residue_direct(2).value == 0

    def test_paths_agree(self):
        for n in range(2, 120):
            assert mersenne_sum_residue_fast(n) == mersenne_sum_residue_direct(n), n

    def test_verdicts(self):
        v = mersenne_primality_test(12)
        assert not v.criterion_says_prime and not v.oracle_says_prime and v.agree
        assert v.sum_residue.value == 3354
        v = mersenne_primality_test(7, path="direct")
        assert v.criterion_says_prime and v.agree and v.method == "mersenne-sum-direct"
        v = mersenne_primality_test(2)
        assert v.criterion_says_prime and v.agree

    def test_bad_path(self):
        with pytest.raises(ValueError):
            mersenne_primality_test(5, path="quick")

    def test_fast_path_width_stays_small(self):
        probe = BitWidthProbe()
        mersenne_sum_residue_fast(360, probe)  # highly composite
        assert probe.max_bits <= 2 * 360

    @pytest.mark.parametrize("n", [360, 5040, 14280, 18480, 19999, 20000, 65536, 99991])
    def test_fast_path_matches_division_formula(self, n):
        # The divisor-class sum as it was computed before repunits: one long
        # division per divisor, reduced term by term.
        modulus = (1 << n) - 1
        total = 0
        for d in proper_divisors(n):
            scaled = d * exact_div(modulus, (1 << d) - 1)
            total = (total + euler_phi(n // d) * (scaled % modulus)) % modulus
        assert mersenne_sum_residue_fast(n) == ResidueClass(total, modulus)

    def test_repunit_is_the_block_pattern(self):
        # The bit pattern summed block by block, a reference that shares none
        # of _repunit's doubling and no division.
        for d in range(1, 71):
            for count in range(1, 41):
                expected = sum(1 << (i * d) for i in range(count))
                assert primality_module._repunit(d, count, 1) == expected, (d, count)

    def test_repunit_spreads_a_base(self):
        # Copies of a base whose copies share no bit, summed one by one: the
        # step that builds R_d from R_{dp}, here for a base of bits below d and
        # for the repunit of count*d-bit blocks.
        for d in range(1, 25):
            for count in range(1, 20):
                for base in ((1 << d) - 1, 5 % (1 << d), primality_module._repunit(count * d, 3, 1)):
                    expected = sum(base << (i * d) for i in range(count))
                    assert primality_module._repunit(d, count, base) == expected, (d, count, base)

    @pytest.mark.parametrize("n, d", [(12, 2), (62, 31), (12, 6)])
    def test_wrong_repunit_breaks_the_invariant(self, monkeypatch, n, d):
        build = primality_module._repunit

        def wrong(e, count, base=1):
            # Drop bit d, the second block's 1, from the repunit of class d alone.
            return build(e, count, base) & ~(1 << e) if e == d else build(e, count, base)

        # R_6 of 12 is the one R_3 is spread from: the error names R_6, the
        # class whose build went wrong, and not R_3, which inherits it.
        monkeypatch.setattr(primality_module, "_repunit", wrong)
        with pytest.raises(InternalInvariantViolation, match=rf"R_{d} is not 2\^{n} - 1"):
            mersenne_sum_residue_fast(n)

    @pytest.mark.parametrize("n", [2, 12, 62, 720, 2**10, 3**6, 30030, 89 * 97])
    def test_each_repunit_is_spread_from_its_parent(self, monkeypatch, n):
        # Every R_d but R_1 is built once, from R_{dp} with p the least prime
        # of n/d: log2(p) doubling steps, where a build from a single 1 takes
        # log2(n/d). R_1 is 2^n - 1 as it is.
        build, calls = primality_module._repunit, []

        def spy(d, count, base=1):
            calls.append((d, count, base))
            return build(d, count, base)

        monkeypatch.setattr(primality_module, "_repunit", spy)
        mersenne_sum_residue_fast(n)
        modulus = (1 << n) - 1
        assert sorted(d for d, _, _ in calls) == proper_divisors(n)[1:]
        for d, count, base in calls:
            assert count == min(_factorize(n // d)), (n, d)
            assert base == modulus // ((1 << d * count) - 1), (n, d)

    @pytest.mark.parametrize("n", [*range(2, 401), 2**10, 3**6, 5**4, 30030, 89 * 97, 5040,
                                   pytest.param(55440, marks=pytest.mark.slow)])
    def test_repunit_sum_matches_division(self, n):
        # T from one long division per divisor, against the repunits spread
        # class from class. The probe's widest value, acceptance 10's measure,
        # is T itself, as every term and partial sum is positive.
        modulus = (1 << n) - 1
        expected = sum(
            d * euler_phi(n // d) * (modulus // ((1 << d) - 1)) for d in proper_divisors(n)
        )
        assert primality_module._repunit_sum(n) == expected
        probe = BitWidthProbe()
        assert mersenne_sum_residue_fast(n, probe) == ResidueClass(expected % modulus, modulus)
        assert probe.max_bits == expected.bit_length()

    def test_a_shared_probe_reads_the_widest_sum(self):
        # One probe over several n, in no order of width: after each call it
        # reads the widest T shown so far, not the last one.
        probe, widths = BitWidthProbe(), []
        for n in (360, 12, 97, 5040, 2):
            mersenne_sum_residue_fast(n, probe)
            widths.append(primality_module._repunit_sum(n).bit_length())
            assert probe.max_bits == max(widths), n
        assert probe.max_bits == widths[3] > widths[0]

    def test_fast_path_keeps_one_chain_of_repunits(self):
        # Only the repunits of the classes still to be spread from stay alive:
        # the peak is a few n-bit ints (about 13), where keeping all 119
        # repunits of 55440 would take about 830 KB.
        n = 55440
        mersenne_sum_residue_fast(n)  # first-call allocations out of the measure
        tracemalloc.start()
        try:
            mersenne_sum_residue_fast(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * n // 8, peak

    def test_rejects_small(self):
        for n in (1, 0, -3):
            with pytest.raises(ValueError, match=f"n must be >= 2, got {n}"):
                mersenne_sum_residue_fast(n)

    def test_direct_path_width_is_kn_bits(self):
        probe = BitWidthProbe()
        mersenne_sum_residue_direct(40, probe)
        assert probe.max_bits >= 39 * 40


class TestDivisorSum:
    def test_prime_total(self):
        b = divisor_sum_breakdown(5)
        assert b.total == 4 and b.is_integer

    def test_four(self):
        b = divisor_sum_breakdown(4)
        assert b.total == Fraction(8, 3) and not b.is_integer

    def test_twelve(self):
        assert not divisor_sum_breakdown(12).is_integer

    @pytest.mark.parametrize(
        "n", [*range(2, 401), 5040, 55440, pytest.param(720720, marks=pytest.mark.slow)]
    )
    def test_terms_enumerate_proper_divisors(self, n):
        # The total comes from the repunit sum over 2^n - 1; the terms, summed
        # as Fractions, are an independent route to it.
        b = divisor_sum_breakdown(n)
        assert sum((t.contribution for t in b.terms), Fraction(0)) == b.total
        assert [t.divisor for t in b.terms] == proper_divisors(n)
        assert [t.contribution for t in b.terms] == [
            Fraction(d * euler_phi(n // d), (1 << d) - 1) for d in proper_divisors(n)
        ]

    def test_iff_prime_sweep(self):
        for n in range(2, 200):
            b = divisor_sum_breakdown(n)
            prime = is_prime_oracle(n)
            assert b.is_integer == prime, n
            if prime:
                assert b.total == n - 1


class TestFibonacciSum:
    def test_direct_prime_examples(self):
        assert fibonacci_sum_residue_direct(5).value == 0
        assert fibonacci_sum_residue_direct(7).value == 0

    def test_direct_composite_value(self):
        # frozen from the exact full-width oracle
        assert fibonacci_sum_residue_direct(21) == ResidueClass(10104, 10946)

    def test_direct_matches_exact_oracle(self):
        for n in range(3, 81):
            assert fibonacci_sum_residue_direct(n) == fibonacci_sum_residue_exact(n), n

    @pytest.mark.parametrize(
        "n, residue",
        [
            (3, ResidueClass(0, 2)),  # the smallest modulus, F_3 = 2
            (4, ResidueClass(0, 3)),  # k = 2 walks U_4(0, 1): L_2 = 3 = 0 mod F_4
            # 3 | n, so F_n is even
            (6, ResidueClass(4, 8)),
            (12, ResidueClass(108, 144)),
            (15, ResidueClass(0, 610)),
            (18, ResidueClass(1976, 2584)),
            # The single-term reads of n = 3, 5, 7 end on a 1-digit, of 4,
            # 6 and 8 on a 0-digit; n = 3 walks no digit before its last.
            (5, ResidueClass(0, 5)),
            (7, ResidueClass(0, 13)),
            (8, ResidueClass(7, 21)),
        ],
    )
    def test_direct_edges(self, n, residue):
        assert fibonacci_sum_residue_exact(n) == residue
        assert fibonacci_sum_residue_direct(n) == residue

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 21, 64])
    def test_direct_reads_one_term_per_k_from_the_plain_pair(self, monkeypatch, n):
        # The sum's cost: n - 1 single-term reads of index n mod F_n, one per
        # k, from the plain pair (L_k mod F_n, (-1)^k). It builds no
        # LucasParams and walks no pair, by u_pair_mod or otherwise.
        built, reads = [], []
        real_init, real_read = sequences.LucasParams.__init__, primality_module._u_single

        def init(self, p, q):
            built.append((p, q))
            real_init(self, p, q)

        def read(p, q, index, m=None):
            reads.append((p, q, index, m))
            return real_read(p, q, index, m)

        def no_pair(*args, **kwargs):
            raise AssertionError("the sum walked a pair")

        monkeypatch.setattr(sequences.LucasParams, "__init__", init)
        monkeypatch.setattr(primality_module, "_u_single", read)
        monkeypatch.setattr(sequences, "_u_pair", no_pair)
        for module in (sequences, primality_module):
            monkeypatch.setattr(module, "u_pair_mod", no_pair, raising=False)
        residue = fibonacci_sum_residue_direct(n)
        assert residue == fibonacci_sum_residue_exact(n)
        f_n = residue.modulus
        lucas = [2, 1]
        while len(lucas) < n:
            lucas.append(lucas[-1] + lucas[-2])
        assert built == []
        assert reads == [(lucas[k] % f_n, (-1) ** k, n, f_n) for k in range(1, n)]

    def test_fast_examples(self):
        assert fibonacci_sum_residue_fast(5).value == 0
        assert fibonacci_sum_residue_fast(13).value == 0
        assert fibonacci_sum_residue_fast(21) == ResidueClass(10104, 10946)

    def test_fast_wrong_class(self):
        with pytest.raises(WrongResidueClass):
            fibonacci_sum_residue_fast(7)

    def test_fast_matches_direct(self):
        for n in range(5, 120, 4):
            assert fibonacci_sum_residue_fast(n) == fibonacci_sum_residue_direct(n), n

    def test_excluded_inputs_have_zero_residue(self):
        # n = 9 and n = 25 are excluded from the criterion precisely because
        # the sum vanishes there despite both being composite; recorded here
        # without any primality claim.
        assert fibonacci_sum_residue_direct(9) == ResidueClass(0, 34)
        assert fibonacci_sum_residue_direct(25) == ResidueClass(0, 75025)


class TestFibonacciSumClasses:
    def test_matches_direct_in_every_residue_class(self):
        for n in range(3, 301):
            assert _fib_sum_classes(n) == fibonacci_sum_residue_direct(n), n

    def test_matches_exact(self):
        for n in range(3, 61):
            assert _fib_sum_classes(n) == fibonacci_sum_residue_exact(n), n

    def test_every_class_counts_its_totient_once_at_1_mod_4(self):
        for n in range(5, 501, 4):
            for d, count, odd_count in _fib_class_counts(n):
                assert abs(count) + abs(odd_count) == euler_phi(n // d), (n, d)

    def test_counts_match_a_loop_over_j(self):
        # The Moebius tallies against the per-j count they stand for: every
        # k = d*j < n with gcd(j, n/d) = 1, its case and its sign.
        for n in range(3, 200):
            expected = []
            for d in proper_divisors(n):
                counts = [0, 0]
                for j in range(1, n // d):
                    if gcd(j, n // d) == 1:
                        k = d * j
                        odd = classify_case(n, k) is CaseTag.BOTH_EVEN_ODD_QUOTIENTS
                        counts[odd] += (-1) ** ((k * n - k - n + (0 if odd else d)) // 2)
                expected.append((d, *counts))
            assert _fib_class_counts(n) == expected, n

    @pytest.mark.parametrize(
        "evaluate, ns",
        [
            (remark_check, range(3, 400, 4)),
            (fibonacci_sum_residue_fast, range(5, 400, 4)),
            (CRITERION_TABLE["fib-sum"].diagnostic.evaluate, range(3, 200)),
        ],
        ids=["remark", "fib-sum", "fib-sum --diagnostic"],
    )
    def test_reads_no_term_of_the_direct_sum(self, monkeypatch, evaluate, ns):
        # These read signed divisor classes: a return to the direct path's
        # n - 1 single-term reads, about n^2.9 in all, fails here.
        def no_read(*args):
            raise AssertionError("a single-term read of the direct sum")

        monkeypatch.setattr(primality_module, "_u_single", no_read)
        for n in ns:
            evaluate(n)

    def test_each_diagnostic_reports_its_own_path(self):
        assert CRITERION_TABLE["fib-sum"].diagnostic.evaluate is _fib_sum_classes
        direct = CRITERION_TABLE["fib-sum-direct"].diagnostic.evaluate
        assert direct is fibonacci_sum_residue_direct


class TestFibonacciCriterion:
    def test_prime(self):
        v = fibonacci_primality_test(13)
        assert v.criterion_says_prime and v.oracle_says_prime and v.agree
        assert v.sum_residue.value == 0

    def test_composite(self):
        v = fibonacci_primality_test(33)
        assert not v.criterion_says_prime and v.agree
        assert v.sum_residue == ResidueClass(2653334, 3524578)

    def test_direct_path(self):
        v = fibonacci_primality_test(21, path="direct")
        assert v.method == "fib-sum-direct" and v.agree

    def test_excluded_inputs(self):
        for n in (9, 25):
            with pytest.raises(Unsupported):
                fibonacci_primality_test(n)

    def test_wrong_class(self):
        for n in (7, 12, 1):
            with pytest.raises(Unsupported):
                fibonacci_primality_test(n)


class TestCriterionPreconditions:
    def test_fibonacci_rule(self):
        for n in range(-40, 400):
            expected = n % 4 == 1 and n >= 5 and n not in (9, 25)
            assert fibonacci_criterion_applies(n) == expected, n

    def test_remark_rule(self):
        for n in range(-40, 400):
            assert remark_applies(n) == (n % 4 == 3 and n >= 3), n

    def test_messages(self):
        with pytest.raises(Unsupported, match=r"n not in \{9, 25\}; got -3$"):
            fibonacci_primality_test(-3)
        with pytest.raises(WrongResidueClass, match="^n = 4 is not congruent to 3 mod 4$"):
            remark_check(4)
        # -1 = 3 mod 4 but F_-1 is no modulus: the direct sum's own message.
        with pytest.raises(
            ValueError, match="^n must be >= 3 so the modulus F_n exceeds 1, got -1$"
        ):
            remark_check(-1)

    @pytest.mark.parametrize(
        "name", [name for name, c in CRITERION_TABLE.items() if not all(map(c.applies, range(64)))]
    )
    def test_runner_refuses_outside_the_domain(self, name):
        # Every criterion that can reject an n names why; none lacks a refusal.
        criterion = CRITERION_TABLE[name]
        n = next(n for n in range(64) if not criterion.applies(n))
        with pytest.raises((LucasKitError, ValueError)):
            run_criterion(criterion, n)


class TestRemark:
    def test_prime_instance(self):
        assert remark_check(7)

    def test_composite_instance(self):
        assert remark_check(15)

    def test_smallest(self):
        # F_3/F_1 + F_6/F_2 = 2 + 8 = 10 = 0 mod F_3 = 2
        assert remark_check(3)

    def test_wrong_class(self):
        with pytest.raises(WrongResidueClass):
            remark_check(5)

    def test_sweep(self):
        for n in range(3, 120):
            if n % 4 == 3:
                assert remark_check(n), n


class TestPrimitivePrimeDivisor:
    def test_the_exception(self):
        assert primitive_prime_divisor(FIBONACCI_PARAMS, 12) is None

    def test_f10(self):
        # F_10 = 55 = 5*11 and 5 already divides F_5
        assert primitive_prime_divisor(FIBONACCI_PARAMS, 10) == 11

    def test_small_exceptions(self):
        for n in (1, 2, 6):
            assert primitive_prime_divisor(FIBONACCI_PARAMS, n) is None

    def test_f7(self):
        assert primitive_prime_divisor(FIBONACCI_PARAMS, 7) == 13

    def test_requires_positive_discriminant(self):
        with pytest.raises(UnsupportedDiscriminant):
            primitive_prime_divisor(make_params(1, 1), 5)
        with pytest.raises(UnsupportedDiscriminant):
            primitive_prime_divisor(make_params(2, 1), 5)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            primitive_prime_divisor(FIBONACCI_PARAMS, 29, cap=10)  # F_29 = 514229 is prime

    def test_other_sequences(self):
        # U_n(3, 2) = 2^n - 1: primitive divisor of 2^4 - 1 = 15 is 5
        mer = make_params(3, 2)
        assert primitive_prime_divisor(mer, 4) == 5
        assert primitive_prime_divisor(mer, 6) is None  # 63 = 3^2 * 7; 3 | U_2, 7 | U_3


class TestRankOfApparition:
    def test_examples(self):
        assert rank_of_apparition_fib(11) == 10
        assert rank_of_apparition_fib(7) == 8
        assert rank_of_apparition_fib(3) == 4

    def test_unsupported(self):
        with pytest.raises(Unsupported):
            rank_of_apparition_fib(5)
        with pytest.raises(Unsupported):
            rank_of_apparition_fib(2)

    def test_rejects_composite(self):
        with pytest.raises(NotOddPrime):
            rank_of_apparition_fib(21)

    def test_divides_bound_up_to_300(self):
        for p in range(3, 300):
            if p == 5 or not is_prime_oracle(p):
                continue
            rank = rank_of_apparition_fib(p)
            assert (p - legendre_symbol(5, p)) % rank == 0

    def test_no_index_within_the_limit(self):
        # F_1, F_2, F_3 = 1, 1, 2; the first multiple of 7 is F_8 = 21.
        assert primality_module._apparition_index(FIBONACCI_PARAMS, 7, 3) is None

    @pytest.mark.parametrize("index, message", [
        (None, "no Fibonacci index at or below 8 is divisible by 7"),
        (3, "rank 3 of p = 7 does not divide 8"),
    ], ids=["no_index", "rank_not_dividing_bound"])
    def test_invariant_violations(self, monkeypatch, index, message):
        monkeypatch.setattr(primality_module, "_apparition_index", lambda params, p, limit: index)
        with pytest.raises(InternalInvariantViolation) as excinfo:
            rank_of_apparition_fib(7)
        assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# Long sweeps (pytest -m slow)
# ---------------------------------------------------------------------------


def fibonacci_sum_residue_joint(n):
    # The direct path's earlier formulation, kept as a differential oracle:
    # F_kn mod F_k*F_n by index doubling, then the exact quotient by F_k,
    # which survives reduction mod F_n.
    fib = [0, 1]
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])
    f_n = fib[n]
    total = 0
    for k in range(1, n):
        f_k = fib[k]
        rem, _ = u_pair_mod(FIBONACCI_PARAMS, k * n, f_k * f_n)
        assert rem % f_k == 0, (n, k)
        total = (total + rem // f_k) % f_n
    return ResidueClass(total, f_n)


@pytest.mark.slow
class TestCriterionSweeps:
    def test_fibonacci_direct_matches_the_joint_modulus_form_up_to_400(self):
        for n in range(3, 401):
            assert fibonacci_sum_residue_direct(n) == fibonacci_sum_residue_joint(n), n

    def test_mersenne_direct_matches_fast_over_the_queries_range(self):
        for n in range(2, 301):
            assert mersenne_sum_residue_direct(n) == mersenne_sum_residue_fast(n), n

    def test_mersenne_criterion_over_the_benchmark_range(self):
        for n in range(2, 20001):
            assert mersenne_primality_test(n).agree, n

    def test_fibonacci_classes_match_direct_up_to_2000(self):
        for n in range(3, 2001):
            assert _fib_sum_classes(n) == fibonacci_sum_residue_direct(n), n

    def test_every_class_vanishes_at_3_mod_4_up_to_10000(self):
        for n in range(3, 10001, 4):
            assert all(counts == [0, 0] for _, *counts in _fib_class_counts(n)), n

    def test_fibonacci_criterion_up_to_4000(self):
        for n in range(5, 4001):
            if fibonacci_criterion_applies(n):
                assert fibonacci_primality_test(n).agree, n
