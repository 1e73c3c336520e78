"""Value semantics of the library's records.

Every record is immutable, equal and hashed by its fields, printed as
`Name(field=value, ...)`, and survives pickle and copy. The three validated
values (`LucasParams`, `ResidueClass`, the `TrivialModulus` marker) keep
their checks and messages.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from lucaskit import (
    TRIVIAL_MODULUS,
    BadModulus,
    CaseTag,
    CoprimalityViolation,
    DivisorSumTerm,
    LucasParams,
    ResidueClass,
    TrivialModulus,
    ZeroPair,
    divisor_sum_breakdown,
    evaluate_congruence,
    make_params,
    mersenne_primality_test,
)

_MAIN_REPORT = (
    "CongruenceReport(family='main', p_coeff=1, q_coeff=-1, k=2, n=4, r=None, "
    "lhs=ResidueClass(value=0, modulus=3), rhs=ResidueClass(value=0, modulus=3), "
    "case_tag=<CaseTag.BOTH_EVEN_MIXED_QUOTIENTS: 'both_even_mixed_quotients'>, holds=True)"
)
_TRIVIAL_REPORT = (
    "CongruenceReport(family='lemma1', p_coeff=1, q_coeff=-1, k=1, n=5, r=None, "
    "lhs=TrivialModulus(), rhs=TrivialModulus(), case_tag=None, holds=True)"
)
_BREAKDOWN_6 = (
    "DivisorSumBreakdown(n=6, terms=(DivisorSumTerm(divisor=1, phi=2, "
    "contribution=Fraction(2, 1)), DivisorSumTerm(divisor=2, phi=2, "
    "contribution=Fraction(4, 3)), DivisorSumTerm(divisor=3, phi=1, "
    "contribution=Fraction(3, 7))), total=Fraction(79, 21), is_integer=False)"
)

# name: (build a value, build a different value of the same type, repr of the
# first, a field to assign to)
VALUES = {
    "LucasParams": (
        lambda: make_params(1, -1),
        lambda: LucasParams(3, 2),
        "LucasParams(p_coeff=1, q_coeff=-1, discriminant=5)",
        "discriminant",
    ),
    "ResidueClass": (
        lambda: ResidueClass(3, 7),
        lambda: ResidueClass(3, 8),
        "ResidueClass(value=3, modulus=7)",
        "value",
    ),
    "TrivialModulus": (
        lambda: TRIVIAL_MODULUS,
        lambda: ResidueClass(0, 2),
        "TrivialModulus()",
        "value",
    ),
    "CongruenceReport": (
        lambda: evaluate_congruence("main", 1, -1, 2, 4),
        lambda: evaluate_congruence("main", 1, -1, 2, 6),
        _MAIN_REPORT,
        "holds",
    ),
    "CongruenceReport-trivial": (
        lambda: evaluate_congruence("lemma1", 1, -1, 1, 5),
        lambda: evaluate_congruence("lemma1", 1, -1, 3, 5),
        _TRIVIAL_REPORT,
        "lhs",
    ),
    "PrimalityVerdict": (
        lambda: mersenne_primality_test(7),
        lambda: mersenne_primality_test(9),
        "PrimalityVerdict(n=7, method='mersenne-sum', "
        "sum_residue=ResidueClass(value=0, modulus=127), criterion_says_prime=True, "
        "oracle_says_prime=True, agree=True)",
        "agree",
    ),
    "DivisorSumTerm": (
        lambda: DivisorSumTerm(2, 2, Fraction(4, 3)),
        lambda: DivisorSumTerm(3, 1, Fraction(3, 7)),
        "DivisorSumTerm(divisor=2, phi=2, contribution=Fraction(4, 3))",
        "contribution",
    ),
    "DivisorSumBreakdown": (
        lambda: divisor_sum_breakdown(6),
        lambda: divisor_sum_breakdown(7),
        _BREAKDOWN_6,
        "total",
    ),
}
IDS = list(VALUES)


@pytest.mark.parametrize("name", IDS)
def test_equal_values_are_equal_and_hash_alike(name):
    build, build_other, _, _ = VALUES[name]
    a, b, other = build(), build(), build_other()
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other


@pytest.mark.parametrize("name", IDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    build, _, text, field = VALUES[name]
    value = build()
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text


@pytest.mark.parametrize("name", IDS)
def test_repr(name):
    build, _, text, _ = VALUES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", IDS)
@pytest.mark.parametrize("round_trip", [
    lambda v: pickle.loads(pickle.dumps(v)),
    lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "pickle-0", "copy", "deepcopy"])
def test_pickle_and_copy_round_trip(name, round_trip):
    value = VALUES[name][0]()
    again = round_trip(value)
    assert type(again) is type(value)
    assert again == value and hash(again) == hash(value) and repr(again) == repr(value)


def test_equality_needs_the_same_type():
    assert TrivialModulus() == TRIVIAL_MODULUS
    assert ResidueClass(0, 2) != TRIVIAL_MODULUS
    assert make_params(1, -1) != (1, -1, 5)
    assert ResidueClass(3, 7) != (3, 7)


def test_case_tag_survives_pickle():
    report = pickle.loads(pickle.dumps(evaluate_congruence("main", 1, -1, 2, 4)))
    assert report.case_tag is CaseTag.BOTH_EVEN_MIXED_QUOTIENTS


def test_derived_discriminant():
    params = LucasParams(p_coeff=5, q_coeff=-3)
    assert (params.p_coeff, params.q_coeff, params.discriminant) == (5, -3, 37)
    with pytest.raises(TypeError):
        LucasParams(5, -3, 37)


@pytest.mark.parametrize("call, error, message", [
    (lambda: LucasParams(0, 0), ZeroPair, "(P, Q) = (0, 0) defines no usable sequence"),
    (lambda: make_params(2, 4), CoprimalityViolation,
     "P = 2 and Q = 4 share a factor; coprime coefficients are required"),
    (lambda: ResidueClass(1, 0), BadModulus, "modulus must exceed 1, got 0"),
    (lambda: ResidueClass(-1, 5), ValueError, "-1 is not reduced mod 5"),
    (lambda: ResidueClass(value=5, modulus=5), ValueError, "5 is not reduced mod 5"),
], ids=["zero-pair", "coprimality", "bad-modulus", "negative", "not-reduced"])
def test_validation_errors_are_unchanged(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error and str(excinfo.value) == message
