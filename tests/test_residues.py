import pytest

from lucaskit import TRIVIAL_MODULUS, BadModulus, ResidueClass, pow_signed_mod
from lucaskit.errors import InternalInvariantViolation
from lucaskit.residues import exact_div


@pytest.mark.parametrize("call, error, message", [
    (lambda: ResidueClass(0, 1), BadModulus, "modulus must exceed 1, got 1"),
    (lambda: ResidueClass(3, 3), ValueError, "3 is not reduced mod 3"),
    (lambda: pow_signed_mod(2, 3, 1), BadModulus, "modulus must exceed 1, got 1"),
], ids=["trivial_modulus", "unreduced_value", "pow_trivial_modulus"])
def test_input_guards(call, error, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert type(excinfo.value) is error and str(excinfo.value) == message


def test_str():
    assert str(ResidueClass(3, 7)) == "3 mod 7"
    assert str(TRIVIAL_MODULUS) == "trivial modulus"


@pytest.mark.parametrize("call, error, message", [
    (lambda: exact_div(10**5000 + 1, 10**10), InternalInvariantViolation,
     "a 16610-bit integer is not divisible by 10000000000"),
    (lambda: exact_div(-(2**300) - 1, 3 << 299), InternalInvariantViolation,
     "a negative 301-bit integer is not divisible by a 301-bit integer"),
    (lambda: exact_div(7, 2), InternalInvariantViolation, "7 is not divisible by 2"),
    (lambda: ResidueClass(10**5000, 7), ValueError, "a 16610-bit integer is not reduced mod 7"),
], ids=["wide", "wide_negative", "narrow", "unreduced_wide_value"])
def test_messages_give_wide_ints_by_bit_length(call, error, message):
    # Past 4300 digits Python refuses to convert an int to decimal, so a
    # message that did would raise ValueError in place of the error.
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error and str(excinfo.value) == message
