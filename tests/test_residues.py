import pytest

from lucaskit import TRIVIAL_MODULUS, BadModulus, ResidueClass, pow_signed_mod


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
