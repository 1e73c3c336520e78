"""Normalized residues, the trivial-modulus outcome, and exact-arithmetic helpers."""

from __future__ import annotations

from .errors import BadModulus, InternalInvariantViolation

_set = object.__setattr__  # how __init__ sets a field past the frozen __setattr__


def _int_text(x: int) -> str:
    """x for an error message, in decimal up to 256 bits: str() refuses past 4300 digits."""
    bits = x.bit_length()
    return str(x) if bits <= 256 else f"a {'negative ' if x < 0 else ''}{bits}-bit integer"


class _Value:
    """An immutable value whose fields are its __slots__, set once in __init__.

    _args gives the arguments __init__ builds the value from, which decide
    every field. Equality (with a value of the same class only) and hash
    compare them, and pickle and copy call the class on them again; repr
    shows every field.
    """

    __slots__ = ()

    def _args(self) -> tuple[object, ...]:
        return ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._args() == other._args()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._args())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type[_Value], tuple[object, ...]]:
        return self.__class__, self._args()


class ResidueClass(_Value):
    """A value together with its modulus, kept as the least nonnegative representative."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int) -> None:
        if modulus <= 1:
            raise BadModulus(f"modulus must exceed 1, got {_int_text(modulus)}")
        if not 0 <= value < modulus:
            raise ValueError(f"{_int_text(value)} is not reduced mod {_int_text(modulus)}")
        _set(self, "value", value)
        _set(self, "modulus", modulus)

    def _args(self) -> tuple[int, int]:
        return self.value, self.modulus

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


class TrivialModulus(_Value):
    """Outcome of a congruence whose modulus term has magnitude 0 or 1.

    Mod 0 is undefined and mod 1 carries no information, so operations return
    this marker instead of a residue; such a congruence counts as holding.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return "trivial modulus"


TRIVIAL_MODULUS = TrivialModulus()

# Either a real residue or the trivial-modulus marker.
Outcome = ResidueClass | TrivialModulus


def exact_div(numerator: int, denominator: int) -> int:
    """Integer quotient that must leave no remainder.

    Divisibility is a theorem everywhere this is used, so a nonzero remainder
    (or a zero denominator) means the code, not the input, is wrong.
    """
    if denominator == 0:
        raise InternalInvariantViolation("exact division by a zero term")
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InternalInvariantViolation(
            f"{_int_text(numerator)} is not divisible by {_int_text(denominator)}"
        )
    return quotient


def pow_signed_mod(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus, least nonnegative, for any sign of base.

    It must agree with reducing the exact power (tested).
    """
    if exponent < 0:
        raise ValueError(f"negative exponent {exponent} is not supported")
    if modulus <= 1:
        raise BadModulus(f"modulus must exceed 1, got {modulus}")
    return pow(base, exponent, modulus)
