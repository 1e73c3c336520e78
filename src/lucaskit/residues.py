"""Normalized residues, the trivial-modulus outcome, and exact-arithmetic helpers."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadModulus, InternalInvariantViolation


@dataclass(frozen=True)
class ResidueClass:
    """A value together with its modulus, kept as the least nonnegative representative."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus <= 1:
            raise BadModulus(f"modulus must exceed 1, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise ValueError(f"{self.value} is not reduced mod {self.modulus}")

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


@dataclass(frozen=True)
class TrivialModulus:
    """Outcome of a congruence whose modulus term has magnitude 0 or 1.

    Mod 0 is undefined and mod 1 carries no information, so operations return
    this marker instead of a residue; such a congruence counts as holding.
    """

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
            f"{numerator} is not divisible by {denominator}"
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
