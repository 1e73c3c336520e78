"""Lucas-sequence congruence toolkit.

Exact and fast-modular sequence evaluation, closed-form congruence families
paired with brute-force oracles, and sum-based primality criteria for
Mersenne and Fibonacci numbers.
"""

from .congruences import (
    FAMILIES,
    GENERAL_FAMILIES,
    SPECIALIZED_FAMILIES,
    CaseTag,
    CongruenceReport,
    FibFamily,
    classify_case,
    corollary_ratio_rhs,
    corollary_shift_rhs,
    evaluate_congruence,
    fibonacci_rhs_family,
    general_shift_rhs,
    lemma1_rhs,
    lemma2_rhs,
    main_lhs_exact,
    main_theorem_rhs,
    mersenne_ratio_lhs_exact,
    mersenne_ratio_rhs,
    parity_indicator,
    ratio_lhs_exact,
    repetition_law_check,
    shifted_lhs_exact,
)
from .errors import (
    BadModulus,
    CapExceeded,
    CoprimalityViolation,
    InternalInvariantViolation,
    LucasKitError,
    NotApplicable,
    NotOddPrime,
    OutOfRange,
    Unsupported,
    UnsupportedDiscriminant,
    WrongResidueClass,
    ZeroPair,
)
from .primality import (
    BitWidthProbe,
    DivisorSumBreakdown,
    DivisorSumTerm,
    PrimalityVerdict,
    divisor_sum_breakdown,
    euler_phi,
    fibonacci_criterion_applies,
    fibonacci_primality_test,
    fibonacci_sum_residue_direct,
    fibonacci_sum_residue_exact,
    fibonacci_sum_residue_fast,
    is_prime_oracle,
    legendre_symbol,
    mersenne_primality_test,
    mersenne_sum_residue_direct,
    mersenne_sum_residue_fast,
    primitive_prime_divisor,
    proper_divisors,
    rank_of_apparition_fib,
    remark_applies,
    remark_check,
)
from .residues import (
    TRIVIAL_MODULUS,
    Outcome,
    ResidueClass,
    TrivialModulus,
    exact_div,
    pow_signed_mod,
)
from .sequences import (
    FIBONACCI_PARAMS,
    MERSENNE_PARAMS,
    LucasParams,
    OpCounter,
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

__version__ = "0.1.0"
