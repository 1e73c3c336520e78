"""The public surface and the purity of library results.

The names `lucaskit` exports are part of the fixed contract. Library result
values carry no wall-clock time, so one input always gives one result; only
the CLI reads a clock, for its `elapsed` and `wall_time` fields. The CLI
imports no private name of the library. The benchmark's tracer reads three
surfaces of `lucaskit.sequences`, pinned here as it looks them up.
"""

import ast
import inspect
import types

import pytest

import lucaskit
import lucaskit.cli
import lucaskit.congruences
import lucaskit.primality
import lucaskit.residues
import lucaskit.sequences
from lucaskit import mersenne_primality_test
from lucaskit.cli import run_scan

PUBLIC_NAMES = {
    # congruences
    "FAMILIES", "GENERAL_FAMILIES", "SPECIALIZED_FAMILIES", "CaseTag", "CongruenceReport",
    "FibFamily", "classify_case", "corollary_ratio_rhs", "corollary_shift_rhs",
    "evaluate_congruence", "fibonacci_rhs_family", "general_shift_rhs", "lemma1_rhs",
    "lemma2_rhs", "main_lhs_exact", "main_theorem_rhs", "mersenne_ratio_lhs_exact",
    "mersenne_ratio_rhs", "parity_indicator", "ratio_lhs_exact", "repetition_law_check",
    "shifted_lhs_exact",
    # errors
    "BadModulus", "CapExceeded", "CoprimalityViolation", "InternalInvariantViolation",
    "LucasKitError", "NotApplicable", "NotOddPrime", "OutOfRange", "Unsupported",
    "UnsupportedDiscriminant", "WrongResidueClass", "ZeroPair",
    # primality
    "BitWidthProbe", "DivisorSumBreakdown", "DivisorSumTerm", "PrimalityVerdict",
    "divisor_sum_breakdown", "euler_phi", "fibonacci_criterion_applies",
    "fibonacci_primality_test", "fibonacci_sum_residue_direct", "fibonacci_sum_residue_exact",
    "fibonacci_sum_residue_fast", "is_prime_oracle", "legendre_symbol",
    "mersenne_primality_test", "mersenne_sum_residue_direct", "mersenne_sum_residue_fast",
    "primitive_prime_divisor", "proper_divisors", "rank_of_apparition_fib", "remark_applies",
    "remark_check",
    # residues
    "TRIVIAL_MODULUS", "Outcome", "ResidueClass", "TrivialModulus", "exact_div",
    "pow_signed_mod",
    # sequences
    "FIBONACCI_PARAMS", "MERSENNE_PARAMS", "LucasParams", "OpCounter",
    "check_addition_identity", "check_norm_identity", "check_strong_divisibility",
    "check_v_from_u", "make_params", "u_at", "u_pair_exact", "u_pair_mod", "v_at",
}

CLOCK_NAMES = {"time", "perf_counter", "perf_counter_ns", "monotonic", "process_time"}


def test_public_names_are_pinned():
    exported = {
        name
        for name, value in vars(lucaskit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize(
    "module",
    [lucaskit.sequences, lucaskit.congruences, lucaskit.primality, lucaskit.residues],
    ids=lambda m: m.__name__,
)
def test_library_modules_read_no_clock(module):
    referenced = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            referenced.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            referenced.add(node.module or "")
            referenced.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
    assert not referenced & CLOCK_NAMES


def test_cli_imports_no_private_library_name():
    # The CLI reaches each library module through names that module offers,
    # so every decision stays with the module that owns it.
    private = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(inspect.getsource(lucaskit.cli)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "lucaskit")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_equal_calls_give_equal_verdicts():
    assert mersenne_primality_test(12) == mersenne_primality_test(12)


def test_scan_report_does_not_depend_on_workers():
    serial = run_scan("remark", 3, 60, 1)
    parallel = run_scan("remark", 3, 60, 2)
    assert parallel["workers"] == 2
    assert {**parallel, "workers": 1} == serial


def test_tracer_surfaces():
    # perfbench/tracer.py finds these by name, so a change that loses one
    # only shows in a traced benchmark run: it builds sequences.OpCounter,
    # hands it to u_pair_mod as `counter=` when the signature has one, and
    # reads cache_info() from every callable in vars(sequences) that has it.
    sequences = lucaskit.sequences
    assert hasattr(sequences, "OpCounter")
    assert "counter" in inspect.signature(sequences.u_pair_mod).parameters
    counter = sequences.OpCounter()
    params = sequences.make_params(1, -1)
    sequences.u_pair_mod(params, 1000, 10**9 + 7, counter=counter)
    once = counter.mults
    sequences.u_pair_mod(params, 1000, 10**9 + 7, counter=counter)
    assert once > 0 and counter.mults == 2 * once
    infos = [
        obj.cache_info()
        for obj in vars(sequences).values()
        if callable(getattr(obj, "cache_info", None))
    ]
    assert infos
    for info in infos:
        assert all(type(getattr(info, field)) is int for field in ("hits", "misses", "currsize"))
