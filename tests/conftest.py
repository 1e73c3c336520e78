from math import gcd

import pytest

from lucaskit import make_params
from lucaskit.sequences import _u_term

# P in 1..5, Q in -3..3, coprime pairs only: the shared coefficient grid.


@pytest.fixture(scope="session")
def param_grid():
    return [
        make_params(p, q)
        for p in range(1, 6)
        for q in range(-3, 4)
        if gcd(p, abs(q)) == 1
    ]


@pytest.fixture
def fresh_tables():
    # Empty term tables before and after the test, so budgets start from zero.
    _u_term.cache_clear()
    yield
    _u_term.cache_clear()
