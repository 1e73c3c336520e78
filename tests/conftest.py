from math import gcd

import pytest

from lucaskit import make_params
import lucaskit.sequences as sequences
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
    # Empty the term table (one (P, Q) under one budget; a new pair replaces it)
    # before and after the test, so no read finds another test's terms.
    _u_term.cache_clear()
    yield
    _u_term.cache_clear()


@pytest.fixture
def small_tables(fresh_tables, monkeypatch):
    # About 60 stored terms in the table, so indices up to 150 walk past it.
    monkeypatch.setattr(sequences, "TABLE_BITS", 20_000)
