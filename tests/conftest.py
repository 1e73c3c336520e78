from math import gcd

import pytest

from lucaskit import make_params

# P in 1..5, Q in -3..3, coprime pairs only: the shared coefficient grid.


@pytest.fixture(scope="session")
def param_grid():
    return [
        make_params(p, q)
        for p in range(1, 6)
        for q in range(-3, 4)
        if gcd(p, abs(q)) == 1
    ]
