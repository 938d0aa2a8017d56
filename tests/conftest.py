import functools

import pytest

from polarank.dimensions import dim_Y_signed, dim_Y_unsigned
from polarank.gf import build_field
from polarank.geometry import SymplecticSpace
from polarank.posets import HType, SignedHType


@pytest.fixture(scope="session")
def w33_space():
    return SymplecticSpace(2, build_field(3, 1))


@pytest.fixture(scope="session")
def w53_space():
    return SymplecticSpace(3, build_field(3, 1))


@pytest.fixture(scope="session")
def ideal_sum_rank():
    """The rank by its definition, (2m-r)^t ideal elements: the reference.

    1 + dim_Y_signed of ((m,...,m), all positions) for r = m, and
    1 + dim_Y_unsigned of (2m-r, ..., 2m-r) for any other r.
    """

    @functools.lru_cache(maxsize=None)
    def rank(m, p, t, r):
        if r == m:
            top = HType(m, p, t, (m,) * t, 0)
            assert top.j_set() == frozenset(range(t))
            return 1 + dim_Y_signed(SignedHType(top, top.j_set()))
        return 1 + dim_Y_unsigned(HType(m, p, t, (2 * m - r,) * t, 0))

    return rank
