"""Formula-vs-oracle agreement beyond the pinned acceptance cases,
covering every flat dimension of the small spaces (in particular the
coisotropic r > m branch), more odd primes and larger fields.  Each case
checks the three routes: the torus-weight oracle, the dense kernel on the
whole incidence matrix, and the formula."""

import pytest

from polarank.dimensions import rank_point_flat
from polarank.gf import build_field
from polarank.geometry import SymplecticSpace
from polarank.incidence import build_incidence
from polarank.ranks import rank_mod_p
from polarank.torus import torus_rank


@pytest.mark.parametrize(
    "m,p,t,r",
    [
        (2, 3, 1, 1),
        (2, 3, 1, 2),
        (2, 3, 1, 3),
        (3, 3, 1, 1),
        (3, 3, 1, 2),
        (3, 3, 1, 3),
        (3, 3, 1, 4),
        (3, 3, 1, 5),
        (2, 5, 1, 2),
        (2, 5, 1, 3),
        (2, 3, 2, 2),
        (2, 3, 2, 3),
        (2, 13, 1, 2),
        (2, 7, 1, 2),
    ],
)
def test_formula_matches_matrix_oracle(m, p, t, r):
    space = SymplecticSpace(m, build_field(p, t))
    oracle = torus_rank(space, r)
    assert oracle.rank == rank_mod_p(build_incidence(space, r)) == rank_point_flat(m, p, t, r)
    assert oracle.torus_order == (p**t - 1) ** m
    # the solved classes hold the (q-1)^m / 2 characters of even sum
    assert sum(c["class_size"] for c in oracle.classes) == oracle.torus_order // 2


def test_w53_all_flat_ranks_frozen():
    """The full rank profile of W(5,3), both branches of the formula."""
    assert [rank_point_flat(3, 3, 1, r) for r in range(1, 6)] == [
        364,  # points vs points
        343,  # isotropic planes
        196,  # Lagrangian 3-spaces (signed branch)
        112,  # perps of isotropic planes
        22,   # perps of points
    ]
