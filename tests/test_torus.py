"""The torus-weight oracle's parts: point and flat orbits, and the reduction
to one character per Weyl x Frobenius class.  Its agreement with the dense
kernel and the formula is in test_crossvalidation.py."""

import itertools

import numpy as np
import pytest

from polarank import torus
from polarank.dimensions import rank_point_flat
from polarank.geometry import SymplecticSpace, enumerate_points, point_count
from polarank.gf import build_field
from polarank.incidence import build_incidence


def space(m, p, t):
    return SymplecticSpace(m, build_field(p, t))


@pytest.mark.parametrize("m,p,t", [(2, 3, 1), (3, 3, 1), (2, 5, 1), (2, 3, 2), (2, 7, 1)])
def test_point_normal_form_is_the_torus_orbit(m, p, t):
    """Orbit ids, and e with t_(zeta^e) x_O = y, against a brute-force orbit search."""
    sp = space(m, p, t)
    fld, q, n = sp.field, sp.q, sp.dim
    exp, log = torus._discrete_log(fld)
    assert sorted(exp.tolist()) == list(range(1, q))  # zeta generates GF(q)^*
    pts = enumerate_points(sp)
    orbit, kinds, exps = torus._point_orbits(sp, pts, log)
    column = {tuple(v): j for j, v in enumerate(pts.tolist())}

    def normalize(v):
        lead = next(c for c in v if c)
        return tuple(fld.mul(fld.inv(lead), c) for c in v)

    def act(k, v):  # t_(zeta^k) on a vector
        v = list(v)
        for i in range(m):
            v[i] = fld.mul(int(exp[k[i] % (q - 1)]), v[i])
            v[n - 1 - i] = fld.mul(int(exp[-k[i] % (q - 1)]), v[n - 1 - i])
        return normalize(v)

    reps = {}
    for j, o in enumerate(orbit.tolist()):
        reps.setdefault(o, j)
    for o, j in reps.items():
        members = {column[act(k, pts[j])] for k in itertools.product(range(q - 1), repeat=m)}
        assert members == set(np.flatnonzero(orbit == o).tolist())
        # t_(zeta^e_y) x_O = y for every member y, so t_(zeta^(e_y - e_j)) moves j to y
        for y in members:
            assert act((exps[y] - exps[j]).tolist(), pts[j]) == tuple(pts[y].tolist())
    assert len(kinds) == len(reps)


def class_images(alpha, p, q1):
    """alpha under the generators of the class group: a swap of neighbouring
    coordinates, a sign flip of the first, and alpha -> p alpha."""
    a = list(alpha)
    out = [(-a[0] % q1, *a[1:]), tuple(x * p % q1 for x in a)]
    for i in range(len(a) - 1):
        b = a[:]
        b[i], b[i + 1] = b[i + 1], b[i]
        out.append(tuple(b))
    return out


@pytest.mark.parametrize("m,p,t", [(2, 3, 1), (2, 3, 2), (3, 3, 1), (2, 5, 1)])
def test_class_reduction_equals_sum_over_all_characters(m, p, t):
    """Over all (q-1)^m characters: odd ones give rank 0, ranks are constant on
    classes, and the class-weighted sum is the full sum, for every r."""
    sp = space(m, p, t)
    q1 = p**t - 1
    alphas = list(itertools.product(range(q1), repeat=m))
    reps, sizes = torus.weight_classes(m, p, t)
    assert sizes.sum() == sum(1 for a in alphas if sum(a) % 2 == 0)
    for r in range(1, 2 * m):
        problem = torus.weight_problem(sp, r)
        full = dict(zip(alphas, torus.character_ranks(problem, alphas).tolist()))
        assert all(k == 0 for a, k in full.items() if sum(a) % 2)
        for a in alphas:
            assert all(full[b] == full[a] for b in class_images(a, p, q1)), (r, a)
        reduced = torus.character_ranks(problem, reps)
        assert int(sizes @ reduced) == sum(full.values()) == rank_point_flat(m, p, t, r)
        assert reduced.tolist() == [full[tuple(a)] for a in reps.tolist()]


def test_class_counts():
    # W(3,13): 16 classes of 144 characters, W(3,27): 20 of 676, W(5,3): 2 of 8
    for (m, p, t), count in {(2, 13, 1): 16, (2, 3, 3): 20, (3, 3, 1): 2}.items():
        reps, sizes = torus.weight_classes(m, p, t)
        assert len(reps) == count and sizes.sum() == (p**t - 1) ** m // 2


def test_flat_orbits_partition_the_flats():
    sp = space(2, 3, 2)
    mat = build_incidence(sp, 2)
    pts = enumerate_points(sp)
    exp, _ = torus._discrete_log(sp.field)
    label = torus._flat_orbits(sp, mat.indices.reshape(mat.rows, -1), pts, int(exp[1]))
    assert (label <= np.arange(mat.rows)).all() and (label[label] == label).all()
    # the orbit sizes divide |T| / |{+-1}| = 32, and sum to the number of flats
    sizes = np.bincount(label)[np.unique(label)]
    assert sizes.sum() == mat.rows == point_count(2, 9) and (32 % sizes == 0).all()


@pytest.mark.nightly
@pytest.mark.parametrize("m,p,t,r,want", [(2, 5, 2, 2, 7451), (2, 3, 3, 3, 1001)])
def test_torus_rank_large_fields(m, p, t, r, want):
    assert torus.torus_rank(space(m, p, t), r).rank == rank_point_flat(m, p, t, r) == want
