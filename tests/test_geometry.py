import random

import numpy as np
import pytest

from polarank import linalg
from polarank.errors import DimensionMismatch, RangeError, UnsupportedCharacteristic
from polarank.funcspace import FunctionSpace
from polarank.gf import build_field
from polarank.geometry import (
    SymplecticSpace,
    enumerate_all_subspaces,
    enumerate_coisotropic,
    enumerate_isotropic,
    enumerate_points,
    gaussian_binomial,
    isotropic_count,
    perp,
    point_count,
)


def space(m, p, t):
    return SymplecticSpace(m, build_field(p, t))


def test_rejects_char2_and_small_m():
    with pytest.raises(UnsupportedCharacteristic):
        SymplecticSpace(2, build_field(2, 2))
    with pytest.raises(RangeError):
        SymplecticSpace(1, build_field(3, 1))
    # k[V] is built over the same space
    with pytest.raises(UnsupportedCharacteristic):
        FunctionSpace(2, build_field(2, 2))
    with pytest.raises(RangeError):
        FunctionSpace(1, build_field(3, 1))


def test_form_on_basis_vectors():
    sp = space(2, 3, 1)
    for i in (1, 2):
        for j in (1, 2):
            assert sp.form_code(sp.e(i), sp.f(j)) == (1 if i == j else 0)
            assert sp.form_code(sp.e(i), sp.e(j)) == 0
            assert sp.form_code(sp.f(i), sp.f(j)) == 0
    assert sp.form_code(sp.f(1), sp.e(1)) == sp.field.neg(1)


def test_form_alternating_and_bilinear_random():
    sp = space(2, 3, 2)
    rng = random.Random(2)
    for _ in range(200):
        u = tuple(rng.randrange(9) for _ in range(4))
        assert sp.form_code(u, u) == 0
        v = tuple(rng.randrange(9) for _ in range(4))
        assert sp.form_code(u, v) == sp.field.neg(sp.form_code(v, u))
    with pytest.raises(DimensionMismatch):
        sp.form_code((1, 0), (0, 1))


@pytest.mark.parametrize(
    "m,p,t,expected",
    [(2, 3, 1, 40), (2, 3, 2, 820), (3, 3, 1, 364)],
)
def test_point_counts(m, p, t, expected):
    sp = space(m, p, t)
    pts = enumerate_points(sp).tolist()
    assert len(pts) == expected == point_count(m, p**t)
    # all normalized, all distinct, sorted
    assert all(next(c for c in p_ if c) == 1 for p_ in pts)
    assert len({tuple(p_) for p_ in pts}) == expected
    assert pts == sorted(pts)


def brute_force_isotropic_lines(sp):
    """Oracle: filter every 2-subspace (RREF enumeration) for isotropy."""
    out = []
    for rows in enumerate_all_subspaces(sp, 2).tolist():
        if all(
            sp.form_code(rows[a], rows[b]) == 0
            for a in range(len(rows))
            for b in range(len(rows))
        ):
            out.append(rows)
    return out


def test_isotropic_lines_w33_against_filter_oracle():
    # W(3,3), W(3,9) and W(5,3)
    for m, p, t, expected in [(2, 3, 1, 40), (2, 3, 2, 820), (3, 3, 1, 3640)]:
        sp = space(m, p, t)
        lines = enumerate_isotropic(sp, 2)
        assert len(lines) == expected == isotropic_count(m, 2, p**t)
        assert lines.tolist() == brute_force_isotropic_lines(sp)


@pytest.mark.parametrize(
    "m,p,t,r,expected",
    [
        (2, 3, 1, 1, 40),
        (2, 3, 2, 2, 820),
        (3, 3, 1, 2, 3640),
        (3, 3, 1, 3, 1120),
    ],
)
def test_isotropic_counts(m, p, t, r, expected):
    sp = space(m, p, t)
    flats = enumerate_isotropic(sp, r)
    assert len(flats) == expected == isotropic_count(m, r, p**t)
    for sub in flats[:: max(1, len(flats) // 50)].tolist():
        for u in sub:
            for v in sub:
                assert sp.form_code(u, v) == 0


def test_isotropic_range_errors():
    sp = space(2, 3, 1)
    with pytest.raises(RangeError):
        enumerate_isotropic(sp, 0)
    with pytest.raises(RangeError):
        enumerate_isotropic(sp, 3)
    with pytest.raises(RangeError):
        enumerate_coisotropic(sp, 2)


def test_all_subspace_count_gaussian():
    sp = space(3, 3, 1)
    assert len(enumerate_all_subspaces(sp, 2)) == gaussian_binomial(6, 2, 3) == 11011


def test_canonical_rref_representative():
    sp = space(2, 3, 2)
    rng = random.Random(4)
    lines = enumerate_isotropic(sp, 2)
    for sub in rng.sample(lines.tolist(), 25):
        # re-span by random invertible combinations; canonical form must return
        r1, r2 = sub
        f = sp.field
        while True:
            a, b, c, d = (rng.randrange(9) for _ in range(4))
            if f.sub(f.mul(a, d), f.mul(b, c)) != 0:
                break
        g1 = tuple(f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(r1, r2))
        g2 = tuple(f.add(f.mul(c, x), f.mul(d, y)) for x, y in zip(r1, r2))
        assert linalg.rref(sp.field, [g1, g2])[0].tolist() == sub


def test_perp_properties():
    sp = space(2, 3, 1)
    rng = random.Random(9)
    pts = enumerate_points(sp)
    # W totally isotropic => W inside its perp
    for sub in enumerate_isotropic(sp, 2)[:10]:
        pp = perp(sp, sub)
        assert pp.shape == (2, 4)
        assert np.array_equal(pp, sub)  # Lagrangian: self-perp
    # double perp is identity on random subspaces
    for _ in range(100):
        rows = [
            tuple(rng.randrange(3) for _ in range(4))
            for _ in range(rng.randrange(1, 4))
        ]
        if not any(any(r) for r in rows):
            continue
        sub = linalg.rref(sp.field, rows)[0]
        if len(sub) == 0:
            continue
        assert np.array_equal(perp(sp, perp(sp, sub)), sub)
    # perps of the 40 points are 40 distinct 3-spaces
    perps = [perp(sp, pt) for pt in pts]
    assert len({pp.tobytes() for pp in perps}) == 40
    assert all(pp.shape == (3, 4) for pp in perps)


def test_coisotropic_contains_own_perp():
    # W(3,3) r=3, W(5,3) r=4 and W(3,9) r=3
    for m, p, t, r, expected in [(2, 3, 1, 3, 40), (3, 3, 1, 4, 3640), (2, 3, 2, 3, 820)]:
        sp = space(m, p, t)
        flats = enumerate_coisotropic(sp, r)
        assert len(flats) == expected == isotropic_count(m, 2 * m - r, p**t)
        assert flats.shape == (expected, r, 2 * m)
        rows = [tuple(f) for f in flats.reshape(expected, -1).tolist()]
        assert rows == sorted(set(rows))
        for sub in flats:
            inner = perp(sp, sub)
            assert inner.shape == (2 * m - r, 2 * m)
            assert all(sp.form_code(u, v) == 0 for u in inner.tolist() for v in sub.tolist())
            span = linalg.rref(sp.field, np.concatenate([sub, inner]))[0]
            assert span.shape[0] == r


def test_coisotropic_count_w53():
    sp = space(3, 3, 1)
    flats = enumerate_coisotropic(sp, 4)
    assert len(flats) == isotropic_count(3, 2, 3) == 3640

