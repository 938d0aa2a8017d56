import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polarank.posets import (
    HType,
    SignedHType,
    enumerate_H,
    enumerate_H_d,
    enumerate_S,
    h_type_from_lambda,
    hasse_dot,
    hasse_edges,
    ideal_below,
    lambda_from_h_type,
    signed_ideal_below,
    signed_leq,
    type_of,
    z_set,
)


def test_type_of_examples():
    # all-(q-1) monomial: every digit p-1, grading 0
    lt = type_of((8, 8, 8, 8), 2, 3, 2)
    assert lt.lam == (8, 8) and lt.d == 0
    lt = type_of((0, 0, 0, 0), 2, 3, 2)
    assert lt.lam == (0, 0) and lt.d == 0
    lt = type_of((8, 8, 0, 0), 2, 3, 2)
    assert lt.lam == (4, 4) and lt.d == 0
    # non-zero grading
    lt = type_of((1, 0, 0, 0), 2, 3, 2)
    assert lt.lam == (1, 0) and lt.d == 1


def test_h_type_examples():
    h = h_type_from_lambda(type_of((8, 8, 0, 0), 2, 3, 2))
    assert h.s == (2, 2)
    h = h_type_from_lambda(type_of((8, 8, 8, 8), 2, 3, 2))
    assert h.s == (4, 4) and h.is_extreme
    # lambda = (2,2) -> s = (1,1); digits of (2, 6) are (2,0) and (0,2)
    h = h_type_from_lambda(type_of((2, 6, 0, 0), 2, 3, 2))
    assert h.lam == (2, 2) and h.s == (1, 1)


def test_round_trip_bijection_small():
    for (m, p, t) in [(2, 3, 2), (2, 5, 2), (3, 3, 2)]:
        hi = 2 * m * (p - 1)
        q = p**t
        seen = set()
        for lam in itertools.product(range(hi + 1), repeat=t):
            d = sum(l * p**j for j, l in enumerate(lam)) % (q - 1)
            from polarank.posets import LambdaType

            lt = LambdaType(m, p, t, lam, d)
            h = h_type_from_lambda(lt)
            back = lambda_from_h_type(h)
            assert back.lam == lam and back.d == d
            key = (h.s, d)
            assert key not in seen
            seen.add(key)
        # counts: |Lambda| = sum over d of |H[d]|
        total = sum(len(enumerate_H_d(m, p, t, d)) for d in range(q - 1))
        assert len(seen) == (hi + 1) ** t == total


def test_enumerate_H_examples():
    assert [h.s for h in enumerate_H(2, 3, 1)] == [(1,), (2,), (3,)]
    h22 = enumerate_H(2, 3, 2)
    assert len(h22) == 9
    assert {h.s for h in h22} == set(itertools.product((1, 2, 3), repeat=2))
    # H[0] adds the two extremes
    assert len(enumerate_H_d(2, 3, 2, 0)) == 11
    for (m, p, t) in [(2, 3, 2), (3, 3, 1), (2, 5, 2)]:
        assert len(enumerate_H_d(m, p, t, 0)) == len(enumerate_H(m, p, t)) + 2


def test_ideal_below_examples():
    h = HType(2, 3, 2, (1, 1), 0)
    assert [x.s for x in ideal_below(h)] == [(1, 1)]
    h = HType(2, 3, 2, (2, 2), 0)
    assert sorted(x.s for x in ideal_below(h)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    h = HType(3, 3, 1, (4,), 0)
    assert [x.s for x in ideal_below(h)] == [(1,), (2,), (3,), (4,)]


def test_j_set_and_z_set():
    h22 = HType(2, 3, 2, (2, 2), 0)
    assert h22.lam == (4, 4)
    assert h22.j_set() == frozenset({0, 1})
    h11 = HType(2, 3, 2, (1, 1), 0)
    assert h11.j_set() == frozenset()
    assert z_set(h11, h22) == frozenset()
    assert z_set(h22, h22) == frozenset({0, 1})
    h12 = HType(2, 3, 2, (1, 2), 0)
    assert z_set(h12, h22) == frozenset()


def test_signed_leq_examples():
    h22 = HType(2, 3, 2, (2, 2), 0)
    h11 = HType(2, 3, 2, (1, 1), 0)
    top = SignedHType(h22, frozenset({0, 1}))
    assert signed_leq(SignedHType(h11, frozenset()), top)
    assert signed_leq(top, top)
    assert not signed_leq(SignedHType(h22, frozenset()), top)
    assert not signed_leq(SignedHType(h22, frozenset({0})), top)


def test_signed_ideal_below_examples():
    # t=1: below (2, {0}) sit exactly (1, {}) and (2, {0})
    h2 = HType(2, 3, 1, (2,), 0)
    ideal = signed_ideal_below(SignedHType(h2, frozenset({0})))
    assert [(a.s, tuple(sorted(a.eps))) for a in ideal] == [((1,), ()), ((2,), (0,))]
    # minimal element
    h1 = HType(2, 3, 1, (1,), 0)
    bottom = SignedHType(h1, frozenset())
    assert signed_ideal_below(bottom) == [bottom]
    # the (2,2) ideal: four elements (its two-signature variants are excluded)
    h22 = HType(2, 3, 2, (2, 2), 0)
    ideal = signed_ideal_below(SignedHType(h22, frozenset({0, 1})))
    assert [(a.s, tuple(sorted(a.eps))) for a in ideal] == [
        ((1, 1), ()),
        ((1, 2), ()),
        ((2, 1), ()),
        ((2, 2), (0, 1)),
    ]


def test_signed_order_is_partial_order_exhaustive_232():
    s = enumerate_S(2, 3, 2)
    assert len(s) == 12
    for a in s:
        assert signed_leq(a, a)
    for a in s:
        for b in s:
            if signed_leq(a, b) and signed_leq(b, a):
                assert a.key() == b.key()
            for c in s:
                if signed_leq(a, b) and signed_leq(b, c):
                    assert signed_leq(a, c)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([2, 3]),
    p=st.sampled_from([3, 5, 7]),
    t=st.integers(1, 3),
    data=st.data(),
)
def test_signed_order_axioms_property(m, p, t, data):
    d = data.draw(st.integers(0, p**t - 2), label="d")
    s = enumerate_S(m, p, t, d)
    assert s and len({a.key() for a in s}) == len(s)
    leq = np.array([[signed_leq(a, b) for b in s] for a in s], dtype=bool)
    assert leq.diagonal().all()  # reflexive
    assert not (leq & leq.T & ~np.eye(len(s), dtype=bool)).any()  # antisymmetric
    through = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
    assert not (through & ~leq).any()  # transitive


def test_z_multiplicativity_identity():
    # Z(s'', s) = Z(s'', s') & Z(s', s) whenever s'' <= s' <= s
    hs = enumerate_H(2, 3, 2)
    for a in hs:
        for b in hs:
            if not a <= b:
                continue
            for c in hs:
                if b <= c:
                    assert z_set(a, c) == z_set(a, b) & z_set(b, c)


def test_digit_sum_interpolation():
    s = enumerate_S(2, 3, 2)
    for a in s:
        for b in s:
            if a.key() == b.key() or not signed_leq(a, b):
                continue
            if sum(b.s) - sum(a.s) <= 1:
                continue
            mid = [
                c
                for c in s
                if sum(c.s) == sum(b.s) - 1
                and signed_leq(a, c)
                and signed_leq(c, b)
            ]
            assert mid, (a.key(), b.key())


def test_lambda_bounds_property():
    for (m, p, t) in [(2, 3, 2), (3, 3, 1)]:
        q = p**t
        hi = 2 * m * (p - 1)
        for exps in itertools.islice(
            itertools.product(range(q), repeat=2 * m), 0, None, 7
        ):
            lt = type_of(exps, m, p, t)
            assert all(0 <= l <= hi for l in lt.lam)


def test_hasse_edges_and_dot():
    s = enumerate_S(2, 3, 1)
    assert len(s) == 4
    edges = hasse_edges(s, signed_leq)
    # chain (1,{}) < (2,{}) < (3,{}) plus (1,{}) < (2,{0}) < (3,{})
    assert len(edges) == 4
    dot = hasse_dot(2, 3, 1, poset="s")
    assert dot.startswith("digraph") and dot.count("->") == 4
    dot_h = hasse_dot(2, 3, 1, poset="h")
    assert dot_h.count("->") == 2
