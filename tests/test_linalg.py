import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarank import linalg
from polarank.errors import DimensionMismatch
from polarank.gf import build_field

FIELDS = {3: (3, 1), 9: (3, 2), 25: (5, 2)}


def apply(f, a, x):
    """A x by scalar field products."""
    out = []
    for row in a:
        acc = 0
        for c, v in zip(row, x):
            acc = f.add(acc, f.mul(int(c), int(v)))
        out.append(acc)
    return out


def reference_rref(f, rows, ncols):
    """Scalar Gauss-Jordan: (nonzero RREF rows, pivot columns)."""
    rows = [[int(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        s = f.inv(rows[r][c])
        rows[r] = [f.mul(s, x) for x in rows[r]]
        for j in range(len(rows)):
            if j != r and rows[j][c]:
                factor = f.neg(rows[j][c])
                rows[j] = [f.add(x, f.mul(factor, y)) for x, y in zip(rows[j], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def test_rref_identity_and_rank():
    f = build_field(3, 2)
    eye = np.eye(4, dtype=np.uint8)
    red, piv = linalg.rref(f, eye)
    assert np.array_equal(red, eye) and piv == (0, 1, 2, 3)
    assert linalg.rank(f, eye) == 4


def test_rank_of_planted_matrix():
    f = build_field(3, 2)
    rng = random.Random(5)
    base = [[rng.randrange(9) for _ in range(10)] for _ in range(4)]
    rows = [r[:] for r in base]
    for _ in range(6):
        mix = [0] * 10
        for r in base:
            c = rng.randrange(9)
            mix = [f.add(x, f.mul(c, y)) for x, y in zip(mix, r)]
        rows.append(mix)
    assert linalg.rank(f, rows) <= 4
    assert linalg.rank(f, base) == linalg.rank(f, rows)


def test_solve_and_nullspace():
    f = build_field(3, 2)
    rng = random.Random(7)
    a = [[rng.randrange(9) for _ in range(6)] for _ in range(4)]
    x = [rng.randrange(9) for _ in range(6)]
    b = apply(f, a, x)
    sol = linalg.solve(f, a, b)
    assert sol is not None
    assert apply(f, a, sol) == b
    ns = linalg.nullspace(f, a)
    assert ns.shape[0] == 6 - linalg.rank(f, a)
    for row in ns:
        assert not any(apply(f, a, row))
    assert linalg.nullspace(f, np.eye(4, dtype=np.uint8)).shape == (0, 4)


def test_solve_inconsistent_returns_none():
    f = build_field(3, 1)
    a = [[1, 0], [1, 0]]
    assert linalg.solve(f, a, [1, 2]) is None


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from(sorted(FIELDS)),
    shape=st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(1, 6)),
    data=st.data(),
)
@example(q=9, shape=(3, 0, 4), data=None)
def test_rref_stack_matches_scalar_reference(q, shape, data):
    f = build_field(*FIELDS[q])
    stack = np.zeros(shape, dtype=np.uint8)
    if data is not None:
        stack = data.draw(arrays(np.uint8, shape, elements=st.integers(0, q - 1)))
        if shape[1] >= 2 and data.draw(st.booleans()):
            # every item rank-deficient: last row a multiple of the first
            c = data.draw(st.integers(0, q - 1))
            stack[:, -1] = f.np_tables()[1][c, stack[:, 0]]
    red, pivots, ranks = linalg.rref_stack(f, stack)
    n = shape[2]
    for b, item in enumerate(stack):
        rows, piv = reference_rref(f, item, n)
        r = int(ranks[b])
        assert r == len(piv)
        assert red[b, :r].tolist() == rows and not red[b, r:].any()
        assert pivots[b, :r].tolist() == piv and (pivots[b, r:] == n).all()


# (a, b) shapes of the callers' products, over dims (d0, d1, d2, d3): the
# points c.G of a chunk of flats, isotropy tests of candidate rows (both
# stackings), vectors times a group element, and a transvection's v (x) grad
MATMUL_SHAPES = [
    lambda d: ((1, d[0], d[1]), (d[2], d[1], d[3])),
    lambda d: ((d[0], 1, d[1], d[2]), (1, d[3], d[2], 1)),
    lambda d: ((d[0], d[1]), (d[2], d[1], d[3])),
    lambda d: ((d[0], d[1]), (d[1], d[1])),
    lambda d: ((d[0], 1), (1, d[0])),
]


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from(sorted(FIELDS)),
    shapes=st.sampled_from(MATMUL_SHAPES),
    dims=st.tuples(*[st.integers(0, 4)] * 4),
    data=st.data(),
)
def test_matmul_matches_scalar_reference(q, shapes, dims, data):
    f = build_field(*FIELDS[q])
    sa, sb = shapes(dims)
    a = data.draw(arrays(np.uint8, sa, elements=st.integers(0, q - 1)))
    b = data.draw(arrays(np.uint8, sb, elements=st.integers(0, q - 1)))
    got = linalg.matmul(f, a, b)
    lead = np.broadcast_shapes(sa[:-2], sb[:-2])
    assert got.shape == lead + (sa[-2], sb[-1]) and got.dtype == f.dtype
    a, b = np.broadcast_to(a, lead + sa[-2:]), np.broadcast_to(b, lead + sb[-2:])
    for idx in np.ndindex(*lead):
        # row i of a @ b is b^T applied to row i of a
        assert got[idx].tolist() == [apply(f, b[idx].T, row) for row in a[idx]]


def test_matmul_rejects_mismatched_shapes():
    f = build_field(3, 1)
    for a, b in (((2, 3), (2, 3)), ((2, 2, 3), (3, 3, 1)), ((3,), (3, 1))):
        with pytest.raises(DimensionMismatch):
            linalg.matmul(f, np.zeros(a, dtype=np.uint8), np.zeros(b, dtype=np.uint8))


@settings(max_examples=50, deadline=None)
@given(q=st.sampled_from(sorted(FIELDS)), data=st.data())
def test_keyed_sum_matches_scalar_sums(q, data):
    f = build_field(*FIELDS[q])
    size = data.draw(st.integers(1, 12))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, q - 1)), max_size=60))
    want = [0] * size
    for key, code in pairs:
        want[key] = f.add(want[key], code)
    keys = np.array([k for k, _ in pairs], dtype=np.intp)
    codes = np.array([c for _, c in pairs], dtype=f.dtype)
    got = linalg.keyed_sum(f, keys, codes, size)
    assert got.dtype == f.dtype and got.tolist() == want
