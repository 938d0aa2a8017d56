import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarank import ranks
from polarank.errors import RangeError
from polarank.gf import build_field
from polarank.geometry import SymplecticSpace
from polarank.incidence import SparseIncidenceMatrix, build_incidence
from polarank.ranks import DenseRowPacked, eliminate, rank_mod_p


def reference_rank(mat, p):
    """Independent oracle: textbook fraction-free elimination on python ints."""
    rows = [[int(x) for x in r] for r in np.asarray(mat) % p]
    cols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def direct_rank(rows, p):
    """The kernel fed row by row in the given orientation: no transpose."""
    rows = np.asarray(rows)
    acc = DenseRowPacked(rows.shape[1], p)
    for row in rows:
        acc.insert(row)
    return acc.rank


def line_prefix(q_p, q_t, n):
    """The first n lines of W(3, p^t), n x points (wide): CSR and dense 0/1."""
    mat = build_incidence(SymplecticSpace(2, build_field(q_p, q_t)), 2)
    csr = SparseIncidenceMatrix(n, mat.cols, q_p, mat.indptr[: n + 1], mat.indices[: mat.indptr[n]])
    dense = np.zeros((n, mat.cols), dtype=np.uint8)
    for i in range(n):
        dense[i, mat.row(i)] = 1
    return csr, dense


def test_identity_and_ones():
    assert rank_mod_p(np.eye(7, dtype=int), 3) == 7
    assert rank_mod_p(np.ones((3, 3), dtype=int), 3) == 1


def test_multiples_of_p_vanish():
    assert rank_mod_p(3 * np.eye(4, dtype=int), 3) == 0
    assert rank_mod_p([[6, 3], [9, 12]], 3) == 0


@pytest.mark.parametrize("p", [3, 5, 7, 13, 257, 263, 65537])
def test_random_matrices_match_reference(p):
    rng = np.random.default_rng(20 + p)
    for shape in [(8, 5), (5, 8), (20, 20), (40, 17)]:
        m = rng.integers(0, p, size=shape)
        assert rank_mod_p(m, p) == reference_rank(m, p)


small_matrices = st.tuples(st.integers(0, 10), st.integers(1, 10)).flatmap(
    lambda shape: arrays(np.int64, shape, elements=st.integers(-70000, 70000))
)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([3, 13, 17, 257, 65537]), mat=small_matrices)
@example(p=3, mat=np.zeros((0, 4), dtype=np.int64))
@example(p=65537, mat=np.array([[65537], [2], [-4]]))
def test_rank_matches_reference_property(p, mat):
    assert rank_mod_p(mat, p) == reference_rank(mat, p)


@pytest.mark.parametrize("p", [3, 13, 17])
def test_wide_matrices_fed_without_transpose(p):
    rng = np.random.default_rng(40 + p)
    for shape in [(3, 50), (12, 40), (30, 31)]:
        m = rng.integers(0, p, size=shape)
        m[-1] = (2 * m[0] + m[1]) % p  # one dependent row
        assert eliminate(m, p).transposed
        assert direct_rank(m, p) == rank_mod_p(m, p) == reference_rank(m, p)


@pytest.mark.parametrize("q_p, q_t, want", [(3, 2, 282), (13, 1, 300)])
def test_w3q_line_prefix_fed_without_transpose(q_p, q_t, want):
    csr, dense = line_prefix(q_p, q_t, 300)  # 300 x 820 and 300 x 2380
    assert direct_rank(dense, q_p) == reference_rank(dense, q_p) == want
    assert rank_mod_p(dense, q_p) == rank_mod_p(csr) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_byte_lane_reduction_matches_mod(p):
    # every value back-elimination can leave: (p-1) + (p-1)^2 = (p-1)p
    acc = DenseRowPacked(1, p)
    assert acc.dtype is np.uint8
    lanes = np.arange((p - 1) * p + 1, dtype=np.uint8)
    want = lanes % p
    assert np.array_equal(acc.reduce(lanes), want)
    block = np.tile(np.arange((p - 1) * p + 1, dtype=np.uint8), (3, 1))
    assert np.array_equal(acc.reduce(block), np.tile(want, (3, 1)))


def test_kernel_counters():
    m = np.zeros((4, 9), dtype=int)
    m[0, 0] = m[1, 1] = m[2, 0] = m[2, 1] = 1  # rank 2, wide
    acc = eliminate(m, 3)
    assert (acc.transposed, acc.cols, acc.rows_seen, acc.rank) == (True, 4, 9, 2)
    acc = eliminate(m.T, 257)
    assert (acc.transposed, acc.cols, acc.rows_seen, acc.dtype) == (False, 4, 9, np.uint32)


def test_planted_rank():
    rng = np.random.default_rng(33)
    p = 3
    base = rng.integers(0, p, size=(15, 40))
    while reference_rank(base, p) < 15:
        base = rng.integers(0, p, size=(15, 40))
    combos = (rng.integers(0, p, size=(30, 15)) @ base) % p
    stacked = np.vstack([base, combos])
    rng.shuffle(stacked)
    assert rank_mod_p(stacked, p) == 15


def test_transpose_invariance_and_permutations():
    rng = np.random.default_rng(5)
    m = (rng.random((120, 80)) < 0.05).astype(int)
    r = rank_mod_p(m, 3)
    assert rank_mod_p(m.T, 3) == r
    perm = rng.permutation(120)
    assert rank_mod_p(m[perm], 3) == r
    permc = rng.permutation(80)
    assert rank_mod_p(m[:, permc], 3) == r


def test_transpose_invariance_1200():
    rng = np.random.default_rng(7)
    m = (rng.random((1200, 1200)) < 0.004).astype(np.uint8)
    assert rank_mod_p(m, 3) == rank_mod_p(m.T, 3)


def test_streaming_matches_inmemory_and_order_invariance():
    sp = SymplecticSpace(2, build_field(3, 1))
    mat = build_incidence(sp, 2)
    dense = np.zeros((mat.rows, mat.cols), dtype=np.uint8)
    for i in range(mat.rows):
        dense[i, mat.row(i)] = 1
    r = rank_mod_p(mat)
    assert r == 25
    assert rank_mod_p(dense, 3) == r
    assert rank_mod_p(dense[::-1], 3) == r
    doubled = np.vstack([dense, dense])
    assert rank_mod_p(doubled, 3) == r


def test_streaming_unreduced_input():
    rows = [[3, 6, 9], [1, 2, 3], [2, 4, 6]]
    assert rank_mod_p(rows, 3) == 1


def test_packed_accumulator_budget_paths():
    # the narrowest lane holding (p-1) + (p-1)^2
    lanes = {13: np.uint8, 17: np.uint16, 251: np.uint16, 257: np.uint32,
             65521: np.uint32, 65537: np.uint64, 4294967291: np.uint64}
    for p, dtype in lanes.items():
        assert DenseRowPacked(4, p).dtype == dtype
    with pytest.raises(RangeError):
        DenseRowPacked(4, 4294967311)  # prime, (p-1)^2 >= 2^64
    acc = DenseRowPacked(10, 17)
    rng = np.random.default_rng(1)
    m = rng.integers(0, 17, size=(12, 10))
    for row in m:
        acc.insert(row)
    assert acc.rank == reference_rank(m, 17)


def test_many_dependent_rows_trigger_delayed_reduction():
    rng = np.random.default_rng(9)
    base = rng.integers(0, 3, size=(3, 400))
    rows = [(c @ base) % 3 for c in rng.integers(0, 3, size=(200, 3))]
    assert rank_mod_p(np.array(rows), 3) == reference_rank(np.array(rows), 3)


def test_streaming_agrees_on_acceptance_matrices():
    sp = SymplecticSpace(3, build_field(3, 1))
    mat = build_incidence(sp, 2)  # 3640 x 364
    dense = np.zeros((mat.rows, mat.cols), dtype=np.uint8)
    for i in range(mat.rows):
        dense[i, mat.row(i)] = 1
    assert rank_mod_p(dense, 3) == rank_mod_p(mat) == 343
    t = mat.transpose()
    assert rank_mod_p(t) == 343
    # the wide 364 x 3640 orientation, fed as is rather than re-transposed
    assert direct_rank(dense.T, 3) == 343


def _screening_case(kind, p, shape, rank, seed):
    """A rows x cols matrix over GF(p) of rank at most `rank`, in one of the
    row patterns `eliminate` stops early on or screens in blocks."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    base = rng.integers(0, p, size=(rank, cols))
    if kind == "full-early":  # the first rows already span everything
        lead = (np.eye(cols, dtype=np.int64) + np.triu(rng.integers(0, p, size=(cols, cols)), 1)) % p
        rest = rng.integers(0, p, size=(rows - cols, cols))
        return np.vstack([lead, rest]) if rows >= cols else lead[:rows]
    # the first half spans only half the rank, so a screened block that
    # crosses into the second half has survivors
    coeffs = rng.integers(0, p, size=(rows, rank))
    coeffs[: rows // 2, rank // 2:] = 0
    mat = coeffs @ base % p
    if kind == "duplicates":  # long runs of one repeated row
        starts = np.sort(rng.choice(rows, size=3, replace=False))
        for lo, hi in zip(starts, [*starts[1:], rows]):
            mat[lo:hi] = mat[lo]
    elif kind == "zeros":
        mat[rng.random(rows) < 0.6] = 0
    return mat


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["planted", "duplicates", "zeros", "full-early"]),
    p=st.sampled_from([3, 13, 257, 65537]),
    orient=st.sampled_from(["tall", "wide", "square"]),
    rank=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_stop_and_screen_match_reference_property(kind, p, orient, rank, seed):
    # 80-120 long rows and 12-30 short: runs of dependent rows pass
    # SCREEN_AFTER, so blocks are screened; the lanes span every width, and
    # p = 65537 needs float64 where the others fit float32
    rng = np.random.default_rng(seed)
    short, long_ = int(rng.integers(12, 31)), int(rng.integers(80, 121))
    shape = {"tall": (long_, short), "wide": (short, long_), "square": (long_, long_)}[orient]
    if kind == "full-early":
        shape = (max(shape), min(shape))
    mat = _screening_case(kind, p, shape, min(rank, min(shape)), seed)
    if orient == "wide" and kind == "full-early":
        mat = mat.T
    acc = eliminate(mat, p)
    assert acc.rank == reference_rank(mat, p) == direct_rank(mat, p)
    assert acc.rows_seen <= max(mat.shape)


def test_screen_exactness_bound():
    assert ranks._exact_float(3, 10**6) is np.float32
    # 255 * 256^2 + 256 <= 2^24 < 256 * 256^2 + 256
    assert ranks._exact_float(257, 255) is np.float32
    assert ranks._exact_float(257, 256) is np.float64
    assert ranks._exact_float(65537, 1) is np.float64
    assert ranks._exact_float(65537, 2**21 - 1) is np.float64
    assert ranks._exact_float(65537, 2**21) is None
    assert ranks._exact_float(4294967291, 1) is None
    acc = DenseRowPacked(3, 4294967291)
    acc.insert([1, 2, 3])
    with pytest.raises(RangeError):
        acc.screen(np.zeros((1, 3), dtype=np.uint64))


@pytest.mark.parametrize("p", [257, 4294967291])
def test_screen_across_the_float32_bound_and_without_a_float(p, monkeypatch):
    # at p = 257 dependent runs at rank 200 and 262 are screened in float32
    # and float64; at p = 4294967291 no float is exact, so nothing is
    rng = np.random.default_rng(3)
    base = rng.integers(0, p, size=(262, 270), dtype=np.int64)
    mat = np.vstack([base[:200], base[rng.integers(0, 200, size=100)], base[200:],
                     base[rng.integers(0, 262, size=100)]])
    screened = []
    screen = DenseRowPacked.screen
    monkeypatch.setattr(DenseRowPacked, "screen",
                        lambda acc, block: screened.append(acc.rank) or screen(acc, block))
    acc = eliminate(mat, p)
    assert acc.rank == direct_rank(mat, p) == 262
    assert acc.rows_seen == 462
    if p == 257:
        assert min(screened) < 256 <= max(screened)
    else:
        assert not screened


def _counting_inserts(monkeypatch):
    calls = []
    insert = DenseRowPacked.insert
    monkeypatch.setattr(DenseRowPacked, "insert",
                        lambda acc, row, **kw: calls.append(1) or insert(acc, row, **kw))
    return calls


def test_identical_wide_rows_are_screened_not_inserted(monkeypatch):
    # two all-ones rows of 200000 columns: 200000 rows of 2 lanes once oriented
    n = 200_000
    mat = SparseIncidenceMatrix(2, n, 3, np.array([0, n, 2 * n]), np.tile(np.arange(n), 2))
    calls = _counting_inserts(monkeypatch)
    acc = eliminate(mat)
    assert (acc.transposed, acc.rank, acc.rows_seen) == (True, 1, n)
    assert len(calls) <= ranks.SCREEN_AFTER + 1


def test_feeding_stops_at_full_rank(monkeypatch):
    csr, dense = line_prefix(3, 2, 100)  # 100 x 820: rank 100 is reached at row 243
    calls = _counting_inserts(monkeypatch)
    acc = eliminate(csr)
    assert (acc.transposed, acc.rank) == (True, 100)
    assert len(calls) <= acc.rows_seen < 820
    assert rank_mod_p(dense, 3) == direct_rank(dense, 3) == 100
