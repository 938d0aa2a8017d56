import itertools

import pytest

from polarank import dimensions
from polarank.dimensions import (
    build_D_matrix,
    dim_L_signed,
    dim_S_lambda,
    dim_S_plus_minus,
    dim_Y_signed,
    dim_Y_unsigned,
    dimension_table,
    count_digit_tuples,
    rank_W3_char2,
    rank_W3_closed_form,
    rank_point_flat,
)
from polarank.errors import InvariantError, ParityError, RangeError, UnsupportedCharacteristic
from polarank.geometry import point_count
from polarank.posets import HType, SignedHType, enumerate_S, signed_leq


def brute_count(m, p, lam):
    """Oracle: literally enumerate digit tuples (kept tiny)."""
    return sum(
        1
        for tup in itertools.product(range(p), repeat=2 * m)
        if sum(tup) == lam
    )


def test_dim_examples():
    assert dim_S_lambda(2, 3, 0) == 1
    assert dim_S_lambda(2, 3, 2) == 10  # p(p+1)(p+2)/6 at p=3
    assert dim_S_lambda(2, 3, 4) == 19
    with pytest.raises(RangeError):
        dim_S_lambda(2, 3, 9)


@pytest.mark.parametrize("m,p", [(2, 3), (2, 5), (3, 3)])
def test_formula_equals_enumeration(m, p):
    for lam in range(2 * m * (p - 1) + 1):
        expected = brute_count(m, p, lam)
        assert dim_S_lambda(m, p, lam) == expected
        assert count_digit_tuples(m, p, lam) == expected


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_table_invariants(m, p):
    table = dimension_table(m, p)
    hi = 2 * m * (p - 1)
    assert table[0] == table[hi] == 1
    assert all(table[i] == table[hi - i] for i in range(hi + 1))
    assert sum(table.d) == p ** (2 * m)


def test_s_plus_minus():
    assert dim_S_plus_minus(2, 3) == (14, 5)
    assert dim_S_plus_minus(2, 5) == (55, 30)
    assert dim_S_plus_minus(3, 3) == (84, 57)
    with pytest.raises(UnsupportedCharacteristic):
        dim_S_plus_minus(2, 2)
    with pytest.raises(RangeError):
        dim_S_plus_minus(1, 3)


@pytest.mark.parametrize("m,p", [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5)])
def test_plus_minus_sum_difference(m, p):
    plus, minus = dim_S_plus_minus(m, p)
    assert plus + minus == dimension_table(m, p)[m * (p - 1)]
    assert plus - minus == p**m


def test_dim_L_signed_examples():
    h2 = HType(2, 3, 1, (2,), 0)
    assert dim_L_signed(SignedHType(h2, frozenset({0}))) == 14
    assert dim_L_signed(SignedHType(h2, frozenset())) == 5
    h22 = HType(2, 3, 2, (2, 2), 0)
    assert dim_L_signed(SignedHType(h22, frozenset({0, 1}))) == 196
    h11 = HType(2, 3, 2, (1, 1), 0)
    assert dim_L_signed(SignedHType(h11, frozenset())) == 100


def test_dim_Y_signed_examples():
    h2 = HType(2, 3, 1, (2,), 0)
    assert dim_Y_signed(SignedHType(h2, frozenset({0}))) == 24
    h1 = HType(2, 3, 1, (1,), 0)
    bottom = SignedHType(h1, frozenset())
    assert dim_Y_signed(bottom) == dim_L_signed(bottom) == 10
    h22 = HType(2, 3, 2, (2, 2), 0)
    assert dim_Y_signed(SignedHType(h22, frozenset({0, 1}))) == 424


def test_dim_Y_monotonicity():
    s = enumerate_S(2, 3, 2)
    for a in s:
        for b in s:
            if a.key() != b.key() and signed_leq(a, b):
                assert dim_Y_signed(a) < dim_Y_signed(b)


def test_rank_point_flat_examples():
    assert rank_point_flat(2, 3, 1, 2) == 25
    assert rank_point_flat(2, 3, 2, 2) == 425
    assert rank_point_flat(2, 3, 1, 1) == 40  # identity incidence
    assert rank_point_flat(2, 3, 1, 3) == 11  # 1 + d_{p-1}
    assert rank_point_flat(3, 3, 1, 3) == 196
    assert rank_point_flat(3, 3, 1, 2) == 343
    assert rank_point_flat(2, 5, 1, 2) == 91
    with pytest.raises(UnsupportedCharacteristic):
        rank_point_flat(2, 2, 1, 2)
    with pytest.raises(RangeError):
        rank_point_flat(2, 3, 1, 4)


def test_D_matrix_m2():
    d = build_D_matrix(2, 3)
    assert d.entries == ((10, 16), (4, 14))
    assert d.trace() == 24 and d.det() == 76
    assert build_D_matrix(2, 3, 2) == d
    # r = 1: no dim S+ corner, d_{3j-i} with d_7 = 4, d_8 = 1 and d_9 = 0
    assert build_D_matrix(2, 3, 1).entries == ((10, 16, 1), (4, 19, 4), (1, 16, 10))
    assert build_D_matrix(2, 3, 3).entries == ((10,),)
    for r in (0, 4):
        with pytest.raises(RangeError):
            build_D_matrix(2, 3, r)
    # closed polynomial form p(p+1)/6 * [[p+2, 4(p-1)], [p-1, 2p+1]]
    for p in (3, 5, 7, 11):
        dm = build_D_matrix(2, p)
        poly = ((p + 2, 4 * (p - 1)), (p - 1, 2 * p + 1))
        for i in range(2):
            for j in range(2):
                assert 6 * dm.entries[i][j] == p * (p + 1) * poly[i][j]


def test_D_matrix_m3_paper_polynomials():
    """Entrywise against the displayed degree-5 polynomials over 120."""
    for p in (3, 5, 7):
        d = build_D_matrix(3, p)
        expected = [
            [
                (p + 4) * (p + 3) * (p + 2) * (p + 1) * p,
                (p**3 - p) * (p + 2) * (26 * p + 48),
                66 * p**5 - 210 * p**3 + 144 * p,
            ],
            [
                (p + 3) * (p + 2) * (p + 1) * p * (p - 1),
                26 * p**5 + 50 * p**4 + 10 * p**3 + 10 * p**2 + 24 * p,
                66 * p**5 - 30 * p**3 - 36 * p,
            ],
            [
                (p + 2) * (p + 1) * p * (p - 1) * (p - 2),
                26 * p**5 - 10 * p**3 - 16 * p,
                33 * p**5 + 75 * p**3 + 12 * p,
            ],
        ]
        for i in range(3):
            for j in range(3):
                assert expected[i][j] % 120 == 0
                assert d.entries[i][j] == expected[i][j] // 120
    assert build_D_matrix(3, 3).trace() == 195


def test_trace_power_equals_ideal_sum(ideal_sum_rank):
    for m in (2, 3):
        for p in (3, 5, 7):
            for r in range(1, 2 * m):
                d = build_D_matrix(m, p, r)
                assert len(d.entries) == 2 * m - r
                for t in range(1, 7):
                    assert 1 + d.trace_power(t) == ideal_sum_rank(m, p, t, r)


def test_rank_point_flat_large_t():
    # (2m-r)^200 ideal elements: out of reach of the ideal sums
    assert rank_point_flat(2, 3, 200, 2) == rank_W3_closed_form(3, 200)
    assert rank_point_flat(3, 7, 100, 1) == point_count(3, 7**100)
    # a large prime: 841 transfer-matrix degrees from one digit-count polynomial
    for t in (1, 2, 3):
        assert rank_point_flat(2, 211, t, 2) == rank_W3_closed_form(211, t)


def test_closed_form_examples_and_recurrence_route():
    assert rank_W3_closed_form(3, 1) == 25
    assert rank_W3_closed_form(3, 2) == 425
    assert rank_W3_closed_form(3, 3) == 8353
    for p in (3, 5, 7, 11):
        d = build_D_matrix(2, p)
        for t in range(1, 9):
            assert rank_W3_closed_form(p, t) == 1 + d.trace_power(t)


def test_broken_invariants_raise(monkeypatch):
    monkeypatch.setattr(dimensions, "_power_sum", lambda trace, det, t: 0)
    with pytest.raises(InvariantError):
        rank_W3_char2(3)
    monkeypatch.undo()
    monkeypatch.setattr(dimensions.DMatrix, "trace", lambda self: 0)
    with pytest.raises(InvariantError):
        rank_W3_closed_form(3, 1)
    monkeypatch.undo()
    monkeypatch.setattr(
        dimensions, "count_digit_tuples", lambda m, p, lam: count_digit_tuples(m, p, lam) + 1
    )
    with pytest.raises(InvariantError):
        dimension_table.__wrapped__(2, 3)
    with pytest.raises(ParityError):
        build_D_matrix(2, 3)


def test_char2_values_and_cross_route():
    assert rank_W3_char2(1) == 10
    assert rank_W3_char2(2) == 50
    # the beta-recurrence: b_2 = 9, b_3 = 13, b_4 = 49
    # internal assert covers the odd-form route; exercise t <= 10
    for t in range(1, 11):
        rank_W3_char2(t)


def test_unsigned_ideal_is_full_projective_code_dimension():
    # r=1: the formula must reproduce |P| for several (m, p, t)
    from polarank.geometry import point_count

    for (m, p, t) in [(2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 3, 1)]:
        assert rank_point_flat(m, p, t, 1) == point_count(m, p**t)


def test_dim_Y_unsigned_examples():
    h = HType(3, 3, 1, (4,), 0)
    assert dim_Y_unsigned(h) == 342  # 21 + 90 + 141 + 90
    h = HType(2, 3, 1, (1,), 0)
    assert dim_Y_unsigned(h) == 10


def test_composite_p_rejected_on_formula_paths():
    from polarank.errors import CompositeP

    with pytest.raises(CompositeP):
        rank_point_flat(2, 9, 1, 2)
    with pytest.raises(CompositeP):
        build_D_matrix(2, 15)
    with pytest.raises(CompositeP):
        rank_W3_closed_form(21, 1)
