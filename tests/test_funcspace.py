import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarank import funcspace as fs
from polarank.dimensions import dim_S_plus_minus, dimension_table
from polarank.errors import ContextMismatch, DegreeError, InvariantError, NotSymplectic, RangeError
from polarank.gf import build_field


@pytest.fixture(scope="module")
def sp9():
    return fs.FunctionSpace(2, build_field(3, 2))


@pytest.fixture(scope="module")
def sp3():
    return fs.FunctionSpace(2, build_field(3, 1))


def mono(space, exps, coeff=1):
    return fs.FunctionOnV.monomial(space, exps, coeff)


# -- multiplication / reduction --------------------------------------------------


def test_reduce_rules(sp9):
    x = mono(sp9, (1, 0, 0, 0))
    x8 = mono(sp9, (8, 0, 0, 0))
    assert x8 * x == x  # x^9 = x
    assert x8 * x8 == x8  # 16 -> 8
    one = fs.FunctionOnV.one(sp9)
    f = mono(sp9, (3, 1, 0, 2), coeff=5)
    assert f * one == f


def test_reduction_never_reaches_zero_exponent(sp9):
    for e1 in range(1, 9):
        for e2 in range(1, 9):
            prod = mono(sp9, (e1, 0, 0, 0)) * mono(sp9, (e2, 0, 0, 0))
            (exps,) = prod.coeffs
            assert 1 <= exps[0] <= 8


def test_multiplication_is_pointwise(sp9):
    rng = random.Random(0)
    for _ in range(5):
        f = fs.FunctionOnV(
            sp9, {tuple(rng.randrange(9) for _ in range(4)): rng.randrange(1, 9)}
        )
        g = fs.FunctionOnV(
            sp9, {tuple(rng.randrange(9) for _ in range(4)): rng.randrange(1, 9)}
        )
        vals = (f * g).evaluate_all()
        mul_t = sp9.field.np_tables()[1]
        assert (vals == mul_t[f.evaluate_all(), g.evaluate_all()]).all()


def test_context_mismatch(sp9, sp3):
    with pytest.raises(ContextMismatch):
        fs.FunctionOnV.one(sp9) * fs.FunctionOnV.one(sp3)


# -- group elements and action ----------------------------------------------------


def test_transvection_is_symplectic_and_acts(sp9):
    g = fs.transvection_x(sp9, 1)
    x1 = mono(sp9, (1, 0, 0, 0))
    image = fs.act(g, x1)
    # x1 -> x1 + y1
    assert image == mono(sp9, (1, 0, 0, 0)) + mono(sp9, (0, 0, 0, 1))
    assert fs.act(fs.GroupElement.identity(sp9), x1) == x1


def test_not_symplectic_rejected(sp9):
    bad = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    bad[0][0] = 2  # x1 -> 2 x1 alone does not preserve <e1, f1>
    with pytest.raises(NotSymplectic):
        fs.GroupElement(sp9, tuple(tuple(r) for r in bad))
    bad[0][0] = 9  # not a GF(9) code
    with pytest.raises(RangeError):
        fs.GroupElement(sp9, bad)
    bad[0][0] = -1
    with pytest.raises(RangeError):
        fs.GroupElement(sp9, bad)
    for shape in ([[1, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0, 1]], np.eye(3, dtype=int), [[0.5] * 4] * 4):
        with pytest.raises(NotSymplectic):
            fs.GroupElement(sp9, shape)
    with pytest.raises(RangeError):
        fs.symplectic_transvection(sp9, (9, 0, 0, 0), 1)
    with pytest.raises(RangeError):
        fs.symplectic_transvection(sp9, (1, 0, 0, 0), 9)
    identity = fs.GroupElement.identity(sp9)
    with pytest.raises(ValueError):
        identity.matrix[0, 0] = 2  # read-only: a checked matrix stays symplectic


def test_scalings_reject_codes_outside_the_field(sp9):
    # the field's scalar tables are unchecked: mul(1, 9) at q = 9 reads 0
    f = mono(sp9, (1, 2, 0, 3), coeff=4)
    op = fs.PlaneOperator.identity(sp9)
    for code in (9, -1, 100):
        with pytest.raises(RangeError):
            f.scale(code)
        with pytest.raises(RangeError):
            op.scaled(code)
    assert f.scale(0) == fs.FunctionOnV.zero(sp9)
    assert f.scale(8).coeffs == {(1, 2, 0, 3): sp9.field.mul(8, 4)}
    assert op.scaled(8).apply(f) == f.scale(8)


def test_action_multiplicative_and_pointwise(sp9):
    import numpy as np

    rng = random.Random(42)

    def sparse_transvection():
        # direction with at most two nonzero coordinates: columns stay short
        while True:
            v = [0, 0, 0, 0]
            for i in rng.sample(range(4), rng.choice([1, 2])):
                v[i] = rng.randrange(1, 9)
            if any(v):
                return fs.symplectic_transvection(sp9, tuple(v), rng.randrange(1, 9))

    def dense_transvection():
        while True:
            v = tuple(rng.randrange(1, 9) for _ in range(4))
            return fs.symplectic_transvection(sp9, v, rng.randrange(1, 9))

    vectors = sp9.all_vectors()
    key = {tuple(v): k for k, v in enumerate(vectors.tolist())}
    add_t, mul_t = sp9.field.np_tables()[:2]

    def pointwise_ok(g, f):
        mt = g.matrix
        transformed = np.zeros_like(vectors)
        for i in range(4):
            acc = np.zeros(len(vectors), dtype=vectors.dtype)
            for j in range(4):
                if mt[j][i]:
                    acc = add_t[acc, mul_t[mt[j][i], vectors[:, j]]]
            transformed[:, i] = acc
        perm = [key[tuple(row)] for row in transformed.tolist()]
        return (fs.act(g, f).evaluate_all() == f.evaluate_all()[perm]).all()

    def rand_function(k, emax):
        return fs.FunctionOnV(
            sp9,
            {tuple(rng.randrange(emax + 1) for _ in range(4)): rng.randrange(1, 9) for _ in range(k)},
        )

    for _ in range(30):
        g, h = sparse_transvection(), sparse_transvection()
        f = rand_function(4, 8)
        assert fs.act(g * h, f) == fs.act(g, fs.act(h, f))
        assert pointwise_ok(g, f)
    # a few dense directions on lower-degree functions
    for _ in range(3):
        g, h = dense_transvection(), sparse_transvection()
        f = rand_function(2, 4)
        assert fs.act(g * h, f) == fs.act(g, fs.act(h, f))
        assert pointwise_ok(g, f)


# -- shift operators ---------------------------------------------------------------


def test_constructors_reject_codes_outside_the_field(sp9):
    # a stored code of 9 at q = 9 made `f + f` read past the add table
    for coeffs in ({(1, 0, 0, 0): 9}, {(1, 0, 0, 0): -1}, {(1, 0, 0, 0): 2.5},
                   {(9, 0, 0, 0): 1}, {(9, 0, 0, 0): 0}, {(1, 0, 0): 1}, {(1, 0, -1, 0): 1}):
        with pytest.raises(RangeError):
            fs.FunctionOnV(sp9, coeffs)
    f = fs.FunctionOnV(sp9, {(1, 0, 0, 0): 8, (0, 1, 0, 0): 0})
    assert (f + f).coeffs == {(1, 0, 0, 0): sp9.field.add(8, 8)}
    identity = fs.PlaneOperator.identity(sp9).columns
    for columns in (identity[:-1], [{(0, 0): 9}] + identity[1:], [{(0, 9): 1}] + identity[1:],
                    [{(0, 0, 0): 1}] + identity[1:]):
        with pytest.raises(RangeError):
            fs.PlaneOperator(sp9, columns)
    assert fs.PlaneOperator(sp9, list(identity)).apply(f) == f


def test_shift_examples(sp9):
    x1 = mono(sp9, (1, 0, 0, 0))
    g1 = fs.shift_operator(sp9, 1, 0)
    minus_y1 = mono(sp9, (0, 0, 0, 1), coeff=2)
    assert g1.apply(x1) == minus_y1
    assert fs.shift_operator(sp9, 2, 0).apply(x1).is_zero()
    with pytest.raises(RangeError):
        fs.shift_operator(sp9, 0, 0)
    with pytest.raises(RangeError):
        fs.shift_operator(sp9, 3, 0)
    with pytest.raises(RangeError):
        fs.shift_operator(sp9, 1, 2)


def test_shift_closed_form_exhaustive_q9(sp9):
    ops = {
        (ell, j): fs.shift_operator(sp9, ell, j)
        for ell in (1, 2)
        for j in (0, 1)
    }
    for exps in sp9.monomials():
        f = fs.FunctionOnV(sp9, {exps: 1})
        for (ell, j), op in ops.items():
            got = op.apply(f)
            assert got == fs.shift_predicted(sp9, ell, j, exps)
            assert all(c < 3 for c in got.coeffs.values())  # prime-field output


def test_shift_closed_form_sampled_q25():
    sp25 = fs.FunctionSpace(2, build_field(5, 2))
    rng = random.Random(17)
    monos = [tuple(rng.randrange(25) for _ in range(4)) for _ in range(500)]
    for ell in range(1, 5):
        for j in (0, 1):
            op = fs.shift_operator(sp25, ell, j)
            for exps in monos:
                got = op.apply(fs.FunctionOnV(sp25, {exps: 1}))
                assert got == fs.shift_predicted(sp25, ell, j, exps)


def test_mirror_shift(sp9):
    y1 = mono(sp9, (0, 0, 0, 1))
    h1 = fs.shift_mirror(sp9, 1, 0)
    assert h1.apply(y1) == mono(sp9, (1, 0, 0, 0), coeff=2)


# -- tau and the split ---------------------------------------------------------------


def test_tau_involution_and_example():
    m, p = 2, 3
    image = fs.tau(m, p, {((2, 2), (0, 0)): 1})
    # alpha=(2,2), beta=(0,0): 2!2! = 4 = 1 mod 3, betabar=(2,2), alphabar=(0,0)
    assert image == {((2, 2), (0, 0)): 1}
    for alpha, beta in fs.middle_monomials(m, p):
        elem = {(alpha, beta): 1}
        assert fs.tau(m, p, fs.tau(m, p, elem)) == elem
    with pytest.raises(DegreeError):
        fs.tau(m, p, {((0, 0), (0, 0)): 1})


def test_tau_eigenspace_dims():
    assert fs.tau_eigenspace_dims(2, 3) == (14, 5) == dim_S_plus_minus(2, 3)
    assert fs.tau_eigenspace_dims(3, 3) == (84, 57) == dim_S_plus_minus(3, 3)


# -- symplectic basis -----------------------------------------------------------------


def test_basis_counts_t1(sp3):
    basis = fs.symplectic_basis(sp3, (4,))
    assert len(basis) == 19
    diag = [b for b in basis if b.digits[0][0] == "diag"]
    plus = [b for b in basis if b.digits[0][0] == "plus"]
    minus = [b for b in basis if b.digits[0][0] == "minus"]
    assert (len(diag), len(plus), len(minus)) == (9, 5, 5)
    # signature split must match dim S+/-
    with_plus = [b for b in basis if 0 in b.stype.eps]
    assert (len(with_plus), len(basis) - len(with_plus)) == (14, 5)


def test_basis_types_without_middle_digit_are_monomials(sp3):
    basis = fs.symplectic_basis(sp3, (2,))
    assert len(basis) == 10
    assert all(b.digits[0][0] == "mono" for b in basis)
    assert all(len(b.expand().coeffs) == 1 for b in basis)


def test_basis_span_per_type_q9(sp9):
    import numpy as np

    from polarank.ranks import rank_mod_p

    table = dimension_table(2, 3)
    for lam in [(4, 4), (4, 2), (2, 4), (8, 4), (3, 3)]:
        basis = fs.symplectic_basis(sp9, lam)
        expect = table[lam[0]] * table[lam[1]]
        assert len(basis) == expect
        monos = sorted({e for b in basis for e in b.expand().coeffs})
        assert len(monos) == expect
        index = {e: i for i, e in enumerate(monos)}
        mat = np.zeros((expect, expect), dtype=np.int64)
        for k, b in enumerate(basis):
            for e, c in b.expand().coeffs.items():
                mat[index[e], k] = c
        assert rank_mod_p(mat, 3) == expect


def test_expand_single_plain_monomial_is_itself(sp9):
    f = mono(sp9, (1, 2, 0, 0))
    [(c, b)] = fs.expand_in_symplectic_basis(f)
    assert c == 1 and b.expand() == f


def test_expand_without_solution_raises(sp9, monkeypatch):
    monkeypatch.setattr(fs.linalg, "solve", lambda *args: None)
    with pytest.raises(InvariantError):
        fs.expand_in_symplectic_basis(mono(sp9, (1, 2, 0, 0)))


# -- characteristic functions -----------------------------------------------------------


def lagrangian_x_zero(space):
    """The subspace x_1 = x_2 = 0 as a row space."""
    rows = []
    for i in range(space.m, space.nvars):
        row = [0] * space.nvars
        row[i] = 1
        rows.append(tuple(row))
    return np.array(rows)


def test_char_function_whole_space_and_zero(sp9):
    whole = np.eye(4, dtype=int)
    assert fs.char_function(sp9, whole) == fs.FunctionOnV.one(sp9)
    zero_sub = np.zeros((0, 4), dtype=int)
    chi = fs.char_function(sp9, zero_sub)
    vals = chi.evaluate_all()
    assert vals[0] == 1 and not vals[1:].any()


def test_char_function_is_indicator(sp9):
    sub = lagrangian_x_zero(sp9)
    chi = fs.char_function(sp9, sub)
    vals = chi.evaluate_all()
    import numpy as np

    vectors = sp9.all_vectors()
    inside = (vectors[:, 0] == 0) & (vectors[:, 1] == 0)
    assert (vals[inside] == 1).all()
    assert not vals[~inside].any()


def test_lagrangian_char_leading_type(sp9):
    chi = fs.char_function(sp9, lagrangian_x_zero(sp9))
    f = chi - fs.FunctionOnV.one(sp9)
    expansion = fs.expand_in_symplectic_basis(f)
    types = fs.signed_support(expansion)
    maxima = fs.maximal_signed_types(types)
    assert len(maxima) == 1
    assert maxima[0].s == (2, 2) and maxima[0].eps == frozenset({0, 1})
    # the leading basis function is the monomial x1^8 x2^8
    leading = [b for c, b in expansion if b.stype.key() == maxima[0].key()]
    assert any(b.expand() == mono(sp9, (8, 8, 0, 0)) for b in leading)


def test_isotropic_line_char_leading_type_w53():
    sp = fs.FunctionSpace(3, build_field(3, 1))
    # L: x1 = x2 = x3 = 0 and y1 = 0, an isotropic 2-space (r = 2, m = 3)
    rows = []
    for i in (3, 4):  # coordinates y3, y2
        row = [0] * 6
        row[i] = 1
        rows.append(tuple(row))
    sub = np.array(rows)
    chi = fs.char_function(sp, sub)
    f = chi - fs.FunctionOnV.one(sp)
    expansion = fs.expand_in_symplectic_basis(f)
    maxima = fs.maximal_signed_types(fs.signed_support(expansion))
    assert len(maxima) == 1
    assert maxima[0].s == (4,) and maxima[0].eps == frozenset()


def test_sp_invariance_desk_scale(sp3):
    from polarank.labchecks import sp_invariance_check

    report = sp_invariance_check(sp3)
    assert report["passed"], report


def test_shift_operators_equal_defining_sum_q9(sp9):
    # every plane monomial times a fixed middle monomial, through the
    # defining sum of transvections acting on the whole function
    fld = sp9.field
    for mirror, build, make in (
        (False, fs.shift_operator, fs.transvection_x),
        (True, fs.shift_mirror, fs.transvection_y),
    ):
        for ell in (1, 2):
            for j in (0, 1):
                op = build(sp9, ell, j)
                for a in range(9):
                    for b in range(9):
                        f = fs.FunctionOnV(sp9, {(a, 2, 5, b): 1})
                        want = fs.FunctionOnV.zero(sp9)
                        for mu in range(1, 9):
                            image = fs.act(make(sp9, fld.inv(mu)), f)
                            want = want + image.scale(fld.pow(mu, ell * 3**j))
                        assert op.apply(f) == want, (mirror, ell, j, a, b)


def test_shift_rejects_transvection_moving_middle_variable(monkeypatch):
    space = fs.FunctionSpace(2, build_field(3, 1))
    # direction y_1 + x_2: the substitution for x_1 picks up an x_2 term
    monkeypatch.setattr(
        fs, "transvection_x",
        lambda sp, mu: fs.symplectic_transvection(sp, (0, 1, 0, 1), mu),
    )
    with pytest.raises(InvariantError):
        fs.shift_operator(space, 1, 0)


def test_group_ring_algebra_on_functions(sp9, sp3):
    one = fs.PlaneOperator.identity(sp9)
    g1 = fs.shift_operator(sp9, 1, 0)
    h1 = fs.shift_mirror(sp9, 1, 0)
    f = fs.FunctionOnV.monomial(sp9, (4, 1, 0, 3))
    lhs = (one - g1).apply(f)
    rhs = f - g1.apply(f)
    assert lhs == rhs
    assert (g1 + h1.scaled(5)).apply(f) == g1.apply(f) + h1.apply(f).scale(5)
    assert g1.scaled(0).apply(f).is_zero()
    # g1 and h1 do not commute on f, so the composition order is pinned
    assert not h1.apply(g1.apply(f)).is_zero() and g1.apply(h1.apply(f)).is_zero()
    assert (h1 * g1).apply(f) == h1.apply(g1.apply(f))
    assert (g1 * h1).apply(f) == g1.apply(h1.apply(f))
    with pytest.raises(ContextMismatch):
        one * fs.PlaneOperator.identity(sp3)
    with pytest.raises(ContextMismatch):
        one.apply(fs.FunctionOnV.one(sp3))


# -- array kernels against the per-term references ---------------------------------

SPACES = {9: fs.FunctionSpace(2, build_field(3, 2)), 25: fs.FunctionSpace(2, build_field(5, 2))}


def reference_evaluate_all(f):
    """Values on every vector of V, one monomial term at a time."""
    sp = f.space
    add_t, mul_t, _, _, pow_t = sp.field.np_tables()
    vectors = sp.all_vectors()
    out = np.zeros(len(vectors), dtype=vectors.dtype)
    for exps, c in f.coeffs.items():
        vals = np.full(len(vectors), c, dtype=vectors.dtype)
        for i, e in enumerate(exps):
            if e:
                vals = mul_t[vals, pow_t[vectors[:, i], e]]
        out = add_t[out, vals]
    return out


def reference_multiply(f, g):
    """The product as a dictionary loop over pairs of terms."""
    sp = f.space
    add, mul = sp.field.add, sp.field.mul
    out = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = tuple(sp.reduce_exp(a + b) for a, b in zip(e1, e2))
            out[e] = add(out.get(e, 0), mul(c1, c2))
    return {e: c for e, c in out.items() if c}


def reference_act(g, f):
    """Coordinate substitution, one monomial and one linear-form power at a time."""
    sp = f.space
    n, mat = sp.nvars, g.matrix.tolist()
    out = fs.FunctionOnV.zero(sp)
    for exps, coeff in f.coeffs.items():
        term = {(0,) * n: coeff}
        for i, e in enumerate(exps):
            form = {tuple(int(k == j) for k in range(n)): mat[j][i] for j in range(n) if mat[j][i]}
            for _ in range(e):
                term = reference_multiply(fs.FunctionOnV(sp, term), fs.FunctionOnV(sp, form))
        out = out + fs.FunctionOnV(sp, term)
    return out


def functions(q, max_terms=12):
    """Random functions at q, top exponents q-1 and repeated keys included."""
    exps = st.tuples(*[st.integers(0, q - 1)] * 4)
    return st.dictionaries(exps, st.integers(0, q - 1), max_size=max_terms).map(
        lambda coeffs: fs.FunctionOnV(SPACES[q], coeffs)
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data(), q=st.sampled_from([9, 25]))
def test_product_matches_reference(data, q):
    f, g = data.draw(functions(q)), data.draw(functions(q))
    # t = 2: a keyed sum that added codes as integers would fail here
    assert (f * g).coeffs == reference_multiply(f, g)
    assert (f * g) == fs.FunctionOnV(SPACES[q], reference_multiply(f, g))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), q=st.sampled_from([9, 25]))
def test_evaluate_all_matches_reference(data, q):
    f = data.draw(functions(q, max_terms=6))
    assert np.array_equal(f.evaluate_all(), reference_evaluate_all(f))


@pytest.mark.parametrize("q", [9, 25])
def test_kernels_on_zero_single_and_top_terms(q):
    sp = SPACES[q]
    top = q - 1
    zero, one = fs.FunctionOnV.zero(sp), fs.FunctionOnV.one(sp)
    cases = [
        zero,
        one,
        mono(sp, (top, top, top, top), coeff=top),
        mono(sp, (top, 0, 1, top), coeff=2),
        fs.FunctionOnV(sp, {(top, 0, 0, 0): 1, (0, 0, 0, 0): sp.field.neg(1)}),
    ]
    for f in cases:
        assert np.array_equal(f.evaluate_all(), reference_evaluate_all(f))
        for g in cases:
            assert (f * g).coeffs == reference_multiply(f, g)
    assert (zero * cases[2]).is_zero() and not zero.evaluate_all().any()
    # x^(q-1) * x = x: the exponent sum q reduces to 1, never to 0
    assert mono(sp, (top, 0, 0, 0)) * mono(sp, (1, 0, 0, 0)) == mono(sp, (1, 0, 0, 0))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_act_matches_reference(data):
    sp = SPACES[9]
    f = data.draw(functions(9, max_terms=4))
    v = data.draw(st.tuples(*[st.integers(0, 8)] * 4).filter(any))
    g = fs.symplectic_transvection(sp, v, data.draw(st.integers(1, 8)))
    assert fs.act(g, f) == reference_act(g, f)


def test_evaluate_all_refuses_spaces_past_the_cap():
    sp = fs.FunctionSpace(3, build_field(5, 2))  # 25^6 cells, about 244 M
    with pytest.raises(RangeError, match=str(fs.EVALUATION_CELLS)):
        fs.FunctionOnV.one(sp).evaluate_all()
    # the products still run there: they touch only the terms
    x = mono(sp, (24, 0, 0, 0, 0, 1))
    assert x * x == mono(sp, (24, 0, 0, 0, 0, 2))


def test_monomial_keys_must_fit_int64():
    with pytest.raises(RangeError, match="overflow"):
        fs.FunctionSpace(4, build_field(3, 6))  # 729^8 > 2^63


def test_apply_batch_matches_apply_q9(sp9):
    ops = [fs.shift_operator(sp9, ell, j) for ell in (1, 2) for j in (0, 1)]
    ops += [fs.shift_mirror(sp9, ell, j) for ell in (1, 2) for j in (0, 1)]
    ops += [fs.digit_projector(sp9, a, b, j) for a in range(3) for b in range(3) for j in (0, 1)]
    monos = np.array([(a, u, v, b) for a in range(9) for b in range(9) for u, v in ((0, 0), (2, 5), (8, 8))])
    for op in ops:
        src, images, codes = op.apply_batch(monos)
        assert (np.diff(src) >= 0).all()
        for row, exps in enumerate(monos.tolist()):
            got = {tuple(e): c for e, c in zip(images[src == row].tolist(), codes[src == row].tolist())}
            assert got == op.apply(fs.FunctionOnV(sp9, {tuple(exps): 1})).coeffs
    with pytest.raises(RangeError):
        ops[0].apply_batch(np.array([[9, 0, 0, 0]]))
    with pytest.raises(RangeError):
        ops[0].apply_batch(np.array([[1, 0, 0]]))


def test_closed_forms_as_arrays_match_per_monomial(sp9):
    monos = np.array(list(sp9.monomials()))
    for ell in (1, 2):
        for j in (0, 1):
            hit, images, codes = fs.shift_predicted_terms(sp9, ell, j, monos)
            for row in range(0, len(monos), 7):
                want = fs.shift_predicted(sp9, ell, j, tuple(monos[row].tolist()))
                got = {tuple(images[row].tolist()): int(codes[row])} if hit[row] else {}
                assert got == want.coeffs
    for alpha, beta, j in itertools.product(range(3), range(3), (0, 1)):
        selects = fs.digit_projector_selects(sp9, alpha, beta, j, monos)
        assert selects.tolist() == [
            bool(fs.digit_projector_selects(sp9, alpha, beta, j, tuple(e))) for e in monos.tolist()
        ]
