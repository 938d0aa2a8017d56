"""The algebra k[V] of functions on V with its symplectic group action.

Functions are sparse coefficient dictionaries over the basis monomials
(exponent of each coordinate at most q-1); multiplying functions reduces an
exponent e >= q by e -> e - (q-1), which preserves q-1 and never creates a
spurious 0.  The group acts by coordinate substitution, the convention the
shift-operator computations are written in: act(g, f) replaces coordinate i
by the linear form read off column i of g's matrix, and
act(g*h, f) = act(g, act(h, f)).

The shift operators and digit projectors are group-ring elements built from
transvections of the (x_1, y_1) plane, which fix every other coordinate.  Each
is kept as a PlaneOperator: the images of the q^2 plane monomials
x_1^a y_1^b, built once from `act`.  Sums and products combine these
columns, and applying an operator leaves the middle exponents alone.

Scalars throughout are field codes; integer binomials and factorials enter
through the prime subfield.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import (
    ContextMismatch,
    DegreeError,
    InvariantError,
    NotSymplectic,
    RangeError,
)
from .gf import FieldSpec, binom_mod_p
from .geometry import SymplecticSpace
from .posets import LambdaType, SignedHType, h_type_from_lambda, signed_leq, type_of


class FunctionSpace:
    """Context object for k[V]: dimensions, caches, and index conventions.

    `symplectic` is V with its alternating form; building it applies the
    geometry's m >= 2 and odd-p checks.
    """

    def __init__(self, m: int, field: FieldSpec):
        self.symplectic = SymplecticSpace(m, field)
        self.m = m
        self.field = field
        self.p, self.t, self.q = field.p, field.t, field.q
        self.nvars = 2 * m
        self.codes = frozenset(range(self.q))  # the field codes, also the exponent range
        # reduced[e] = reduce_exp(e) for every exponent sum e = 0..2q-2 of a product
        self.reduced = [self.reduce_exp(e) for e in range(2 * self.q - 1)]
        self._vectors = None
        self._shift_cache = {}
        self._projector_cache = {}
        self._basis_cache = {}

    def exponents(self, alpha, beta) -> tuple:
        """Exponent tuple of x^alpha y^beta in coordinate order."""
        return tuple(alpha) + tuple(reversed(tuple(beta)))

    def reduce_exp(self, e: int) -> int:
        q = self.q
        while e >= q:
            e -= q - 1
        return e

    def all_vectors(self) -> np.ndarray:
        """Every vector of V as a (q^(2m), 2m) code array, in lexicographic order."""
        if self._vectors is None:
            n = self.nvars
            self._vectors = np.indices((self.q,) * n, dtype=self.field.dtype).reshape(n, -1).T
        return self._vectors

    def monomials(self):
        """All q^(2m) basis monomial exponent tuples."""
        return itertools.product(range(self.q), repeat=self.nvars)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FunctionSpace)
            and self.m == other.m
            and self.field is other.field
        )

    def __hash__(self):
        return hash((self.m, self.field))

    def __repr__(self):
        return f"FunctionSpace(m={self.m}, q={self.q})"


def _check_code(space: FunctionSpace, code) -> None:
    """The field's scalar tables take no range check, so a scaling checks its code once."""
    if not 0 <= code < space.q:
        raise RangeError(f"scalar {code} is not a GF({space.q}) code")


def _check_terms(space: FunctionSpace, terms: dict, width: int) -> None:
    """Keys are exponent tuples of `width` entries in [0, q), values GF(q) codes.

    The field's tables take no range check, so a stray code would later read
    a wrong entry or raise a raw IndexError; construction checks it once.
    """
    codes, q = space.codes, space.q
    if not codes.issuperset(terms.values()):
        raise RangeError(f"coefficients must be GF({q}) codes in [0, {q - 1}]")
    for e in terms:
        if len(e) != width or not codes.issuperset(e):
            raise RangeError(f"exponent tuple {e} needs {width} entries in [0, {q - 1}]")


class FunctionOnV:
    """A k-valued function on V as a sparse monomial coefficient vector."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: FunctionSpace, coeffs: dict, _trusted: bool = False):
        # _trusted: terms computed from checked operands through the field's
        # tables, valid by construction, so the hot loops skip the check
        if not _trusted:
            _check_terms(space, coeffs, space.nvars)
        self.space = space
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    @staticmethod
    def monomial(space, exps, coeff=1) -> "FunctionOnV":
        """Coefficient is a field code; use field.neg for signs."""
        return FunctionOnV(space, {tuple(exps): coeff})

    @staticmethod
    def one(space) -> "FunctionOnV":
        return FunctionOnV(space, {(0,) * space.nvars: 1}, _trusted=True)

    @staticmethod
    def zero(space) -> "FunctionOnV":
        return FunctionOnV(space, {}, _trusted=True)

    def _check(self, other):
        if self.space != other.space:
            raise ContextMismatch("functions from different (m, p, t) contexts")

    def __add__(self, other):
        self._check(other)
        add = self.space.field.add
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = add(out.get(e, 0), c)
        return FunctionOnV(self.space, out, _trusted=True)

    def __sub__(self, other):
        self._check(other)
        return self + other.scale(self.space.field.neg(1))

    def scale(self, code: int) -> "FunctionOnV":
        _check_code(self.space, code)
        mul = self.space.field.mul
        if code == 0:
            return FunctionOnV.zero(self.space)
        return FunctionOnV(
            self.space, {e: mul(code, c) for e, c in self.coeffs.items()}, _trusted=True
        )

    def __neg__(self):
        return self.scale(self.space.field.neg(1))

    def __mul__(self, other):
        return reduce_and_multiply(self, other)

    def __pow__(self, n: int):
        if n < 0:
            raise RangeError("negative powers of functions are not defined")
        result = FunctionOnV.one(self.space)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, FunctionOnV)
            and self.space == other.space
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate_all(self) -> np.ndarray:
        """Values on every vector of V, in lexicographic vector order."""
        sp = self.space
        add_t, mul_t, _, _, pow_t = sp.field.np_tables()
        vectors = sp.all_vectors()
        out = np.zeros(len(vectors), dtype=vectors.dtype)
        for exps, c in self.coeffs.items():
            vals = np.full(len(vectors), c, dtype=vectors.dtype)
            for i, e in enumerate(exps):
                if e:
                    vals = mul_t[vals, pow_t[vectors[:, i], e]]
            out = add_t[out, vals]
        return out

    def __repr__(self):
        items = sorted(self.coeffs.items())[:6]
        body = " + ".join(f"{c}*z^{e}" for e, c in items)
        more = "" if len(self.coeffs) <= 6 else f" ... ({len(self.coeffs)} terms)"
        return f"FunctionOnV[{body or '0'}{more}]"


def reduce_and_multiply(f: FunctionOnV, g: FunctionOnV) -> FunctionOnV:
    """Pointwise product on V: exponents reduced by e -> e - (q-1) while e >= q."""
    f._check(g)
    sp = f.space
    add, mul = sp.field.add, sp.field.mul
    red = sp.reduced
    out = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = tuple([red[a + b] for a, b in zip(e1, e2)])
            c = mul(c1, c2)
            prev = out.get(e, 0)
            out[e] = add(prev, c)
    return FunctionOnV(sp, out, _trusted=True)


# -- the symplectic group and its action ---------------------------------------


class GroupElement:
    """A symplectic matrix over GF(q): `matrix` is a read-only (2m, 2m) code
    array, rows and columns in coordinate order."""

    def __init__(self, space: FunctionSpace, matrix):
        n, q = space.nvars, space.q
        try:
            a = np.array(matrix)
        except ValueError:  # ragged rows
            a = None
        if a is None or a.shape != (n, n) or a.dtype.kind not in "iu":
            raise NotSymplectic(f"matrix must be a {n}x{n} array of field codes")
        if a.min() < 0 or a.max() >= q:
            raise RangeError(f"matrix entries must be GF({q}) codes in [0, {q - 1}]")
        self.space = space
        self.matrix = a.astype(space.field.dtype)
        self.matrix.flags.writeable = False
        if not _preserves_form(space, self.matrix):
            raise NotSymplectic("matrix does not preserve the alternating form")

    @staticmethod
    def identity(space) -> "GroupElement":
        return GroupElement(space, np.eye(space.nvars, dtype=space.field.dtype))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.space != other.space:
            raise ContextMismatch("group elements from different contexts")
        return GroupElement(self.space, linalg.matmul(self.space.field, self.matrix, other.matrix))


def _preserves_form(space: FunctionSpace, matrix: np.ndarray) -> bool:
    """<M e_i, M e_j> = <e_i, e_j> for all i, j, one Gram matrix comparison;
    M e_i is column i of M."""
    geo = space.symplectic
    gram = linalg.matmul(space.field, geo.form_gradient(matrix.T), matrix)
    return np.array_equal(gram, geo.form_gradient(np.eye(space.nvars, dtype=matrix.dtype)))


def symplectic_transvection(space: FunctionSpace, v, mu_code: int) -> GroupElement:
    """T_v(mu): x -> x + mu <x, v> v, the matrix I + v (mu v.G)."""
    fld, n = space.field, space.nvars
    v = np.array(v)
    if (v.shape != (n,) or v.dtype.kind not in "iu" or v.min() < 0 or v.max() >= fld.q
            or not 0 <= mu_code < fld.q):
        raise RangeError(f"T_v(mu) needs v a length-{n} code vector and mu a GF({fld.q}) code")
    add_t, mul_t = fld.np_tables()[:2]
    outer = linalg.matmul(fld, v[:, None], mul_t[mu_code, space.symplectic.form_gradient(v)][None])
    return GroupElement(space, add_t[np.eye(n, dtype=fld.dtype), outer])


def transvection_x(space: FunctionSpace, mu_code: int) -> GroupElement:
    """T_{f_1}(-mu): substitutes x_1 -> x_1 + mu y_1 and fixes all other coordinates."""
    return symplectic_transvection(space, space.symplectic.f(1), space.field.neg(mu_code))


def transvection_y(space: FunctionSpace, mu_code: int) -> GroupElement:
    """T_{e_1}(mu): the mirror map y_1 -> y_1 + mu x_1."""
    return symplectic_transvection(space, space.symplectic.e(1), mu_code)


@lru_cache(maxsize=200_000)
def _linear_form_power(space, terms, e: int) -> FunctionOnV:
    """(sum_j c_j z_j)^e as a function; terms is ((code, var index), ...).

    Cached: the same substituted columns recur across every monomial an
    operator is applied to.  Results are treated as immutable.
    """
    fld = space.field
    if e == 0:
        return FunctionOnV.one(space)
    if len(terms) == 1:
        c, j = terms[0]
        exps = [0] * space.nvars
        exps[j] = e
        return FunctionOnV(space, {tuple(exps): fld.pow(c, e)})
    if len(terms) == 2:
        # binomial expansion; exponents e-k, k are both <= q-1 already
        (c1, j1), (c2, j2) = terms
        out = {}
        for k in range(e + 1):
            b = binom_mod_p(e, k, space.p)
            if not b:
                continue
            coeff = fld.mul(b, fld.mul(fld.pow(c1, e - k), fld.pow(c2, k)))
            if not coeff:
                continue
            exps = [0] * space.nvars
            exps[j1] = e - k
            exps[j2] = k
            key = tuple(exps)
            out[key] = fld.add(out.get(key, 0), coeff)
        return FunctionOnV(space, out)
    coeffs = {}
    for c, j in terms:
        exps = [0] * space.nvars
        exps[j] = 1
        coeffs[tuple(exps)] = c
    return FunctionOnV(space, coeffs) ** e


def act(g: GroupElement, f: FunctionOnV) -> FunctionOnV:
    """Coordinate substitution action; multiplicative: act(g*h, f) = act(g, act(h, f))."""
    if g.space != f.space:
        raise ContextMismatch("group element and function contexts differ")
    sp = f.space
    fld = sp.field
    n = sp.nvars
    mat = g.matrix.tolist()
    # column i of the matrix is the linear form substituted for coordinate i
    columns = []
    for i in range(n):
        col = tuple((mat[j][i], j) for j in range(n) if mat[j][i])
        columns.append(col)
    identity_cols = [len(c) == 1 and c[0] == (1, i) for i, c in enumerate(columns)]
    out = FunctionOnV.zero(sp)
    for exps, coeff in f.coeffs.items():
        pieces = None
        plain = [0] * n
        for i, e in enumerate(exps):
            if not e:
                continue
            if identity_cols[i]:
                plain[i] = e
                continue
            piece = _linear_form_power(sp, columns[i], e)
            pieces = piece if pieces is None else pieces * piece
        term = FunctionOnV(sp, {tuple(plain): coeff})
        if pieces is not None:
            term = term * pieces
        out = out + term
    return out


# -- plane operators -------------------------------------------------------------


class PlaneOperator:
    """A linear operator on k[V] that moves only the (x_1, y_1) exponents.

    columns[a*q + b] is the image of x_1^a y_1^b as a sparse
    {(a', b'): code} dict, checked at construction.  `apply` sends each
    monomial through the column of its (x_1, y_1) exponents and leaves the
    middle exponents alone; sums, scalings and products combine columns, and
    (A * B).apply(f) == A.apply(B.apply(f)).
    """

    __slots__ = ("space", "columns")

    def __init__(self, space: FunctionSpace, columns: list, _trusted: bool = False):
        # _trusted: columns combined from checked operators, as for FunctionOnV
        if not _trusted:
            if len(columns) != space.q**2:
                raise RangeError(f"a plane operator needs {space.q**2} columns, got {len(columns)}")
            for col in columns:
                _check_terms(space, col, 2)
        self.space = space
        self.columns = columns

    @staticmethod
    def identity(space) -> "PlaneOperator":
        q = space.q
        return PlaneOperator(space, [{(a, b): 1} for a in range(q) for b in range(q)], _trusted=True)

    def _check(self, other):
        if self.space != other.space:
            raise ContextMismatch("operators or functions from different contexts")

    def __mul__(self, other: "PlaneOperator") -> "PlaneOperator":
        self._check(other)
        add, mul = self.space.field.add, self.space.field.mul
        q, left = self.space.q, self.columns
        out = []
        for col in other.columns:
            acc = {}
            for (a, b), c in col.items():
                for key, c2 in left[a * q + b].items():
                    acc[key] = add(acc.get(key, 0), mul(c, c2))
            out.append({key: c for key, c in acc.items() if c})
        return PlaneOperator(self.space, out, _trusted=True)

    def _plus(self, other: "PlaneOperator", code: int) -> "PlaneOperator":
        """self + code * other."""
        self._check(other)
        add, mul = self.space.field.add, self.space.field.mul
        out = []
        for mine, theirs in zip(self.columns, other.columns):
            acc = dict(mine)
            for key, c in theirs.items():
                acc[key] = add(acc.get(key, 0), mul(code, c))
            out.append({key: c for key, c in acc.items() if c})
        return PlaneOperator(self.space, out, _trusted=True)

    def __add__(self, other: "PlaneOperator") -> "PlaneOperator":
        return self._plus(other, 1)

    def __sub__(self, other: "PlaneOperator") -> "PlaneOperator":
        return self._plus(other, self.space.field.neg(1))

    def scaled(self, code: int) -> "PlaneOperator":
        _check_code(self.space, code)
        mul = self.space.field.mul
        # a field has no zero divisors, so only code 0 creates zero entries
        return PlaneOperator(
            self.space,
            [{key: mul(code, c) for key, c in col.items()} if code else {} for col in self.columns],
            _trusted=True,
        )

    def apply(self, f: FunctionOnV) -> FunctionOnV:
        self._check(f)
        add, mul = self.space.field.add, self.space.field.mul
        q = self.space.q
        out = {}
        for exps, coeff in f.coeffs.items():
            middle = exps[1:-1]
            for (a, b), c in self.columns[exps[0] * q + exps[-1]].items():
                key = (a,) + middle + (b,)
                out[key] = add(out.get(key, 0), mul(coeff, c))
        return FunctionOnV(self.space, out, _trusted=True)


def _shift_terms(space: FunctionSpace, ell: int, j: int, mirror: bool) -> PlaneOperator:
    """sum over nonzero mu of mu^(ell p^j) times the plane transvection by mu^-1.

    The transvection moves one of x_1, y_1 and fixes the other, and `act`
    is multiplicative, so the image of x_1^a y_1^b is the sum's image of the
    moved variable's power times the fixed variable's power: one `act` per
    exponent of the moved variable and per scalar.  Cached on the space.
    """
    key = (ell, j, mirror)
    cached = space._shift_cache.get(key)
    if cached is not None:
        return cached
    fld, q, n = space.field, space.q, space.nvars
    make = transvection_y if mirror else transvection_x
    moved, fixed = (n - 1, 0) if mirror else (0, n - 1)
    exp = ell * space.p**j
    terms = [(fld.pow(mu, exp), make(space, fld.inv(mu))) for mu in range(1, q)]

    def power(i, e):
        exps = [0] * n
        exps[i] = e
        return FunctionOnV(space, {tuple(exps): 1})

    columns = [None] * (q * q)
    for s in range(q):
        moved_power = power(moved, s)
        image = {}
        for c, g in terms:
            for e, c2 in act(g, moved_power).coeffs.items():
                if any(e[1:-1]):
                    raise InvariantError(f"plane transvection moved a middle variable: {e}")
                image[e] = fld.add(image.get(e, 0), fld.mul(c, c2))
        image = FunctionOnV(space, image)
        for u in range(q):
            col = image * power(fixed, u)
            columns[u * q + s if mirror else s * q + u] = {
                (e[0], e[-1]): c for e, c in col.coeffs.items()
            }
    op = PlaneOperator(space, columns)
    space._shift_cache[key] = op
    return op


def shift_operator(space: FunctionSpace, ell: int, j: int) -> PlaneOperator:
    """g_ell(j) = sum over nonzero mu of mu^(ell p^j) (x_1 -> x_1 + mu^-1 y_1)."""
    if not 1 <= ell <= space.p - 1:
        raise RangeError(f"ell={ell} outside [1, {space.p - 1}]")
    if not 0 <= j <= space.t - 1:
        raise RangeError(f"j={j} outside [0, {space.t - 1}]")
    return _shift_terms(space, ell, j, mirror=False)


def shift_mirror(space: FunctionSpace, ell: int, j: int) -> PlaneOperator:
    """h_ell(j): the same sum built on y_1 -> y_1 + mu x_1."""
    if not 1 <= ell <= space.p - 1:
        raise RangeError(f"ell={ell} outside [1, {space.p - 1}]")
    if not 0 <= j <= space.t - 1:
        raise RangeError(f"j={j} outside [0, {space.t - 1}]")
    return _shift_terms(space, ell, j, mirror=True)


def shift_predicted(space: FunctionSpace, ell: int, j: int, exps) -> FunctionOnV:
    """Closed-form image of a basis monomial under g_ell(j).

    Zero when the j-th digit of the x_1 exponent is below ell, else
    -C(a_1j, ell) times the monomial with ell p^j moved from x_1 to y_1.
    The closed form is the t > 1 statement; it also holds at t = 1 except
    for ell = p - 1, where the defining sum picks up an extra term.
    """
    exps = tuple(exps)
    p, q = space.p, space.q
    a1 = exps[0]
    digit = (a1 // p**j) % p
    if digit < ell:
        return FunctionOnV.zero(space)
    coeff = (-binom_mod_p(digit, ell, p)) % p
    new = list(exps)
    new[0] = a1 - ell * p**j
    new[-1] = space.reduce_exp(exps[-1] + ell * p**j)
    return FunctionOnV(space, {tuple(new): coeff})


def digit_projector(space: FunctionSpace, alpha: int, beta: int, j: int) -> PlaneOperator:
    """g_{alpha,beta}(j): picks out basis monomials whose (x_1, y_1) exponents
    have j-th digits (alpha, beta) or the complementary (p-1-beta, p-1-alpha).

    Built recursively from shift-operator composites: the base case
    alpha + beta = p-1 is -C(p-1, beta)^{-1} g_beta h_{p-1} g_alpha, lower
    digit sums prepend the (1 - g_{gamma,delta}) annihilators, and sums above
    p-1 reduce to the complementary pair.

    The selection property holds exactly on every monomial whose x_1 and y_1
    exponents are below q-1 (digit carries included).  On top-exponent
    inputs the defining character sums cannot distinguish exponent 0 from
    exponent q-1 and the composite mis-selects; for the digit classes
    containing a pair with both entries in {0, p-1} no element of the
    transvection-plane algebra can do better (verified by exact linear
    algebra over the 81-monomial block at q = 9).  labchecks pins both the
    interior property and the boundary confinement.
    """
    p = space.p
    if not (0 <= alpha <= p - 1 and 0 <= beta <= p - 1):
        raise RangeError(f"digits ({alpha}, {beta}) outside [0, {p - 1}]")
    if not 0 <= j <= space.t - 1:
        raise RangeError(f"j={j} outside [0, {space.t - 1}]")
    key = (alpha, beta, j)
    cached = space._projector_cache.get(key)
    if cached is not None:
        return cached
    if alpha + beta > p - 1:
        op = digit_projector(space, p - 1 - beta, p - 1 - alpha, j)
    else:
        # -C(alpha+beta, beta)^{-1} g_beta h_{alpha+beta} g_alpha, with the
        # (1 - g_{gamma,delta}) annihilators applied first when alpha+beta < p-1
        fld = space.field
        core = (
            _shift_terms(space, beta, j, mirror=False)
            * _shift_terms(space, alpha + beta, j, mirror=True)
            * _shift_terms(space, alpha, j, mirror=False)
        )
        for s in range(alpha + beta + 1, p):
            for gamma in range(0, p):
                delta = s - gamma
                if not 0 <= delta <= p - 1:
                    continue
                core = core * (
                    PlaneOperator.identity(space)
                    - digit_projector(space, gamma, delta, j)
                )
        scalar = fld.neg(fld.inv(binom_mod_p(alpha + beta, beta, p)))
        op = core.scaled(scalar)
    space._projector_cache[key] = op
    return op


def digit_projector_selects(space: FunctionSpace, alpha: int, beta: int, j: int, exps) -> bool:
    """Whether the projector should return the monomial unchanged."""
    p = space.p
    a = (exps[0] // p**j) % p
    b = (exps[-1] // p**j) % p
    return (a, b) == (alpha, beta) or (a, b) == (p - 1 - beta, p - 1 - alpha)


# -- tau and the middle-degree split -------------------------------------------


def middle_monomials(m: int, p: int) -> list:
    """(alpha, beta) multi-index pairs of total degree m(p-1), entries <= p-1."""
    out = []
    for alpha in itertools.product(range(p), repeat=m):
        rest = m * (p - 1) - sum(alpha)
        if rest < 0 or rest > m * (p - 1):
            continue
        for beta in _compositions(rest, m, p - 1):
            out.append((alpha, beta))
    out.sort()
    return out


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int, cap: int) -> tuple:
    if parts == 0:
        return ((),) if total == 0 else ()
    out = []
    for first in range(min(cap, total) + 1):
        for rest in _compositions(total - first, parts - 1, cap):
            out.append((first,) + rest)
    return tuple(out)


def tau(m: int, p: int, element: dict) -> dict:
    """The involution X^a Y^b -> (-1)^|b| a! b! X^(bbar) Y^(abar) on S^{m(p-1)}.

    `element` maps (alpha, beta) pairs to integers mod p.
    """
    mid = m * (p - 1)
    out = {}
    for (alpha, beta), c in element.items():
        if len(alpha) != m or len(beta) != m:
            raise DegreeError("multi-indices must have length m")
        if any(not 0 <= a <= p - 1 for a in alpha + beta):
            raise DegreeError("digit entries must lie in [0, p-1]")
        if sum(alpha) + sum(beta) != mid:
            raise DegreeError(f"total degree must be {mid}")
        fact = 1
        for a in alpha:
            fact = fact * math.factorial(a) % p
        for b in beta:
            fact = fact * math.factorial(b) % p
        coeff = (-1) ** sum(beta) * fact * c % p
        key = (
            tuple(p - 1 - b for b in beta),
            tuple(p - 1 - a for a in alpha),
        )
        out[key] = (out.get(key, 0) + coeff) % p
    return {k: v for k, v in out.items() if v}


def tau_eigenspace_dims(m: int, p: int) -> tuple:
    """(dim of the (-1)^m eigenspace, dim of the (-1)^(m+1) eigenspace)."""
    from .ranks import rank_mod_p

    monos = middle_monomials(m, p)
    index = {mb: i for i, mb in enumerate(monos)}
    n = len(monos)
    mat = np.zeros((n, n), dtype=np.int64)
    for i, (alpha, beta) in enumerate(monos):
        img = tau(m, p, {(alpha, beta): 1})
        for key, c in img.items():
            mat[index[key], i] = c
    sign = (-1) ** m % p
    eye = np.eye(n, dtype=np.int64)
    plus = n - rank_mod_p((mat - sign * eye) % p, p)
    minus = n - rank_mod_p((mat + sign * eye) % p, p)
    return plus, minus


# -- symplectic basis functions --------------------------------------------------


@dataclass(frozen=True)
class SymplecticBasisFunction:
    """A product of per-digit factors f_0 f_1^p ... f_{t-1}^{p^{t-1}}.

    Digit descriptors: ('mono', exps) for a plain degree-lambda_j monomial;
    at the middle degree, ('diag', alpha) for x^alpha y^(alphabar) and
    ('plus'|'minus', alpha, beta) for the paired two-term combinations.
    """

    space: FunctionSpace
    digits: tuple
    stype: SignedHType

    def expand(self) -> FunctionOnV:
        sp = self.space
        fld = sp.field
        p = sp.p
        total = {(0,) * sp.nvars: 1}
        for j, digit in enumerate(self.digits):
            scale = p**j
            parts = []
            if digit[0] == "mono":
                parts.append((digit[1], 1))
            elif digit[0] == "diag":
                alpha = digit[1]
                abar = tuple(p - 1 - a for a in alpha)
                parts.append((sp.exponents(alpha, abar), 1))
            else:
                _, alpha, beta = digit
                parts.append((sp.exponents(alpha, beta), 1))
                c = (-1) ** (sum(beta) + sp.m)
                for a in alpha:
                    c = c * math.factorial(a)
                for b in beta:
                    c = c * math.factorial(b)
                c %= p
                if digit[0] == "minus":
                    c = (-c) % p
                bbar = tuple(p - 1 - b for b in beta)
                abar = tuple(p - 1 - a for a in alpha)
                parts.append((sp.exponents(bbar, abar), c))
            new = {}
            for e1, c1 in total.items():
                for e2, c2 in parts:
                    key = tuple(a + scale * b for a, b in zip(e1, e2))
                    new[key] = fld.mul(c1, c2)
            total = new
        return FunctionOnV(sp, total)


def _mono_digit_options(space, lam_j):
    m, cap = space.m, space.p - 1
    out = [
        ("mono", space.exponents(alpha, beta))
        for s in range(min(lam_j, m * cap) + 1)
        for alpha in _compositions(s, m, cap)
        for beta in _compositions(lam_j - s, m, cap)
    ]
    out.sort()
    return out


def _digit_options(space, lam_j):
    p, m = space.p, space.m
    mid = m * (p - 1)
    if lam_j != mid:
        return _mono_digit_options(space, lam_j)
    out = []
    for alpha in itertools.product(range(p), repeat=m):
        out.append(("diag", alpha))
    for alpha, beta in middle_monomials(m, p):
        partner = (tuple(p - 1 - b for b in beta), tuple(p - 1 - a for a in alpha))
        if beta == tuple(p - 1 - a for a in alpha):
            continue  # diagonal, already listed
        if (alpha, beta) < partner:
            out.append(("plus", alpha, beta))
            out.append(("minus", alpha, beta))
    out.sort()
    return out


def symplectic_basis(space: FunctionSpace, lam) -> list:
    """All symplectic basis functions of type lambda, deterministic order."""
    lam = tuple(lam)
    cached = space._basis_cache.get(lam)
    if cached is not None:
        return cached
    hi = 2 * space.m * (space.p - 1)
    if len(lam) != space.t or any(not 0 <= l <= hi for l in lam):
        raise RangeError(f"bad type tuple {lam}")
    lt = type_of_lambda(space, lam)
    h = h_type_from_lambda(lt)
    js = h.j_set()
    options = [_digit_options(space, l) for l in lam]
    out = []
    for combo in itertools.product(*options):
        eps = frozenset(
            j for j in js if combo[j][0] in ("diag", "plus")
        )
        out.append(SymplecticBasisFunction(space, combo, SignedHType(h, eps)))
    space._basis_cache[lam] = out
    return out


def type_of_lambda(space: FunctionSpace, lam) -> LambdaType:
    """LambdaType carrier for a raw tuple (grading from the digit expansion)."""
    p, t, q = space.p, space.t, space.q
    total = sum(l * p**j for j, l in enumerate(lam))
    return LambdaType(space.m, p, t, tuple(lam), total % (q - 1))


def monomial_type(space: FunctionSpace, exps) -> tuple:
    return type_of(exps, space.m, space.p, space.t).lam


def char_function(space: FunctionSpace, sub) -> FunctionOnV:
    """Indicator function of a subspace: product of (1 - form^(q-1)).

    The subspace is a (k, 2m) generator code matrix of full rank, k = 0
    included.  The cutting linear forms are the RREF basis of the
    annihilator of the generator matrix under the standard dot product.
    """
    fld = space.field
    gens = linalg.as_code_matrix(fld, sub).reshape(-1, space.nvars)
    forms = linalg.nullspace(fld, gens).tolist()
    if len(forms) + len(gens) != space.nvars:
        raise InvariantError(f"{len(forms)} cutting forms for a {len(gens)}-space in {space.nvars} vars")
    out = FunctionOnV.one(space)
    for form in forms:
        lin = FunctionOnV(
            space,
            {
                tuple(1 if k == i else 0 for k in range(space.nvars)): c
                for i, c in enumerate(form)
                if c
            },
        )
        out = out * (FunctionOnV.one(space) - lin ** (space.q - 1))
    return out


def symplectic_basis_matrix(space: FunctionSpace, lam) -> tuple[dict, np.ndarray]:
    """(index, A) for the symplectic basis of type lambda: index numbers the
    monomials its functions expand into, in sorted order, and column k of the
    code matrix A holds the coefficients of basis function k."""
    expanded = [b.expand().coeffs for b in symplectic_basis(space, lam)]
    index = {e: i for i, e in enumerate(sorted({e for coeffs in expanded for e in coeffs}))}
    a = np.zeros((len(index), len(expanded)), dtype=space.field.dtype)
    for k, coeffs in enumerate(expanded):
        for e, c in coeffs.items():
            a[index[e], k] = c
    return index, a


def expand_in_symplectic_basis(f: FunctionOnV) -> list:
    """Exact expansion of f as [(code, SymplecticBasisFunction), ...]."""
    sp = f.space
    fld = sp.field
    by_type = {}
    for exps, c in f.coeffs.items():
        by_type.setdefault(monomial_type(sp, exps), {})[exps] = c
    out = []
    for lam, block in sorted(by_type.items()):
        basis = symplectic_basis(sp, lam)
        index, a = symplectic_basis_matrix(sp, lam)
        rhs = np.zeros(len(index), dtype=a.dtype)
        for e, c in block.items():
            rhs[index[e]] = c
        sol = linalg.solve(fld, a, rhs)
        if sol is None:
            raise InvariantError(f"symplectic basis does not span type {lam}")
        for kcol, b in enumerate(basis):
            if sol[kcol]:
                out.append((int(sol[kcol]), b))
    return out


def signed_support(expansion) -> list:
    seen = {}
    for _, b in expansion:
        seen[b.stype.key()] = b.stype
    return [seen[k] for k in sorted(seen)]


def maximal_signed_types(types) -> list:
    out = []
    for a in types:
        if not any(a is not b and signed_leq(a, b) for b in types):
            out.append(a)
    return out
