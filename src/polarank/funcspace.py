"""The algebra k[V] of functions on V with its symplectic group action.

A function is a GF(q) combination of the basis monomials (exponent of each
coordinate at most q-1).  It is held either as a coefficient dictionary
{exponent tuple: code} or as a pair of arrays -- an (k, 2m) exponent array,
sorted by base-q monomial key, and its k nonzero codes -- and each form is
built from the other on first use.  The products and the action work on the
arrays: a product is one outer sum of the two exponent arrays through the
reduction table (e -> e - (q-1) while e >= q, which preserves q-1 and never
creates a spurious 0), one outer product of the codes, and one GF(q) keyed
sum over the monomial keys (`linalg.keyed_sum`).  Evaluation on all of V is
a separable transform: the coefficients scattered into a (q,)*2m tensor,
each axis contracted with the power table.

The group acts by coordinate substitution, the convention the
shift-operator computations are written in: act(g, f) replaces coordinate i
by the linear form read off column i of g's matrix, and
act(g*h, f) = act(g, act(h, f)).

The shift operators and digit projectors are group-ring elements built from
transvections of the (x_1, y_1) plane, which fix every other coordinate.  Each
is kept as a PlaneOperator: the images of the q^2 plane monomials
x_1^a y_1^b, built once from `act`.  Sums and products combine these
columns, and applying an operator leaves the middle exponents alone;
`apply_batch` sends a whole (N, 2m) exponent array through in one pass.

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

# largest q^(2m) that evaluate_all tabulates: it holds one code per vector of V
EVALUATION_CELLS = 1 << 24
# exponent pairs of one product handled at once: bounds its temporaries
CHUNK_PAIRS = 1 << 14


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
        self.reduced = np.array([self.reduce_exp(e) for e in range(2 * self.q - 1)], dtype=field.dtype)
        if self.q**self.nvars > np.iinfo(np.int64).max:
            raise RangeError(f"monomial keys of q^(2m) = {self.q}^{self.nvars} overflow int64")
        # the base-q key of an exponent row is exps @ place, its index in lexicographic order
        self.place = self.q ** np.arange(self.nvars - 1, -1, -1, dtype=np.int64)
        self._vectors = None
        self._plane_images = {}
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

    def keys(self, exps: np.ndarray) -> np.ndarray:
        """Base-q monomial key of every row of an (k, 2m) exponent array."""
        return exps @ self.place

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
    """A k-valued function on V as a sparse monomial coefficient vector.

    `coeffs` is the {exponent tuple: code} dictionary and `terms()` the
    sorted (exponents, codes) arrays; either is built from the other on
    first use.  Functions are immutable.
    """

    __slots__ = ("space", "_coeffs", "_terms")

    def __init__(self, space: FunctionSpace, coeffs: dict, _trusted: bool = False):
        # _trusted: terms computed from checked operands through the field's
        # tables, valid by construction, so the hot loops skip the check
        if not _trusted:
            _check_terms(space, coeffs, space.nvars)
        self.space = space
        self._coeffs = {e: c for e, c in coeffs.items() if c}
        self._terms = None

    @classmethod
    def _from_terms(cls, space: FunctionSpace, exps: np.ndarray, codes: np.ndarray) -> "FunctionOnV":
        """From arrays already in `terms()` form: rows sorted by key, distinct, codes nonzero."""
        f = cls.__new__(cls)
        f.space, f._coeffs, f._terms = space, None, (exps, codes)
        return f

    @property
    def coeffs(self) -> dict:
        if self._coeffs is None:
            exps, codes = self._terms
            self._coeffs = dict(zip(map(tuple, exps.tolist()), codes.tolist()))
        return self._coeffs

    def terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(exps, codes): a (k, 2m) exponent array sorted by monomial key and its k nonzero codes."""
        if self._terms is None:
            sp, dtype = self.space, self.space.field.dtype
            exps = np.array(list(self._coeffs), dtype=dtype).reshape(-1, sp.nvars)
            codes = np.array(list(self._coeffs.values()), dtype=dtype)
            order = np.argsort(sp.keys(exps))
            self._terms = (exps[order], codes[order])
        return self._terms

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
        if not (isinstance(other, FunctionOnV) and self.space == other.space):
            return False
        if self._coeffs is not None and other._coeffs is not None:
            return self._coeffs == other._coeffs
        (e1, c1), (e2, c2) = self.terms(), other.terms()
        return np.array_equal(e1, e2) and np.array_equal(c1, c2)

    def is_zero(self) -> bool:
        if self._coeffs is not None:
            return not self._coeffs
        return not len(self._terms[1])

    def evaluate_all(self) -> np.ndarray:
        """Values on every vector of V, in lexicographic vector order.

        The coefficients fill a (q,)*2m code tensor, and each axis in turn
        is contracted with the power table pow[v, e] = v^e (0^0 = 1): after
        the contraction of axis i, the tensor holds the partial sums over
        e_1..e_i with v_1..v_i substituted.  Only the exponents that occur
        at coordinate i can give nonzero slices of axis i.
        """
        sp = self.space
        q, n = sp.q, sp.nvars
        if q**n > EVALUATION_CELLS:
            raise RangeError(
                f"evaluating on all of V needs q^(2m) = {q}^{n} cells, over the cap of {EVALUATION_CELLS}"
            )
        pow_t = sp.field.np_tables()[4]
        exps, codes = self.terms()
        values = np.zeros(q**n, dtype=sp.field.dtype)
        values[sp.keys(exps)] = codes
        for i in range(n):
            # contract the leading axis over the exponents that occur there;
            # the new axis of values v_i moves to the back
            used = np.unique(exps[:, i])
            values = linalg.matmul(sp.field, pow_t[:, used], values.reshape(q, -1)[used]).T.copy()
        return values.reshape(-1)

    def __repr__(self):
        items = sorted(self.coeffs.items())[:6]
        body = " + ".join(f"{c}*z^{e}" for e, c in items)
        more = "" if len(self.coeffs) <= 6 else f" ... ({len(self.coeffs)} terms)"
        return f"FunctionOnV[{body or '0'}{more}]"


def _collect(space: FunctionSpace, keys: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The GF(q) sum of the terms codes[i] z^(key i), in `terms()` form."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    summed = linalg.keyed_sum(space.field, inverse.reshape(-1), codes.reshape(-1), len(uniq))
    keep = summed != 0
    exps = (uniq[keep, None] // space.place % space.q).astype(space.field.dtype)
    return exps, summed[keep]


def _multiply_terms(space: FunctionSpace, f: tuple, g: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Product of two functions in `terms()` form.

    A block of f's rows against all of g's: the reduced exponent sums give
    the keys, one coordinate at a time, and the code products the values;
    each block is collected, and the blocks' partial sums once more.
    """
    (e1, c1), (e2, c2) = f, g
    if not (len(c1) and len(c2)):
        return e1[:0], c1[:0]
    mul_t = space.field.np_tables()[1]
    # by_sum[i, e]: the key part of coordinate i for an exponent sum e
    by_sum = (space.reduced.astype(np.int64)[:, None] * space.place).T.copy()
    e1, e2 = e1.astype(np.uint16), e2.astype(np.uint16)  # sums reach 2q-2
    step = max(1, CHUNK_PAIRS // len(c2))
    parts = []
    for lo in range(0, len(c1), step):
        block = e1[lo : lo + step]
        keys = np.zeros((len(block), len(c2)), dtype=np.int64)
        for i in range(space.nvars):
            keys += by_sum[i, block[:, i, None] + e2[None, :, i]]
        parts.append(_collect(space, keys, mul_t[c1[lo : lo + step, None], c2[None, :]]))
    return _sum_terms(space, parts)


def _sum_terms(space: FunctionSpace, parts: list) -> tuple[np.ndarray, np.ndarray]:
    """Sum of functions in `terms()` form."""
    if len(parts) == 1:
        return parts[0]
    exps, codes = (np.concatenate(a) for a in zip(*parts))
    return _collect(space, space.keys(exps), codes)


def reduce_and_multiply(f: FunctionOnV, g: FunctionOnV) -> FunctionOnV:
    """Pointwise product on V: exponents reduced by e -> e - (q-1) while e >= q."""
    f._check(g)
    return FunctionOnV._from_terms(f.space, *_multiply_terms(f.space, f.terms(), g.terms()))


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


def _linear_form_power(space: FunctionSpace, terms, e: int) -> tuple[np.ndarray, np.ndarray]:
    """(sum_j c_j z_j)^e in `terms()` form; terms is ((code, var index), ...), e >= 1."""
    fld, n = space.field, space.nvars
    mul_t, pow_t = fld.np_tables()[1], fld.np_tables()[4]
    if len(terms) == 2:
        # binomial expansion; exponents e-k, k are both <= q-1 already
        (c1, j1), (c2, j2) = terms
        k = np.arange(e + 1)
        binom = np.array([binom_mod_p(e, i, space.p) for i in k], dtype=fld.dtype)
        exps = np.zeros((e + 1, n), dtype=fld.dtype)
        exps[:, j1], exps[:, j2] = e - k, k
        return _collect(space, space.keys(exps), mul_t[binom, mul_t[pow_t[c1, e - k], pow_t[c2, k]]])
    exps = np.zeros((len(terms), n), dtype=fld.dtype)
    codes = np.zeros(len(terms), dtype=fld.dtype)
    for row, (c, j) in enumerate(terms):
        exps[row, j], codes[row] = 1, c
    if len(terms) == 1:
        exps[0] *= e
        return exps, pow_t[codes, e]
    order = np.argsort(space.keys(exps))
    base, result = (exps[order], codes[order]), None
    while e:  # square and multiply
        if e & 1:
            result = base if result is None else _multiply_terms(space, result, base)
        e >>= 1
        if e:
            base = _multiply_terms(space, base, base)
    return result


def act(g: GroupElement, f: FunctionOnV) -> FunctionOnV:
    """Coordinate substitution action; multiplicative: act(g*h, f) = act(g, act(h, f)).

    The monomials are grouped by the exponents of the coordinates that g
    moves, and each group is one partial sum over the exponents of the
    others.  The moved coordinates are substituted one at a time: each
    group's sum is multiplied by the power of the substituted linear form,
    and the groups that then agree on the remaining moved exponents are
    collected by one keyed sum.
    """
    if g.space != f.space:
        raise ContextMismatch("group element and function contexts differ")
    sp = f.space
    n = sp.nvars
    mat = g.matrix.tolist()
    # column i of the matrix is the linear form substituted for coordinate i
    columns = [tuple((mat[j][i], j) for j in range(n) if mat[j][i]) for i in range(n)]
    moved = [i for i, col in enumerate(columns) if col != ((1, i),)]
    exps, codes = f.terms()
    rest = exps.copy()
    rest[:, moved] = 0
    groups = {}
    for row, key in enumerate(map(tuple, exps[:, moved].tolist())):
        groups.setdefault(key, []).append(row)
    # a group's rows differ outside the moved coordinates, so they stay sorted and distinct
    groups = {key: (rest[rows], codes[rows]) for key, rows in groups.items()}
    for i in moved:
        powers, merged = {}, {}
        for key, part in groups.items():
            e = key[0]
            if e:
                if e not in powers:
                    powers[e] = _linear_form_power(sp, columns[i], e)
                part = _multiply_terms(sp, part, powers[e])
            merged.setdefault(key[1:], []).append(part)
        groups = {key: _sum_terms(sp, parts) for key, parts in merged.items()}
    return FunctionOnV._from_terms(sp, *groups.get((), (exps[:0], codes[:0])))


# -- plane operators -------------------------------------------------------------


class PlaneOperator:
    """A linear operator on k[V] that moves only the (x_1, y_1) exponents.

    columns[a*q + b] is the image of x_1^a y_1^b as a sparse
    {(a', b'): code} dict, checked at construction.  `apply` sends each
    monomial through the column of its (x_1, y_1) exponents and leaves the
    middle exponents alone; sums, scalings and products combine columns, and
    (A * B).apply(f) == A.apply(B.apply(f)).  `apply_batch` does the same
    for every row of an exponent array at once.
    """

    __slots__ = ("space", "columns", "_entries")

    def __init__(self, space: FunctionSpace, columns: list, _trusted: bool = False):
        # _trusted: columns combined from checked operators, as for FunctionOnV
        if not _trusted:
            if len(columns) != space.q**2:
                raise RangeError(f"a plane operator needs {space.q**2} columns, got {len(columns)}")
            for col in columns:
                _check_terms(space, col, 2)
        self.space = space
        self.columns = columns
        self._entries = None

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

    def _sparse(self) -> tuple:
        """The nonzero column entries as arrays (starts, a', b', codes):
        column k holds the entries starts[k]:starts[k + 1]."""
        if self._entries is None:
            dtype = self.space.field.dtype
            entries = [(a, b, c) for col in self.columns for (a, b), c in col.items() if c]
            sizes = [sum(1 for c in col.values() if c) for col in self.columns]
            a, b, c = np.array(entries, dtype=dtype).reshape(-1, 3).T
            self._entries = (np.concatenate([[0], np.cumsum(sizes)]), a, b, c)
        return self._entries

    def apply_batch(self, exps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The images of the monomials z^exps[k] of an (N, 2m) exponent array.

        Returns (src, images, codes): the image of row k is the sum of
        codes[i] z^images[i] over the i with src[i] == k.  src is sorted,
        the terms of one row are distinct, and images are full exponent
        rows, so a moved middle exponent would show.
        """
        sp = self.space
        exps = np.asarray(exps)
        if exps.ndim != 2 or exps.shape[1] != sp.nvars or exps.dtype.kind not in "iu" or (
            exps.size and (exps.min() < 0 or exps.max() >= sp.q)
        ):
            raise RangeError(f"an exponent array needs rows of {sp.nvars} entries in [0, {sp.q - 1}]")
        starts, a, b, codes = self._sparse()
        col = exps[:, 0].astype(np.intp) * sp.q + exps[:, -1]
        counts = starts[col + 1] - starts[col]
        src = np.repeat(np.arange(len(exps), dtype=np.int32), counts)
        # entry i is number i - first[src[i]] of its row's column
        first = np.cumsum(counts) - counts
        at = starts[col][src] + np.arange(len(src)) - first[src]
        images = exps[src].astype(sp.field.dtype)
        images[:, 0], images[:, -1] = a[at], b[at]
        return src, images, codes[at]


def _transvection_images(space: FunctionSpace, mirror: bool) -> list:
    """images[mu - 1][s]: the image of the moved variable's s-th power under
    the plane transvection by mu^-1, as {(x_1 exponent, y_1 exponent): code}.

    x_1 moves (y_1 for the mirror) and the other plane variable is fixed.
    Every shift operator of one side sums the same images with its own
    weights, so they are built once, by `act`, and cached on the space.
    """
    cached = space._plane_images.get(mirror)
    if cached is not None:
        return cached
    fld, q, n = space.field, space.q, space.nvars
    make = transvection_y if mirror else transvection_x
    moved = n - 1 if mirror else 0
    images = []
    for mu in range(1, q):
        g = make(space, fld.inv(mu))
        row = []
        for s in range(q):
            exps = [0] * n
            exps[moved] = s
            image = act(g, FunctionOnV(space, {tuple(exps): 1}, _trusted=True)).coeffs
            for e in image:
                if any(e[1:-1]):
                    raise InvariantError(f"plane transvection moved a middle variable: {e}")
            row.append({(e[0], e[-1]): c for e, c in image.items()})
        images.append(row)
    space._plane_images[mirror] = images
    return images


def _shift_terms(space: FunctionSpace, ell: int, j: int, mirror: bool) -> PlaneOperator:
    """sum over nonzero mu of mu^(ell p^j) times the plane transvection by mu^-1.

    The transvection moves one of x_1, y_1 and fixes the other, and `act`
    is multiplicative, so the image of x_1^a y_1^b is the sum's image of the
    moved variable's power times the fixed variable's power.  Cached on the
    space.
    """
    key = (ell, j, mirror)
    cached = space._shift_cache.get(key)
    if cached is not None:
        return cached
    fld, q = space.field, space.q
    add, mul, red = fld.add, fld.mul, space.reduce_exp
    exp = ell * space.p**j
    weights = [fld.pow(mu, exp) for mu in range(1, q)]
    images = _transvection_images(space, mirror)
    columns = [None] * (q * q)
    for s in range(q):
        image = {}
        for c, row in zip(weights, images):
            for plane, c2 in row[s].items():
                image[plane] = add(image.get(plane, 0), mul(c, c2))
        for u in range(q):
            # times the fixed variable's u-th power
            col = {}
            for (a, b), c in image.items():
                plane = (red(a + u), b) if mirror else (a, red(b + u))
                col[plane] = add(col.get(plane, 0), c)
            columns[u * q + s if mirror else s * q + u] = {k: c for k, c in col.items() if c}
    op = PlaneOperator(space, columns, _trusted=True)
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


def shift_predicted_terms(space: FunctionSpace, ell: int, j: int, exps) -> tuple:
    """Closed-form images under g_ell(j) of every row of an (N, 2m) exponent array.

    Returns (hit, images, codes): row k goes to codes[k] z^images[k] where
    hit[k], else to zero.  It is zero when the j-th digit of the x_1
    exponent is below ell, else -C(a_1j, ell) times the monomial with
    ell p^j moved from x_1 to y_1.  The closed form is the t > 1 statement;
    it also holds at t = 1 except for ell = p - 1, where the defining sum
    picks up an extra term.
    """
    p, step = space.p, ell * space.p**j
    exps = np.asarray(exps, dtype=np.intp).reshape(-1, space.nvars)
    digit = exps[:, 0] // p**j % p
    hit = digit >= ell
    codes = np.array([-binom_mod_p(d, ell, p) % p for d in range(p)], dtype=space.field.dtype)[digit]
    images = exps.copy()
    images[:, 0] -= np.where(hit, step, 0)
    images[:, -1] = space.reduced[images[:, -1] + np.where(hit, step, 0)]
    return hit, images.astype(space.field.dtype), codes


def shift_predicted(space: FunctionSpace, ell: int, j: int, exps) -> FunctionOnV:
    """Closed-form image of one basis monomial under g_ell(j); see `shift_predicted_terms`."""
    hit, images, codes = shift_predicted_terms(space, ell, j, [exps])
    if not hit[0]:
        return FunctionOnV.zero(space)
    return FunctionOnV(space, {tuple(images[0].tolist()): int(codes[0])})


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


def digit_projector_selects(space: FunctionSpace, alpha: int, beta: int, j: int, exps):
    """Whether the projector should return the monomial unchanged; for an
    (N, 2m) exponent array, one bool per row."""
    p, exps = space.p, np.asarray(exps)
    a = exps[..., 0] // p**j % p
    b = exps[..., -1] // p**j % p
    return ((a == alpha) & (b == beta)) | ((a == p - 1 - beta) & (b == p - 1 - alpha))


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
    stypes = {}  # one shared SignedHType per signature: a type has p^(2mt) functions at most
    for combo in itertools.product(*options):
        eps = tuple(j for j in js if combo[j][0] in ("diag", "plus"))
        if eps not in stypes:
            stypes[eps] = SignedHType(h, frozenset(eps))
        out.append(SymplecticBasisFunction(space, combo, stypes[eps]))
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
