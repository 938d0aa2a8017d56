"""The symplectic space (V, <-,->), projective points, and isotropic flats.

Coordinates are ordered (x_1, ..., x_m, y_m, ..., y_1) for the basis
(e_1, ..., e_m, f_m, ..., f_1), so <e_i, f_j> = delta_ij and the Gram matrix
is the antidiagonal with +1 in the top-right block and -1 in the bottom-left.
All modules share this coordinate order.

Vectors are tuples of field codes.  Subspaces are canonical RREF generator
matrices, so each subspace has exactly one representation and enumeration
output is reproducible byte for byte (lists are sorted lexicographically on
the flattened RREF entries).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .errors import DimensionMismatch, InvariantError, RangeError, UnsupportedCharacteristic
from .gf import FieldElement, FieldSpec


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(q)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise InvariantError(f"[{n} choose {k}]_{q}: {den} does not divide {num}")
    return num // den


def isotropic_count(m: int, r: int, q: int) -> int:
    """|I_r| for W(2m-1, q): [m choose r]_q * prod_{i=m-r+1..m} (q^i + 1)."""
    out = gaussian_binomial(m, r, q)
    for i in range(m - r + 1, m + 1):
        out *= q**i + 1
    return out


def point_count(m: int, q: int) -> int:
    return (q ** (2 * m) - 1) // (q - 1)


class SymplecticSpace:
    """A 2m-dimensional symplectic space over GF(q), q odd."""

    def __init__(self, m: int, field: FieldSpec):
        if m < 2:
            raise RangeError(f"m={m}; the geometry needs m >= 2")
        if field.p == 2:
            raise UnsupportedCharacteristic("geometry requires odd characteristic")
        self.m = m
        self.field = field
        self.dim = 2 * m

    @property
    def q(self) -> int:
        return self.field.q

    def gram(self) -> tuple:
        n, m = self.dim, self.m
        one, minus = 1, self.field.neg(1)
        rows = []
        for i in range(n):
            row = [0] * n
            row[n - 1 - i] = one if i < m else minus
            rows.append(tuple(row))
        return tuple(rows)

    def form_gradient(self, u) -> list:
        """The covector u.G, so that <u, v> = sum_j (u.G)_j v_j."""
        n, m = self.dim, self.m
        neg = self.field.neg
        return [u[n - 1 - j] if j >= m else neg(u[n - 1 - j]) for j in range(n)]

    def form_code(self, u, v) -> int:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch(f"vectors must have length {self.dim}")
        add, mul = self.field.add, self.field.mul
        acc = 0
        for g, vc in zip(self.form_gradient(u), v):
            if g and vc:
                acc = add(acc, mul(g, vc))
        return acc

    def basis_vector(self, i: int) -> tuple:
        v = [0] * self.dim
        v[i] = 1
        return tuple(v)

    def e(self, i: int) -> tuple:
        """e_i, 1-based."""
        return self.basis_vector(i - 1)

    def f(self, i: int) -> tuple:
        """f_i, 1-based."""
        return self.basis_vector(self.dim - i)

    def __repr__(self):
        return f"SymplecticSpace(m={self.m}, q={self.q})"


def symplectic_form(space: SymplecticSpace, u, v) -> FieldElement:
    """The alternating form <u, v> as a field element."""
    return FieldElement(space.field, space.form_code(u, v))


@dataclass(frozen=True, order=True)
class ProjectivePoint:
    coords: tuple

    @property
    def dim(self):
        return 1


@dataclass(frozen=True, order=True)
class Subspace:
    """Canonical RREF generator matrix; rows are tuples of field codes."""

    rows: tuple

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def from_generators(space: SymplecticSpace, generators) -> "Subspace":
        red, _ = linalg.rref(space.field, list(generators))
        return Subspace(tuple(tuple(int(x) for x in row) for row in red))


def enumerate_points(space: SymplecticSpace) -> list:
    """All points of PG(2m-1, q), normalized, in sorted coordinate order."""
    q, n = space.q, space.dim
    pts = []
    for lead in range(n):
        head = (0,) * lead + (1,)
        for tail in itertools.product(range(q), repeat=n - 1 - lead):
            pts.append(head + tail)
    pts.sort()
    return [ProjectivePoint(p) for p in pts]


# -- canonical RREF enumeration ------------------------------------------------


def _solutions(field, rows, rhs, width):
    """All solutions of a small linear system over GF(q), pure python.

    rows: list of length-`width` coefficient lists; rhs: constants.
    Yields length-`width` tuples.
    """
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        s = inv(aug[r][c])
        if s != 1:
            aug[r] = [mul(s, x) for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [add(x, mul(neg(f), y)) for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][width]:
            return  # inconsistent
    free = [c for c in range(width) if c not in pivots]
    for assign in itertools.product(range(field.q), repeat=len(free)):
        sol = [0] * width
        for c, val in zip(free, assign):
            sol[c] = val
        for i, c in enumerate(pivots):
            acc = aug[i][width]
            for fc, val in zip(free, assign):
                if aug[i][fc] and val:
                    acc = add(acc, mul(neg(aug[i][fc]), val))
            sol[c] = acc
        yield tuple(sol)


def _echelon_enumerate(space: SymplecticSpace, r: int, isotropic: bool) -> list:
    """All r-subspaces as canonical RREFs, optionally totally isotropic.

    Depth-first extension per pivot-column set: row i has its pivot 1, zeros
    at the other pivot columns and before its own pivot, and free entries only
    at later non-pivot columns, so every matrix produced is already the unique
    RREF representative of its subspace.
    """
    n = space.dim
    field = space.field
    out = []
    for pivots in itertools.combinations(range(n), r):
        pivot_set = set(pivots)
        stack_rows = []
        grads = []  # form gradients of the accepted rows

        def extend(i):
            if i == r:
                out.append(tuple(stack_rows))
                return
            piv = pivots[i]
            unknown = [c for c in range(piv + 1, n) if c not in pivot_set]
            if isotropic and grads:
                coeffs = [[g[c] for c in unknown] for g in grads]
                rhs = [field.neg(g[piv]) for g in grads]
                candidates = _solutions(field, coeffs, rhs, len(unknown))
            else:
                candidates = itertools.product(range(space.q), repeat=len(unknown))
            for assign in candidates:
                row = [0] * n
                row[piv] = 1
                for c, val in zip(unknown, assign):
                    row[c] = val
                row = tuple(row)
                stack_rows.append(row)
                if isotropic:
                    grads.append(space.form_gradient(row))
                extend(i + 1)
                stack_rows.pop()
                if isotropic:
                    grads.pop()

        extend(0)
    out.sort()
    return [Subspace(rows) for rows in out]


def enumerate_isotropic(space: SymplecticSpace, r: int) -> list:
    """All totally isotropic r-subspaces, canonical RREF, sorted."""
    if not 1 <= r <= space.m:
        raise RangeError(f"r={r} outside [1, {space.m}]")
    return _echelon_enumerate(space, r, isotropic=True)


def enumerate_all_subspaces(space: SymplecticSpace, r: int) -> list:
    """All r-subspaces of PG(2m-1, q), ignoring the form."""
    if not 1 <= r <= space.dim - 1:
        raise RangeError(f"r={r} outside [1, {space.dim - 1}]")
    return _echelon_enumerate(space, r, isotropic=False)


def perp(space: SymplecticSpace, w: Subspace) -> Subspace:
    """{v : <v, u> = 0 for all u in W}, canonical RREF."""
    grads = [space.form_gradient(row) for row in w.rows]
    basis = linalg.nullspace(space.field, grads, ncols=space.dim)
    sub = Subspace(tuple(tuple(int(x) for x in row) for row in basis))
    if sub.dim != space.dim - w.dim:
        raise InvariantError(f"perp of a {w.dim}-space has dimension {sub.dim}")
    return sub


def enumerate_coisotropic(space: SymplecticSpace, r: int) -> list:
    """Perps of the totally isotropic (2m-r)-subspaces, m+1 <= r <= 2m-1."""
    if not space.m + 1 <= r <= space.dim - 1:
        raise RangeError(f"r={r} outside [{space.m + 1}, {space.dim - 1}]")
    flats = [perp(space, w) for w in enumerate_isotropic(space, space.dim - r)]
    flats.sort()
    return flats


def contains_point(space: SymplecticSpace, sub: Subspace, coords) -> bool:
    """Does the flat contain the (projective) point?"""
    add, mul, neg = space.field.add, space.field.mul, space.field.neg
    v = list(coords)
    for row in sub.rows:
        lead = next(c for c, x in enumerate(row) if x)
        if v[lead]:
            f = neg(v[lead])
            v = [add(x, mul(f, y)) for x, y in zip(v, row)]
    return not any(v)

