"""The symplectic space (V, <-,->), projective points, and isotropic flats.

Coordinates are ordered (x_1, ..., x_m, y_m, ..., y_1) for the basis
(e_1, ..., e_m, f_m, ..., f_1), so <e_i, f_j> = delta_ij and the Gram matrix
is the antidiagonal with +1 in the top-right block and -1 in the bottom-left.
All modules share this coordinate order.

Vectors are field codes.  A flat is its canonical RREF generator matrix, an
(r, 2m) code array, so each subspace has exactly one representation; a
family of flats is one (N, r, 2m) code stack, sorted lexicographically on
the flattened RREF entries, so enumeration output is reproducible byte for
byte.  Points are the (N, 2m) array of normalized vectors in sorted order.

Isotropic flats grow by row extension: per pivot-column set, every partial
RREF is paired with every value of the next row's free entries, and the
pairs whose new row is not orthogonal to the earlier rows are dropped.
Coisotropic flats are the perps of all isotropic (2m-r)-flats at once, one
stacked null space of their form gradients.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvariantError, RangeError, UnsupportedCharacteristic
from .gf import FieldSpec


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

    def form_gradient(self, u) -> np.ndarray:
        """The covector u.G, so that <u, v> = sum_j (u.G)_j v_j.

        u is one vector or a (..., 2m) array of them, as field codes.
        """
        g = np.array(u)[..., ::-1]
        g[..., : self.m] = self.field.np_tables()[2][g[..., : self.m]]
        return g

    def form_code(self, u, v) -> int:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch(f"vectors must have length {self.dim}")
        return int(linalg.matmul(self.field, self.form_gradient([u]), np.array(v)[:, None])[0, 0])

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


def enumerate_points(space: SymplecticSpace) -> np.ndarray:
    """All points of PG(2m-1, q), normalized, as a sorted (N, 2m) code array."""
    n, q, dtype = space.dim, space.q, space.field.dtype
    blocks = []
    for lead in range(n - 1, -1, -1):  # the later the leading 1, the smaller the vector
        k = n - 1 - lead
        tail = np.indices((q,) * k, dtype=dtype).reshape(k, q**k).T
        block = np.zeros((len(tail), n), dtype=dtype)
        block[:, lead] = 1
        block[:, lead + 1:] = tail
        blocks.append(block)
    return np.concatenate(blocks)


# -- canonical RREF enumeration ------------------------------------------------

# Pairs (partial RREF, new row) in one extension step; bounds the candidate
# arrays and their index temporaries, and so peak RSS.
CHUNK_CANDIDATES = 1 << 16


def _sorted_flats(codes: np.ndarray) -> np.ndarray:
    """A (N, r, n) code stack sorted lexicographically on the flattened rows."""
    return codes[np.lexsort(codes.reshape(len(codes), -1).T[::-1])]


def _echelon_codes(space: SymplecticSpace, r: int, isotropic: bool) -> np.ndarray:
    """All r-subspaces as a sorted (N, r, n) stack of canonical RREFs,
    optionally only the totally isotropic ones.

    Row extension per pivot-column set: row i has its pivot 1, zeros at the
    other pivot columns and before its own pivot, and free entries only at
    later non-pivot columns, so every matrix produced is already the unique
    RREF representative of its subspace.  Each step pairs every partial RREF
    with every value of the new row's free entries and, for isotropic flats,
    keeps the pairs whose new row is orthogonal to every earlier row.
    """
    n, q, dtype = space.dim, space.q, space.field.dtype
    found = []
    for pivots in itertools.combinations(range(n), r):
        partial = np.zeros((1, 0, n), dtype=dtype)
        for i, piv in enumerate(pivots):
            free = [c for c in range(piv + 1, n) if c not in pivots]
            rows = np.zeros((q ** len(free), n), dtype=dtype)
            rows[:, piv] = 1
            values = np.indices((q,) * len(free), dtype=dtype)
            rows[:, free] = values.reshape(len(free), len(rows)).T
            step = max(1, CHUNK_CANDIDATES // len(rows))
            grown = []
            for part in np.array_split(partial, len(partial) // step + 1):
                keep = np.ones((len(part), len(rows)), dtype=bool)
                if isotropic and i:
                    # the new row is zero outside (piv, *free): <part row, new row>
                    # sums over those columns only
                    cols = [piv, *free]
                    grads = space.form_gradient(part)[..., cols].swapaxes(1, 2)
                    form = linalg.matmul(space.field, rows[:, cols], grads)
                    keep = ~form.any(axis=2)
                pi, ri = np.nonzero(keep)
                grown.append(np.concatenate([part[pi], rows[ri, None]], axis=1))
            partial = np.concatenate(grown)
        found.append(partial)
    return _sorted_flats(np.concatenate(found))


def enumerate_isotropic(space: SymplecticSpace, r: int) -> np.ndarray:
    """All totally isotropic r-subspaces, a sorted (N, r, 2m) RREF stack."""
    if not 1 <= r <= space.m:
        raise RangeError(f"r={r} outside [1, {space.m}]")
    return _echelon_codes(space, r, isotropic=True)


def enumerate_all_subspaces(space: SymplecticSpace, r: int) -> np.ndarray:
    """All r-subspaces of PG(2m-1, q), ignoring the form, as a sorted stack."""
    if not 1 <= r <= space.dim - 1:
        raise RangeError(f"r={r} outside [1, {space.dim - 1}]")
    return _echelon_codes(space, r, isotropic=False)


def _perp_codes(space: SymplecticSpace, codes: np.ndarray) -> np.ndarray:
    """Canonical RREFs of the perps of a (B, k, n) stack of k-flats.

    The perp of W is the null space of W's form gradients.
    """
    k = codes.shape[1]
    basis = linalg.nullspace(space.field, space.form_gradient(codes))
    if basis.shape[1] != space.dim - k:
        raise InvariantError(f"perp of a {k}-space has dimension {basis.shape[1]}")
    return basis


def perp(space: SymplecticSpace, w) -> np.ndarray:
    """{v : <v, u> = 0 for all u in W}, canonical RREF, for W a (k, 2m)
    generator code matrix of full rank."""
    codes = linalg.as_code_matrix(space.field, w).reshape(1, -1, space.dim)
    return _perp_codes(space, codes)[0]


def enumerate_coisotropic(space: SymplecticSpace, r: int) -> np.ndarray:
    """Perps of the totally isotropic (2m-r)-subspaces, m+1 <= r <= 2m-1."""
    if not space.m + 1 <= r <= space.dim - 1:
        raise RangeError(f"r={r} outside [{space.m + 1}, {space.dim - 1}]")
    isotropic = _echelon_codes(space, space.dim - r, isotropic=True)
    return _sorted_flats(_perp_codes(space, isotropic))


def contains_point(space: SymplecticSpace, sub, coords) -> bool:
    """Does the flat, a canonical RREF code matrix, contain the point?"""
    add, mul, neg = space.field.add, space.field.mul, space.field.neg
    v = [int(x) for x in coords]
    for row in np.asarray(sub).tolist():
        lead = next(c for c, x in enumerate(row) if x)
        if v[lead]:
            f = neg(v[lead])
            v = [add(x, mul(f, y)) for x, y in zip(v, row)]
    return not any(v)

