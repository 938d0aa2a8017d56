"""Point-vs-flat 0/1 incidence matrices and their on-disk formats.

Row order is flat enumeration order and column order is point enumeration
order; both are canonical, so files serialize byte for byte reproducibly.
`incidence_from_flats` is the one builder: the points of all flats are table
gathers over their RREF generators, and each point's column comes from its
coordinates by arithmetic, so no point list is built or searched.

File format (UTF-8 text):

    polar-rank-incidence v1
    <rows> <cols> <modulus>
    <k> <c_1> ... <c_k>        one line per row, 0-based sorted column indices

A Matrix Market export (coordinate integer general, 1-based) is provided for
interop with external sparse tooling.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import FormatError, InvariantError, IoError, RangeError
from .gf import is_prime

MAGIC = "polar-rank-incidence v1"


@dataclass
class SparseIncidenceMatrix:
    rows: int
    cols: int
    modulus: int
    row_data: list  # per row, strictly increasing tuple of column indices

    def __post_init__(self):
        if not is_prime(self.modulus):
            raise RangeError(f"modulus {self.modulus} is not prime")
        for i, cols in enumerate(self.row_data):
            if any(b <= a for a, b in zip(cols, cols[1:])):
                raise FormatError(f"row {i} column indices not strictly increasing")
            if cols and (cols[0] < 0 or cols[-1] >= self.cols):
                raise FormatError(f"row {i} has column index out of range")
        if len(self.row_data) != self.rows:
            raise FormatError(
                f"row count {len(self.row_data)} != declared {self.rows}"
            )

    def nnz(self) -> int:
        return sum(len(r) for r in self.row_data)

    def row_sums(self) -> list:
        return [len(r) for r in self.row_data]

    def col_sums(self) -> list:
        out = [0] * self.cols
        for r in self.row_data:
            for c in r:
                out[c] += 1
        return out

    def transpose(self) -> "SparseIncidenceMatrix":
        data = [[] for _ in range(self.cols)]
        for i, r in enumerate(self.row_data):
            for c in r:
                data[c].append(i)
        return SparseIncidenceMatrix(
            self.cols,
            self.rows,
            self.modulus,
            [tuple(r) for r in data],
        )

    def __eq__(self, other):
        return (
            isinstance(other, SparseIncidenceMatrix)
            and (self.rows, self.cols, self.modulus) == (other.rows, other.cols, other.modulus)
            and [tuple(r) for r in self.row_data] == [tuple(r) for r in other.row_data]
        )


def _normalized_coeffs(q: int, r: int) -> np.ndarray:
    """The (q^r - 1)/(q - 1) vectors of GF(q)^r whose first nonzero entry is 1."""
    rows = [
        (0,) * lead + (1,) + tail
        for lead in range(r)
        for tail in itertools.product(range(q), repeat=r - 1 - lead)
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, r)


# points per chunk of flats: bounds the intp temporaries of the table gathers
CHUNK_POINTS = 1 << 12


def incidence_from_flats(space, flats) -> SparseIncidenceMatrix:
    """0/1 matrix with entry (Y, Z) = 1 iff point Z lies in flat Y.

    With G a flat's RREF generator matrix and c a normalized coefficient
    vector, c.G is already a normalized point: G is the identity at its
    pivot columns and zero before each pivot.  So the points of every flat
    are r table gathers over a (flats x coeffs x 2m) code array, and the
    column of a point with leading 1 at L and base-q tail value v is
    (q^(2m-1-L) - 1)/(q - 1) + v, its place in `enumerate_points` order.
    """
    q, n = space.q, space.dim
    cols = geometry.point_count(space.m, q)
    if not flats:
        return SparseIncidenceMatrix(0, cols, space.field.p, [])
    dims = {f.dim for f in flats}
    if len(dims) != 1:
        raise RangeError(f"flats of mixed dimensions {sorted(dims)}")
    add_t, mul_t = space.field.np_tables()[:2]
    gens = np.array([f.rows for f in flats], dtype=add_t.dtype)  # flats x r x n
    coeffs = _normalized_coeffs(q, gens.shape[1])
    weight = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # a normalized point has weight . coords = q^(n-1-L) + v
    offset = (weight - 1) // (q - 1) - weight
    # rows share one int object per column; tolist() alone makes one per entry
    col_ints = np.arange(cols).astype(object)
    row_data = []
    step = max(1, CHUNK_POINTS // len(coeffs))
    for lo in range(0, len(flats), step):
        chunk = gens[lo:lo + step]
        pts = np.zeros((len(chunk), len(coeffs), n), dtype=add_t.dtype)
        for k in range(gens.shape[1]):
            pts = add_t[pts, mul_t[coeffs[None, :, k, None], chunk[:, None, k, :]]]
        lead = np.argmax(pts != 0, axis=2)
        index = np.sort(pts @ weight + offset[lead], axis=1)
        normalized = np.take_along_axis(pts, lead[..., None], axis=2) == 1
        if not (normalized.all() and (np.diff(index, axis=1) > 0).all()):
            raise InvariantError(
                f"a flat does not give {len(coeffs)} distinct normalized points; "
                "generators must be a canonical RREF of full rank"
            )
        row_data += map(tuple, col_ints[index].tolist())
    return SparseIncidenceMatrix(len(flats), cols, space.field.p, row_data)


def build_incidence(space, r: int) -> SparseIncidenceMatrix:
    """The incidence matrix between points and the r-flats of W(2m-1, q)."""
    if not 1 <= r <= space.dim - 1:
        raise RangeError(f"r={r} outside [1, {space.dim - 1}]")
    if r <= space.m:
        flats = geometry.enumerate_isotropic(space, r)
    else:
        flats = geometry.enumerate_coisotropic(space, r)
    mat = incidence_from_flats(space, flats)
    sums = set(mat.col_sums())
    if len(sums) != 1:
        raise InvariantError(f"flat family is not point-transitive: column sums {sorted(sums)}")
    return mat


def write_matrix(mat: SparseIncidenceMatrix, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{MAGIC}\n")
            fh.write(f"{mat.rows} {mat.cols} {mat.modulus}\n")
            for row in mat.row_data:
                fh.write(" ".join([str(len(row))] + [str(c) for c in row]) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_matrix(path) -> SparseIncidenceMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].strip() != MAGIC:
        raise FormatError(f"bad magic; expected {MAGIC!r}", line=1)
    if len(lines) < 2:
        raise FormatError("missing header", line=2)
    head = lines[1].split()
    if len(head) != 3:
        raise FormatError("header must be '<rows> <cols> <modulus>'", line=2)
    try:
        rows, cols, modulus = (int(x) for x in head)
    except ValueError:
        raise FormatError("non-integer header field", line=2) from None
    body = [ln for ln in lines[2:] if ln.strip()]
    if len(body) != rows:
        raise FormatError(
            f"expected {rows} row lines, found {len(body)}", line=2 + len(body) + 1
        )
    row_data = []
    for i, ln in enumerate(body):
        lineno = 3 + i
        try:
            nums = [int(x) for x in ln.split()]
        except ValueError:
            raise FormatError("non-integer entry", line=lineno) from None
        if not nums or nums[0] != len(nums) - 1:
            raise FormatError("row length prefix mismatch", line=lineno)
        entries = nums[1:]
        if any(b <= a for a, b in zip(entries, entries[1:])):
            raise FormatError("column indices not strictly increasing", line=lineno)
        if entries and (entries[0] < 0 or entries[-1] >= cols):
            raise FormatError("column index out of range", line=lineno)
        row_data.append(tuple(entries))
    return SparseIncidenceMatrix(rows, cols, modulus, row_data)


def write_matrix_market(mat: SparseIncidenceMatrix, path) -> None:
    """Matrix Market 'coordinate integer general' export (1-based indices)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("%%MatrixMarket matrix coordinate integer general\n")
            fh.write(f"%derived from {MAGIC}; modulus {mat.modulus}\n")
            fh.write(f"{mat.rows} {mat.cols} {mat.nnz()}\n")
            for i, row in enumerate(mat.row_data):
                for c in row:
                    fh.write(f"{i + 1} {c + 1} 1\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def file_checksum(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
