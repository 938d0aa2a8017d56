"""Point-vs-flat 0/1 incidence matrices and their on-disk formats.

Row order is flat enumeration order and column order is point enumeration
order; both are canonical, so files serialize byte for byte reproducibly.
A matrix is a CSR pair of np.intp arrays: row i is the sorted column indices
indices[indptr[i]:indptr[i+1]].  `incidence_from_flats` is the one builder:
the points of a flat code stack are one GF(q) product over the RREF
generators, each point's column comes from its coordinates by arithmetic,
and every flat's sorted columns go into one preallocated index array.

File format (UTF-8 text):

    polar-rank-incidence v1
    <rows> <cols> <modulus>
    <k> <c_1> ... <c_k>        one line per row, 0-based sorted column indices

Every field is a plain ASCII integer; anything else is a FormatError.  A
Matrix Market export (coordinate integer general, 1-based) is provided for
interop with external sparse tooling.
"""

from __future__ import annotations

import array
import hashlib
import itertools
import re
from dataclasses import dataclass

import numpy as np

from . import geometry, linalg
from .errors import FormatError, InvariantError, IoError, RangeError
from .primality import is_prime

MAGIC = "polar-rank-incidence v1"


@dataclass
class SparseIncidenceMatrix:
    rows: int
    cols: int
    modulus: int
    indptr: np.ndarray  # (rows + 1,), indptr[0] = 0, nondecreasing
    indices: np.ndarray  # (nnz,), each row's sorted column indices

    def __post_init__(self):
        if not is_prime(self.modulus):
            raise RangeError(f"modulus {self.modulus} is not prime")
        if min(self.rows, self.cols) < 0:
            raise RangeError(f"negative shape {self.rows} x {self.cols}")
        ptr = self.indptr = np.asarray(self.indptr, dtype=np.intp)
        idx = self.indices = np.asarray(self.indices, dtype=np.intp)
        if ptr.shape != (self.rows + 1,):
            raise FormatError(f"row count {ptr.size - 1} != declared {self.rows}")
        if idx.ndim != 1 or ptr[0] != 0 or ptr[-1] != idx.size or (ptr[1:] < ptr[:-1]).any():
            raise FormatError("row pointers do not partition the column indices")
        # consecutive entries increase except across a row start
        increasing = idx[1:] > idx[:-1]
        starts = ptr[1:-1]
        increasing[starts[(starts > 0) & (starts < idx.size)] - 1] = True
        if not increasing.all():
            row = self._row_of(int(np.argmin(increasing)) + 1)
            raise FormatError(f"row {row} column indices not strictly increasing")
        if idx.size and (idx.min() < 0 or idx.max() >= self.cols):
            row = self._row_of(int(np.argmax((idx < 0) | (idx >= self.cols))))
            raise FormatError(f"row {row} has column index out of range")

    def _row_of(self, entry: int) -> int:
        return int(np.searchsorted(self.indptr, entry, side="right")) - 1

    def row(self, i: int) -> np.ndarray:
        """Row i's sorted column indices, a view."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def nnz(self) -> int:
        return len(self.indices)

    def row_sums(self) -> np.ndarray:
        return np.diff(self.indptr)

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.indices, minlength=self.cols)

    def transpose(self) -> "SparseIncidenceMatrix":
        # a stable sort by column keeps each column's rows increasing
        order = np.argsort(self.indices, kind="stable")
        row_of = np.repeat(np.arange(self.rows, dtype=np.intp), self.row_sums())
        indptr = np.zeros(self.cols + 1, dtype=np.intp)
        np.cumsum(self.col_sums(), out=indptr[1:])
        return SparseIncidenceMatrix(self.cols, self.rows, self.modulus, indptr, row_of[order])

    def __eq__(self, other):
        return (
            isinstance(other, SparseIncidenceMatrix)
            and (self.rows, self.cols, self.modulus) == (other.rows, other.cols, other.modulus)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


def _normalized_coeffs(q: int, r: int) -> np.ndarray:
    """The (q^r - 1)/(q - 1) vectors of GF(q)^r whose first nonzero entry is 1."""
    rows = [
        (0,) * lead + (1,) + tail
        for lead in range(r)
        for tail in itertools.product(range(q), repeat=r - 1 - lead)
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, r)


def point_columns(q: int, pts: np.ndarray, lead: np.ndarray) -> np.ndarray:
    """The column of each normalized point of a (..., n) code array whose
    leading 1 sits at position lead: with v the base-q value of the
    coordinates after it, (q^(n-1-L) - 1)/(q - 1) + v, its row in
    `enumerate_points`."""
    weight = q ** np.arange(pts.shape[-1] - 1, -1, -1, dtype=np.int64)
    # a normalized point has weight . coords = q^(n-1-L) + v
    offset = (weight - 1) // (q - 1) - weight
    return pts @ weight + offset[lead]


# points per chunk of flats: bounds the intp temporaries of the GF(q) product
CHUNK_POINTS = 1 << 12


def incidence_from_flats(space, gens) -> SparseIncidenceMatrix:
    """0/1 matrix with entry (Y, Z) = 1 iff point Z lies in flat Y.

    gens is an (N, r, 2m) stack of canonical RREF generator code matrices,
    as the enumerations return it.  With G a flat's RREF and c a normalized
    coefficient vector, c.G is already a normalized point: G is the identity
    at its pivot columns and zero before each pivot.  So the points of every
    flat are one GF(q) product, a (flats x coeffs x 2m) code array, and each
    point's column follows from its coordinates (`point_columns`).
    """
    q, n = space.q, space.dim
    cols = geometry.point_count(space.m, q)
    try:
        gens = np.asarray(gens) if len(gens) else np.zeros((0, 1, n), dtype=np.intp)
    except ValueError:  # ragged: flats of mixed dimensions
        gens = None
    if (gens is None or gens.ndim != 3 or gens.shape[1] < 1 or gens.shape[2] != n
            or gens.dtype.kind not in "iu" or gens.min(initial=0) < 0 or gens.max(initial=0) >= q):
        raise RangeError(f"flats must be one (N, r, {n}) stack of GF({q}) codes")
    coeffs = _normalized_coeffs(q, gens.shape[1])
    indices = np.empty((len(gens), len(coeffs)), dtype=np.intp)
    step = max(1, CHUNK_POINTS // len(coeffs))
    for lo in range(0, len(gens), step):
        pts = linalg.matmul(space.field, coeffs[None], gens[lo:lo + step])
        lead = np.argmax(pts != 0, axis=2)
        index = indices[lo:lo + step]
        index[...] = point_columns(q, pts, lead)
        index.sort(axis=1)
        normalized = np.take_along_axis(pts, lead[..., None], axis=2) == 1
        if not (normalized.all() and (index[:, 1:] > index[:, :-1]).all()):
            raise InvariantError(
                f"a flat does not give {len(coeffs)} distinct normalized points; "
                "generators must be a canonical RREF of full rank"
            )
    indptr = np.arange(len(gens) + 1, dtype=np.intp) * len(coeffs)
    return SparseIncidenceMatrix(len(gens), cols, space.field.p, indptr, indices.reshape(-1))


def build_incidence(space, r: int) -> SparseIncidenceMatrix:
    """The incidence matrix between points and the r-flats of W(2m-1, q)."""
    if not 1 <= r <= space.dim - 1:
        raise RangeError(f"r={r} outside [1, {space.dim - 1}]")
    if r <= space.m:
        flats = geometry.enumerate_isotropic(space, r)
    else:
        flats = geometry.enumerate_coisotropic(space, r)
    mat = incidence_from_flats(space, flats)
    # min against max rather than np.unique, whose sort path imports numpy.ma
    sums = mat.col_sums()
    if not sums.size or sums.min() != sums.max():
        raise InvariantError(
            f"flat family is not point-transitive: column sums {sorted(set(sums.tolist()))}"
        )
    return mat


def write_matrix(mat: SparseIncidenceMatrix, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{MAGIC}\n")
            fh.write(f"{mat.rows} {mat.cols} {mat.modulus}\n")
            for i in range(mat.rows):
                row = mat.row(i).tolist()
                fh.write(" ".join(map(str, [len(row), *row])) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# one line of whitespace-separated plain ASCII integers
_INT_LINE = re.compile(r"\s*(-?[0-9]+(\s+-?[0-9]+)*)?\s*", re.ASCII)


def _ints(text: str, line: int, what: str) -> list:
    try:
        if _INT_LINE.fullmatch(text):
            return [int(x) for x in text.split()]
    except ValueError:  # more digits than int() converts
        pass
    raise FormatError(f"non-integer {what}", line=line)


def _read_lines(path) -> list:
    """The file's text lines; its raw bytes are freed on return, before parsing."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError("not UTF-8 text", line=data.count(b"\n", 0, exc.start) + 1) from None


def read_matrix(path) -> SparseIncidenceMatrix:
    lines = _read_lines(path)
    if not lines or lines[0].strip() != MAGIC:
        raise FormatError(f"bad magic; expected {MAGIC!r}", line=1)
    if len(lines) < 2:
        raise FormatError("missing header", line=2)
    head = _ints(lines[1], 2, "header field")
    if len(head) != 3:
        raise FormatError("header must be '<rows> <cols> <modulus>'", line=2)
    rows, cols, modulus = head
    if min(head) < 0:
        raise FormatError("negative header field", line=2)
    if cols > np.iinfo(np.int64).max:
        raise FormatError(f"column count {cols} exceeds the index range", line=2)
    body = [lineno for lineno in range(3, len(lines) + 1) if lines[lineno - 1].strip()]
    if len(body) != rows:
        raise FormatError(
            f"expected {rows} row lines, found {len(body)}", line=2 + len(body) + 1
        )
    indptr = np.zeros(rows + 1, dtype=np.intp)
    indices = array.array("q")  # one growing int64 buffer, no object per row
    for i, lineno in enumerate(body):
        nums = _ints(lines[lineno - 1], lineno, "entry")
        if not nums or nums[0] != len(nums) - 1:
            raise FormatError("row length prefix mismatch", line=lineno)
        entries = nums[1:]
        if any(b <= a for a, b in zip(entries, entries[1:])):
            raise FormatError("column indices not strictly increasing", line=lineno)
        if entries and (entries[0] < 0 or entries[-1] >= cols):
            raise FormatError("column index out of range", line=lineno)
        indices.extend(entries)
        indptr[i + 1] = len(indices)
    return SparseIncidenceMatrix(rows, cols, modulus, indptr, np.frombuffer(indices, dtype=np.int64))


def write_matrix_market(mat: SparseIncidenceMatrix, path) -> None:
    """Matrix Market 'coordinate integer general' export (1-based indices)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("%%MatrixMarket matrix coordinate integer general\n")
            fh.write(f"%derived from {MAGIC}; modulus {mat.modulus}\n")
            fh.write(f"{mat.rows} {mat.cols} {mat.nnz()}\n")
            for i in range(mat.rows):
                fh.writelines(f"{i + 1} {c + 1} 1\n" for c in mat.row(i).tolist())
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def file_checksum(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
