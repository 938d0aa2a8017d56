import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarank import geometry, linalg
from polarank.errors import FormatError, InvariantError, PolarankError, RangeError
from polarank.gf import build_field
from polarank.geometry import (
    SymplecticSpace,
    contains_point,
    enumerate_coisotropic,
    enumerate_isotropic,
    enumerate_points,
)
from polarank.incidence import (
    MAGIC,
    SparseIncidenceMatrix,
    build_incidence,
    incidence_from_flats,
    read_matrix,
    write_matrix,
    write_matrix_market,
)


@pytest.fixture(scope="module")
def w33():
    return SymplecticSpace(2, build_field(3, 1))


@pytest.fixture(scope="module")
def w39():
    """GF(9): the field tables are not arithmetic mod p."""
    return SymplecticSpace(2, build_field(3, 2))


@pytest.fixture(scope="module")
def lines_w33(w33):
    return build_incidence(w33, 2)


def test_w33_shape_and_sums(w33, lines_w33):
    mat = lines_w33
    assert (mat.rows, mat.cols, mat.modulus) == (40, 40, 3)
    assert set(mat.row_sums()) == {4}
    assert set(mat.col_sums()) == {4}
    assert mat.nnz() == 40 * 4 == sum(mat.col_sums())


def test_w33_membership_agrees_with_containment(w33, lines_w33, w39):
    # W(3,3) lines; W(3,9) lines and coisotropic planes, every 41st flat
    cases = [(w33, enumerate_isotropic(w33, 2), lines_w33, 7)]
    for r, family in ((2, enumerate_isotropic), (3, enumerate_coisotropic)):
        cases.append((w39, family(w39, r), build_incidence(w39, r), 41))
    for space, flats, mat, stride in cases:
        pts = enumerate_points(space)
        for i in range(0, len(flats), stride):
            row = set(mat.row(i).tolist())
            for j, pt in enumerate(pts):
                assert (j in row) == contains_point(space, flats[i], pt)


def test_points_vs_points_is_identity(w33, w39):
    for space, n in ((w33, 40), (w39, 820)):
        mat = build_incidence(space, 1)
        assert mat.rows == mat.cols == n
        assert mat.indptr.tolist() == list(range(n + 1))
        assert mat.indices.tolist() == list(range(n))


def test_incidence_from_flats_contracts(w33):
    empty = incidence_from_flats(w33, [])
    assert (empty.rows, empty.cols, empty.indptr.tolist(), empty.nnz()) == (0, 40, [0], 0)
    # a ragged list: flats of mixed dimensions
    mixed = list(enumerate_isotropic(w33, 1)[:2]) + list(enumerate_isotropic(w33, 2)[:2])
    with pytest.raises(RangeError):
        incidence_from_flats(w33, mixed)
    # not an (N, r, 2m) stack of GF(3) codes
    for bad in [np.zeros((2, 4), int), np.zeros((2, 1, 3), int), np.zeros((2, 0, 4), int),
                np.full((1, 1, 4), 3), np.full((1, 1, 4), 0.5)]:
        with pytest.raises(RangeError):
            incidence_from_flats(w33, bad)
    # generators that are not a canonical RREF give unnormalized or repeated points
    for rows in [((2, 0, 0, 0),), ((1, 0, 0, 0), (1, 0, 0, 0))]:
        with pytest.raises(InvariantError):
            incidence_from_flats(w33, np.array([rows]))


def test_broken_oracle_invariants_raise(w33, monkeypatch):
    # point transitivity in build_incidence, then the rank checks behind perp
    real = geometry.enumerate_isotropic
    monkeypatch.setattr(geometry, "enumerate_isotropic", lambda sp, r: real(sp, r)[:-1])
    with pytest.raises(InvariantError, match=r"not point-transitive: column sums \[3, 4\]$"):
        build_incidence(w33, 2)
    # an elimination that drops the last row of every item
    real_rref = linalg.rref_stack
    monkeypatch.setattr(linalg, "rref_stack", lambda field, stack: real_rref(field, np.asarray(stack)[:, :-1]))
    with pytest.raises(InvariantError):
        geometry.perp(w33, real(w33, 2)[0])
    with pytest.raises(InvariantError):
        geometry.enumerate_coisotropic(w33, 3)


def test_round_trip(tmp_path, lines_w33):
    path = tmp_path / "w33.mat"
    write_matrix(lines_w33, path)
    again = read_matrix(path)
    assert again == lines_w33
    # byte-for-byte reproducibility
    path2 = tmp_path / "w33-again.mat"
    write_matrix(lines_w33, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_header_parsing(tmp_path):
    path = tmp_path / "tiny.mat"
    path.write_text("polar-rank-incidence v1\n2 3 3\n2 0 2\n0\n")
    mat = read_matrix(path)
    assert (mat.rows, mat.cols, mat.modulus) == (2, 3, 3)
    assert (mat.indptr.tolist(), mat.indices.tolist()) == ([0, 2, 2], [0, 2])


@pytest.mark.parametrize(
    "text,line",
    [
        ("wrong magic\n2 2 3\n1 0\n1 1\n", 1),
        ("polar-rank-incidence v1\n2 2\n1 0\n1 1\n", 2),
        ("polar-rank-incidence v1\n3 2 3\n1 0\n1 1\n", None),  # row count mismatch
        ("polar-rank-incidence v1\n1 2 3\n2 1 0\n", 3),  # not increasing
        ("polar-rank-incidence v1\n1 2 3\n1 5\n", 3),  # out of range
        ("polar-rank-incidence v1\n1 2 3\n2 0\n", 3),  # length prefix mismatch
        (b"polar-rank-incidence v1\n1 2 3\n1 \xff\n", 3),  # not UTF-8
        ("polar-rank-incidence v1\n1 -5 3\n0\n", 2),  # negative header field
        ("polar-rank-incidence v1\n1 2 3\n1 \u0661\n", 3),  # non-ASCII digit
        ("polar-rank-incidence v1\n1 1_0 3\n0\n", 2),  # int() would read 10
        ("polar-rank-incidence v1\n1 2 3\n1 +1\n", 3),
        ("polar-rank-incidence v1\n2 4 3\n1 0\n\n2 3 1\n", 5),  # after a blank line
        # more digits than int() converts
        pytest.param("polar-rank-incidence v1\n1 " + "9" * 5000 + " 3\n0\n", 2, id="5000-digit-header"),
    ],
)
def test_format_errors(tmp_path, text, line):
    path = tmp_path / "bad.mat"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_matrix(path)
    if line is not None:
        assert err.value.line == line


def test_matrix_market_export(tmp_path, lines_w33):
    path = tmp_path / "w33.mtx"
    write_matrix_market(lines_w33, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
    head = [ln for ln in lines if not ln.startswith("%")][0]
    assert head.split() == ["40", "40", "160"]
    entries = [ln.split() for ln in lines if not ln.startswith("%")][1:]
    assert len(entries) == 160
    assert all(e[2] == "1" for e in entries)
    assert min(int(e[0]) for e in entries) == 1
    assert max(int(e[1]) for e in entries) == 40


def test_transpose_consistency(lines_w33):
    t = lines_w33.transpose()
    assert t.rows == lines_w33.cols
    assert np.array_equal(t.col_sums(), lines_w33.row_sums())
    assert t.nnz() == lines_w33.nnz()
    assert t.transpose() == lines_w33
    dense = np.zeros((t.rows, t.cols), dtype=int)
    for i in range(t.rows):
        dense[i, t.row(i)] = 1
    assert all(lines_w33.row(j).tolist() == np.flatnonzero(dense[:, j]).tolist()
               for j in range(lines_w33.rows))


def test_invalid_rows_rejected():
    with pytest.raises(FormatError):
        SparseIncidenceMatrix(1, 4, 3, [0, 2], [2, 1])
    with pytest.raises(FormatError):
        SparseIncidenceMatrix(2, 4, 3, [0, 1], [0])
    with pytest.raises(RangeError):
        SparseIncidenceMatrix(1, 4, 4, [0, 1], [0])
    # row pointers that do not partition the indices
    for indptr in ([1, 1], [0, 2], [0, 2, 1]):
        with pytest.raises(FormatError):
            SparseIncidenceMatrix(len(indptr) - 1, 4, 3, indptr, [0])
    with pytest.raises(FormatError, match="row 1 has column index out of range"):
        SparseIncidenceMatrix(2, 4, 3, [0, 1, 2], [0, 4])
    with pytest.raises(FormatError, match="row 2 column indices not strictly increasing"):
        SparseIncidenceMatrix(3, 4, 3, [0, 1, 1, 3], [2, 3, 1])
    # indices may fall across a row start, and rows may be empty at either end
    SparseIncidenceMatrix(2, 4, 3, [0, 2, 3], [1, 3, 0])
    mat = SparseIncidenceMatrix(4, 4, 3, [0, 0, 2, 2, 2], [1, 3])
    assert mat.row_sums().tolist() == [0, 2, 0, 0] and mat.col_sums().tolist() == [0, 1, 0, 1]


# small valid exports and the bytes a mutation inserts
EXPORTS = [
    b"polar-rank-incidence v1\n3 5 3\n2 0 4\n0\n3 1 2 3\n",
    b"polar-rank-incidence v1\n4 4 5\n1 0\n1 1\n1 2\n1 3\n",
]
PIECES = [b"0", b"7", b" ", b"\n", b"\r", b"\t", b"-", b"+", b"_", b"x", b"\xff", b"\xc3",
          "\u0661".encode(), "\u00a0".encode(), b"99999999999999999999999999"]


@st.composite
def mutated_export(draw):
    data = draw(st.sampled_from(EXPORTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(len(MAGIC) + 1, len(data)))  # past the magic line
        piece = draw(st.sampled_from(PIECES) | st.binary(min_size=1, max_size=2))
        cut = draw(st.integers(0, 2))  # bytes removed at i
        data = data[:i] + piece * draw(st.integers(0, 1)) + data[i + cut:]
    return data


@settings(max_examples=400, deadline=None)
@given(data=st.binary(max_size=120) | st.binary(max_size=40).map(MAGIC.encode().__add__)
       | mutated_export())
def test_read_matrix_outside_input_property(tmp_path_factory, data):
    # every input reads to a matrix that survives write/read, or a PolarankError
    work = tmp_path_factory.getbasetemp()
    path, again = work / "in.mat", work / "again.mat"
    path.write_bytes(data)
    try:
        mat = read_matrix(path)
    except PolarankError:
        return
    write_matrix(mat, again)
    assert read_matrix(again) == mat


def test_range_error(w33):
    with pytest.raises(RangeError):
        build_incidence(w33, 4)
