import contextlib
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from polarank import cli, gf
from polarank.dimensions import build_D_matrix, rank_W3_closed_form
from polarank.reports import validate_report


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    validate_report(doc)
    return code, doc


def test_verify_match(capsys):
    code, doc = run_json(
        capsys, "verify", "--m", "2", "--p", "3", "--t", "1", "--r", "2"
    )
    assert code == 0
    assert doc["formula_rank"] == doc["oracle_rank"] == 25 and doc["match"] is True
    assert doc["field"]["modulus"] == [0, 1]
    assert set(doc["timings"]) == {"formula_s", "build_s", "orbit_s", "character_s", "rank_s"}
    oracle = doc["oracle"]
    assert (oracle["route"], oracle["torus_order"]) == ("torus-weight", 4)
    assert sum(c["class_size"] * c["rank"] for c in oracle["classes"]) == 25


def test_verify_headline_w327_lines(capsys):
    code, doc = run_json(capsys, "verify", "--m", "2", "--p", "3", "--t", "3", "--r", "2")
    assert code == 0 and doc["oracle_rank"] == doc["formula_rank"] == 8353
    oracle = doc["oracle"]
    assert (oracle["torus_order"], oracle["point_orbits"], oracle["flat_orbits"]) == (676, 72, 76)
    assert len(oracle["classes"]) == 20
    assert sum(c["class_size"] for c in oracle["classes"]) == 338
    assert sum(c["class_size"] * c["rank"] for c in oracle["classes"]) == 8353


def test_verify_runs_without_the_dense_kernel(capsys, monkeypatch):
    from polarank import ranks

    def refuse(*args, **kwargs):
        raise AssertionError("verify called the dense kernel")

    monkeypatch.setattr(ranks, "rank_mod_p", refuse)
    monkeypatch.setattr(ranks.DenseRowPacked, "insert", refuse)
    code, doc = run_json(capsys, "verify", "--m", "3", "--p", "3", "--t", "1", "--r", "4")
    assert code == 0 and doc["oracle_rank"] == 112


def test_oracle_block_schema(capsys):
    import copy

    import jsonschema

    _, doc = run_json(capsys, "verify", "--m", "2", "--p", "5", "--t", "1", "--r", "3")
    broken = []
    for path, value in [
        (("route",), "dense"),
        (("torus_order",), 0),
        (("classes",), []),
        (("classes", 0, "alpha"), [-1, 0]),
        (("classes", 0, "extra"), 1),
    ]:
        bad = copy.deepcopy(doc)
        owner = bad["oracle"]
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        broken.append(bad)
    for key in ("classes", "point_orbits"):
        bad = copy.deepcopy(doc)
        del bad["oracle"][key]
        broken.append(bad)
    bad = copy.deepcopy(doc)
    del bad["oracle"]  # a cross-validation always names its oracle
    broken.append(bad)
    bad = copy.deepcopy(doc)
    bad["timings"]["rank_s"] = "fast"
    broken.append(bad)
    for bad in broken:
        with pytest.raises(jsonschema.ValidationError):
            validate_report(bad)


def test_verify_perp_case_flags_note(capsys):
    code, doc = run_json(
        capsys, "verify", "--m", "2", "--p", "3", "--t", "1", "--r", "3"
    )
    assert code == 0 and doc["match"] is True and doc["formula_rank"] == 11
    assert any("coisotropic" in n for n in doc["notes"])


def test_formula_document_has_no_field(capsys):
    code, doc = run_json(
        capsys, "formula", "--m", "2", "--p", "7", "--t", "3", "--r", "2"
    )
    assert code == 0 and doc["oracle_rank"] is None and doc["match"] is None
    assert doc["formula_rank"] == rankval(7, 3)
    assert doc["mode"] == "formula-only" and "field" not in doc


def rankval(p, t):
    return rank_W3_closed_form(p, t)


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    from polarank import dimensions

    monkeypatch.setattr(cli.dimensions, "rank_point_flat", lambda *a: 999)
    code, out = run(capsys, "verify", "--m", "2", "--p", "3", "--t", "1", "--r", "2")
    doc = json.loads(out)
    validate_report(doc)
    assert code == 2 and doc["match"] is False


def test_verify_operational_error_exit_code(capsys):
    code = cli.main(["verify", "--m", "1", "--p", "3", "--t", "1", "--r", "1"])
    assert code == 1


def test_cell_cap_max_cells(capsys):
    # W(3,3) lines: 40 lines x 40 points
    code = cli.main(
        ["verify", "--m", "2", "--p", "3", "--t", "1", "--r", "2", "--max-cells", "1599"]
    )
    assert code == 1
    assert "--max-cells" in capsys.readouterr().err
    code, doc = run_json(
        capsys, "verify", "--m", "2", "--p", "3", "--t", "1", "--r", "2",
        "--max-cells", "1600",
    )
    assert code == 0 and doc["match"] is True


def test_rank_roundtrip(tmp_path, capsys):
    matrix_path = tmp_path / "w33.mat"
    code, meta = run_json(
        capsys, "export", "--m", "2", "--p", "3", "--t", "1", "--r", "2",
        "--matrix-out", str(matrix_path),
    )
    assert code == 0
    assert meta["rows"] == meta["cols"] == 40
    assert meta["row_sum"] == meta["col_sum"] == 4
    code, doc = run_json(capsys, "rank", str(matrix_path))
    assert code == 0
    assert doc == {
        "report": "matrix-rank",
        "rows": 40,
        "cols": 40,
        "modulus": 3,
        "rank": 25,
        "kernel": {
            "transposed": False,
            "lane_bytes": 1,
            "basis_bytes": 25 * 40,
            "rows_seen": 40,
            "rows_independent": 25,
        },
    }


def _write_ones(path, rows, cols, modulus):
    """A rows x cols file with a one on each diagonal position."""
    from polarank.incidence import SparseIncidenceMatrix, write_matrix

    k = min(rows, cols)
    indptr = np.concatenate([np.arange(k + 1), np.full(rows - k, k)]).astype(np.intp)
    write_matrix(SparseIncidenceMatrix(rows, cols, modulus, indptr, np.arange(k, dtype=np.intp)), path)
    return str(path)


def test_rank_cap_counts_lane_bytes_of_the_oriented_basis(tmp_path, capsys, monkeypatch):
    # 5 x 5 byte lanes plus 8 bytes for each of the 120 oriented rows: 985 bytes
    monkeypatch.setattr(cli, "BASIS_BYTE_CAP", 1000)
    wide = _write_ones(tmp_path / "wide.mat", 5, 120, 3)  # the old cell count: 600
    code, doc = run_json(capsys, "rank", wide)
    assert code == 0 and doc["rank"] == 5
    # the transpose has 120 rows, 115 of them empty and never fed
    assert doc["kernel"] == {"transposed": True, "lane_bytes": 1, "basis_bytes": 25,
                             "rows_seen": 5, "rows_independent": 5}
    import jsonschema

    for key, value in [("lane_bytes", 3), ("rows_seen", -1), ("transposed", 1), ("extra", 0)]:
        with pytest.raises(jsonschema.ValidationError):
            validate_report({**doc, "kernel": {**doc["kernel"], key: value}})
    with pytest.raises(jsonschema.ValidationError):
        validate_report({k: v for k, v in doc.items() if k != "kernel"})
    for path, want in [
        (_write_ones(tmp_path / "square.mat", 30, 30, 3), 30 * 30 + 8 * 30),
        (_write_ones(tmp_path / "p17.mat", 24, 24, 17), 24 * 24 * 2 + 8 * 24),
    ]:
        assert cli.main(["rank", path]) == 1
        err = capsys.readouterr().err
        assert f"{want} bytes" in err and "cap 1000" in err, err
    # the same 24 x 24 shape at p = 13 fits: one byte per lane
    code, doc = run_json(capsys, "rank", _write_ones(tmp_path / "p13.mat", 24, 24, 13))
    assert code == 0 and doc["kernel"]["lane_bytes"] == 1 and doc["rank"] == 24


# sha256 of `export --m M --p P --t T --r R`, recorded when the format was fixed
EXPORT_SHA256 = {
    (2, 3, 1, 2): "f453282992fbc4b27ecbb3c38a0a48977af7a9829aa0b91cd78e5185325622c2",
    (3, 3, 1, 4): "9eff4ff10d1eaa0f9dce8488d7136bc65a6c571fe9f4379aaae7839b6c9006eb",
}


def test_export_checksum_deterministic(tmp_path, capsys):
    for (m, p, t, r), want in EXPORT_SHA256.items():
        flags = ["--m", str(m), "--p", str(p), "--t", str(t), "--r", str(r)]
        out1, out2 = tmp_path / f"a{m}{r}.mat", tmp_path / f"b{m}{r}.mat"
        _, meta1 = run_json(capsys, "export", *flags, "--matrix-out", str(out1))
        _, meta2 = run_json(capsys, "export", *flags, "--matrix-out", str(out2))
        assert meta1["sha256"] == meta2["sha256"] == want
        assert out1.read_bytes() == out2.read_bytes()


def test_export_matrix_market(tmp_path, capsys):
    path = tmp_path / "w33.mtx"
    code, meta = run_json(
        capsys, "export", "--m", "2", "--p", "3", "--t", "1", "--r", "2",
        "--matrix-out", str(path), "--format", "mm",
    )
    assert code == 0 and meta["format"] == "mm"
    assert path.read_text().startswith("%%MatrixMarket matrix coordinate integer general")


def test_formula_and_dmatrix(capsys):
    code, doc = run_json(
        capsys, "formula", "--m", "3", "--p", "3", "--t", "1", "--r", "3"
    )
    assert code == 0 and doc["formula_rank"] == 196
    code, doc = run_json(capsys, "dmatrix", "--m", "2", "--p", "3")
    assert code == 0
    assert doc["entries"] == [[10, 16], [4, 14]] and doc["trace"] == 24


def test_table_json_and_csv(capsys):
    code, doc = run_json(capsys, "table", "--m", "2", "--p", "3", "--t-max", "3")
    assert code == 0
    by_p = {c["p"]: c["ranks"] for c in doc["columns"]}
    assert by_p[3] == [25, 425, 8353]
    assert by_p[2] == [10, 50, 298]  # the characteristic-2 column
    code, out = run(
        capsys, "table", "--m", "2", "--p", "3", "--t-max", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,p=2,p=3"
    assert lines[1] == "1,10,25"


def test_posets_json_and_dot(capsys):
    code, doc = run_json(capsys, "posets", "--m", "2", "--p", "3", "--t", "1")
    assert code == 0
    assert doc["H"] == [[1], [2], [3]]
    assert len(doc["H_d"]) == 5 and len(doc["S"]) == 4
    code, out = run(capsys, "posets", "--m", "2", "--p", "3", "--t", "1", "--dot", "s")
    assert code == 0 and out.startswith("digraph")


def test_posets_nonzero_grading(capsys):
    code, doc = run_json(capsys, "posets", "--m", "2", "--p", "3", "--t", "2", "--d", "3")
    assert code == 0 and doc["d"] == 3
    # H[d] for d != 0 admits s_j = 0 and carries the digit shift
    assert all(len(s) == 2 for s in doc["H_d"])
    assert any(0 in s for s in doc["H_d"])


def test_lab_ledger_schema(capsys):
    code, out = run(capsys, "lab", "verify-lemmas", "--m", "2", "--p", "3", "--t", "1")
    doc = json.loads(out)
    validate_report(doc)
    assert code == 0 and doc["passed"] is True
    # the whole ledger, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "25774fadc4021d6559fcb553f1a57abde6a03c3835c0035c2609e55e350c3516"
    )


def test_lab_ledger_pinned_at_q9(capsys):
    # the benchmarked lab job: the batched sweeps and array kernels must
    # leave every count and counterexample of the (2,3,2) ledger unchanged
    code, out = run(capsys, "lab", "verify-lemmas", "--m", "2", "--p", "3", "--t", "2")
    assert code == 0 and json.loads(out)["passed"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4254b27456507eeb2b2ed92ce394cfffcd26baf15f642db66477c7f018c10ba5"
    )


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(
        ["formula", "--m", "2", "--p", "3", "--t", "1", "--r", "2", "--out", str(target)]
    )
    assert code == 0
    doc = json.loads(target.read_text())
    validate_report(doc)
    assert doc["formula_rank"] == 25


@pytest.mark.parametrize(
    "argv",
    [
        ["--bogus"],
        ["verify", "--m", "two", "--p", "3", "--t", "1", "--r", "2"],
        ["verify", "--m", "2", "--p", "3", "--t", "1", "--r", "2", "--force"],
        ["posets", "--m", "2", "--p", "3", "--t", "-1"],
        ["posets", "--m", "2", "--p", "4", "--t", "1"],
        ["posets", "--m", "2", "--p", "2", "--t", "1"],
        ["posets", "--m", "1", "--p", "3", "--t", "1"],
        ["posets", "--m", "2", "--p", "4", "--t", "1", "--dot", "h"],
        ["formula", "--m", "2", "--p", "3", "--t", "1", "--r", "2", "--all-t", "-3"],
        ["formula", "--m", "2", "--p", "3", "--t", "1", "--r", "2", "--all-t", "0"],
        ["table", "--m", "2", "--p", "3", "--t-max", "-1"],
        ["table", "--m", "2", "--p", "3", "--t-max", "0"],
    ],
    ids=[
        "bogus", "m-two", "removed-force", "posets-t-negative", "posets-p-composite",
        "posets-p-2", "posets-m-1", "posets-dot-p-composite", "all-t-negative", "all-t-0",
        "t-max-negative", "t-max-0",
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    # exit code 2 is a formula/oracle mismatch, never a usage or range error
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_help_exits_0_and_lists_one_cap_knob(capsys):
    for command in ("verify", "export"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        assert "--max-cells" in usage
        assert "--force" not in usage and "--mode" not in usage


@contextlib.contextmanager
def any_int_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_formula_never_builds_the_field(capsys, monkeypatch):
    def refuse(p, t):
        raise RuntimeError(f"formula built GF({p}^{t})")

    # the CLI binds no build_field of its own: every field is built through gf
    monkeypatch.setattr(gf, "build_field", refuse)
    for argv, want in (
        (("--m", "2", "--p", "10007", "--t", "1000", "--r", "2"), rank_W3_closed_form(10007, 1000)),
        (("--m", "4", "--p", "3", "--t", "1000", "--r", "4"), 1 + build_D_matrix(4, 3).trace_power(1000)),
    ):
        code, out = run(capsys, "formula", *argv)
        with any_int_digits():
            doc = json.loads(out)
        validate_report(doc)
        assert code == 0 and doc["formula_rank"] == want and "field" not in doc


def test_ranks_past_the_int_digit_limit_print(capsys):
    limit = sys.get_int_max_str_digits()
    table = ("table", "--m", "2", "--p", "10007", "--t-max", "400")
    outs = [
        run(capsys, *table),
        run(capsys, *table, "--format", "csv"),
        run(capsys, "formula", "--m", "2", "--p", "10007", "--t", "1", "--r", "2", "--all-t", "400"),
    ]
    # the CLI lifts the limit only while it writes
    assert sys.get_int_max_str_digits() == limit
    assert [code for code, _ in outs] == [0, 0, 0]
    # W(3, 10007^400) lines: the rank has more than 4300 digits
    big = rank_W3_closed_form(10007, 400)
    assert big > 10**limit
    with any_int_digits():
        assert json.loads(outs[0][1])["columns"][1]["ranks"][-1] == big
        assert outs[1][1].rstrip().endswith(",%d" % big)
        assert json.loads(outs[2][1])["notes"][0].endswith(", %d]" % big)


# a fresh interpreter in which any import of numpy raises, then one CLI run
NUMPY_FREE_MAIN = """
import sys


class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise RuntimeError(f"a numpy-free command imported {name}")
        return None


sys.meta_path.insert(0, RefuseNumpy())
from polarank import cli

code = cli.main(sys.argv[1:])
if "numpy" in sys.modules:
    raise RuntimeError("numpy was loaded")
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["formula", "--m", "3", "--p", "3", "--t", "10", "--r", "3", "--all-t", "3"],
        ["table", "--m", "2", "--p", "3", "5", "--t-max", "4"],
        ["table", "--m", "2", "--p", "3", "--t-max", "3", "--format", "csv"],
        ["dmatrix", "--m", "4", "--p", "7"],
        ["posets", "--m", "2", "--p", "3", "--t", "2", "--d", "3"],
        ["posets", "--m", "2", "--p", "3", "--t", "1", "--dot", "h"],
    ],
    ids=["formula", "table", "table-csv", "dmatrix", "posets", "posets-dot"],
)
def test_formula_engine_commands_never_import_numpy(capsys, argv):
    # the table at m = 2 carries the p = 2 (Sastry-Sin) column as well
    want_code, want_out = run(capsys, *argv)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_MAIN, *argv],
        capture_output=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr.decode()
    # bytes, not text mode: the CSV's \r\n row ends must compare as written
    assert want_code == 0 and proc.stdout.decode() == want_out


NUMPY_MA_PROBE = """
import sys

import numpy

if "numpy.ma" in sys.modules:
    sys.exit(3)
from polarank import cli

code = cli.main(sys.argv[1:])
sys.exit(code if code else 4 if "numpy.ma" in sys.modules else 0)
"""


@pytest.mark.parametrize("command", ["verify", "export", "rank"])
def test_oracle_commands_leave_numpy_ma_unloaded(tmp_path, capsys, command):
    # numpy.ma costs 10-13 ms of import (-X importtime); `np.unique` is one way to load it
    path = str(tmp_path / "w53.mat")
    argv = {
        "verify": ["verify", "--m", "3", "--p", "3", "--t", "1", "--r", "4"],
        "export": ["export", "--m", "3", "--p", "3", "--t", "1", "--r", "4", "--matrix-out", path],
        "rank": ["rank", path],
    }[command]
    if command == "rank":
        assert run(capsys, "export", "--m", "3", "--p", "3", "--t", "1", "--r", "4",
                   "--matrix-out", path)[0] == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE, *argv],
                          capture_output=True, env=env, timeout=60)
    if proc.returncode == 3:
        pytest.skip("import numpy alone loads numpy.ma here")
    assert proc.returncode == 0, (proc.returncode, proc.stderr.decode())
