import hashlib
import json

from polarank import cli
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
    assert "rank_s" in doc["timings"]


def test_verify_perp_case_flags_note(capsys):
    code, doc = run_json(
        capsys, "verify", "--m", "2", "--p", "3", "--t", "1", "--r", "3"
    )
    assert code == 0 and doc["match"] is True and doc["formula_rank"] == 11
    assert any("coisotropic" in n for n in doc["notes"])


def test_verify_formula_only(capsys):
    code, doc = run_json(
        capsys, "verify", "--m", "2", "--p", "7", "--t", "3", "--r", "2",
        "--mode", "formula-only",
    )
    assert code == 0 and doc["oracle_rank"] is None and doc["match"] is None
    assert doc["formula_rank"] == rankval(7, 3)


def rankval(p, t):
    from polarank.dimensions import rank_W3_closed_form

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


def test_cell_cap_and_force(capsys):
    code = cli.main(
        ["verify", "--m", "2", "--p", "3", "--t", "1", "--r", "2", "--max-cells", "10"]
    )
    assert code == 1
    capsys.readouterr()
    code, doc = run_json(
        capsys, "verify", "--m", "2", "--p", "3", "--t", "1", "--r", "2",
        "--max-cells", "10", "--force",
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
    }


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


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(
        ["formula", "--m", "2", "--p", "3", "--t", "1", "--r", "2", "--out", str(target)]
    )
    assert code == 0
    doc = json.loads(target.read_text())
    validate_report(doc)
    assert doc["formula_rank"] == 25
