"""Package-wide code contracts."""

import ast
from pathlib import Path

import polarank
from polarank import cli

SOURCES = sorted(Path(polarank.__file__).parent.glob("*.py"))


def test_no_assert_invariants():
    # python -O strips asserts, so every invariant must raise a PolarankError
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found


# matrix files from outside: not UTF-8, a negative column count, an Arabic-Indic
# digit, and a prime modulus too large for any kernel lane
MALFORMED_FILES = {
    "not-utf8": b"polar-rank-incidence v1\n1 2 3\n1 \xff\n",
    "negative-cols": b"polar-rank-incidence v1\n1 -5 3\n0\n",
    "non-ascii-digit": "polar-rank-incidence v1\n1 2 3\n1 ١\n".encode(),
    "huge-modulus": b"polar-rank-incidence v1\n1 2 1000000000000000003\n1 0\n",
}


def test_cli_rank_rejects_malformed_files(tmp_path, capsys):
    for name, data in MALFORMED_FILES.items():
        path = tmp_path / name
        path.write_bytes(data)
        assert cli.main(["rank", str(path)]) == 1, name
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), (name, err)
    assert "64-bit lane" in err
