"""Package-wide code contracts."""

import ast
import importlib
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
# digit, a 5000-digit header field, 2^62 columns (kernel row pointers past the
# byte cap), and a prime modulus too large for any kernel lane
MALFORMED_FILES = {
    "not-utf8": b"polar-rank-incidence v1\n1 2 3\n1 \xff\n",
    "negative-cols": b"polar-rank-incidence v1\n1 -5 3\n0\n",
    "non-ascii-digit": "polar-rank-incidence v1\n1 2 3\n1 ١\n".encode(),
    "5000-digit-header": b"polar-rank-incidence v1\n1 " + b"9" * 5000 + b" 3\n0\n",
    "huge-columns": b"polar-rank-incidence v1\n1 4611686018427387904 3\n0\n",
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


def test_benchmark_tracer_names_resolve():
    # the benchmark tracer reports a missing name as null instead of failing,
    # so a renamed layer would silently blind its per-layer metrics
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    tree = ast.parse(child.read_text(), filename=str(child))
    targets = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "patch"
            and len(node.args) >= 2
            and all(isinstance(a, ast.Constant) for a in node.args[:2])
        ):
            targets.append((node.args[0].value, node.args[1].value))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAB_SUITES" for t in node.targets
        ):
            targets += [("polarank.labchecks", suite) for suite in ast.literal_eval(node.value)]
    assert len(targets) > 20, targets
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing
