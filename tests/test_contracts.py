"""Package-wide code contracts."""

import ast
import importlib
from pathlib import Path

import pytest

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


# every name the package re-exports, by the submodule that defines it
PACKAGE_SURFACE = {
    "gf": "FieldSpec binom_mod_p build_field",
    "geometry": "SymplecticSpace enumerate_all_subspaces enumerate_coisotropic "
    "enumerate_isotropic enumerate_points gaussian_binomial isotropic_count perp point_count",
    "incidence": "SparseIncidenceMatrix build_incidence incidence_from_flats read_matrix "
    "write_matrix write_matrix_market",
    "ranks": "DenseRowPacked rank_mod_p",
    "posets": "HType LambdaType SignedHType enumerate_H enumerate_H_d enumerate_S "
    "h_type_from_lambda ideal_below lambda_from_h_type signed_ideal_below signed_leq type_of",
    "dimensions": "DimensionTable DMatrix build_D_matrix dim_L_signed dim_S_lambda "
    "dim_S_plus_minus dim_Y_signed dim_Y_unsigned dimension_table rank_W3_char2 "
    "rank_W3_closed_form rank_point_flat",
}


def test_package_surface_resolves_on_first_use():
    surface = {name: module for module, names in PACKAGE_SURFACE.items() for name in names.split()}
    assert len(surface) == 44
    listed = dir(polarank)
    for name, module in surface.items():
        own = getattr(importlib.import_module(f"polarank.{module}"), name)
        namespace = {}
        exec(f"from polarank import {name}", namespace)
        assert getattr(polarank, name) is own and namespace[name] is own, name
        assert name in listed, name
    assert "__version__" in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        polarank.no_such_name
    with pytest.raises(ImportError):
        exec("from polarank import no_such_name", {})


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
