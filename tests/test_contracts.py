"""Package-wide code contracts."""

import ast
from pathlib import Path

import polarank

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
