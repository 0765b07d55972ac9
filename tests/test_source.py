"""Checks on the package source itself."""

import ast
from pathlib import Path

import atlab

SOURCE = Path(atlab.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert, so proof obligations must raise explicitly
    found = []
    for path in sorted(SOURCE.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in atlab: {found}"
