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


def test_no_unused_imports():
    # a name imported and never used is dead code; a module may keep one only
    # under `# noqa: F401` with a reason. __init__.py imports to re-export.
    found = []
    for path in sorted(SOURCE.glob("**/*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            marker = lines[node.lineno - 1].partition("# noqa: F401")
            if marker[1]:
                if not marker[2].strip():
                    found.append(f"{path.name}:{node.lineno} noqa without a reason")
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"unused imports in atlab: {found}"


def test_no_environment_reads():
    # budgets come from SolverOptions and CLI flags; an environment variable
    # would be a second, hidden way to set them
    found = []
    for path in sorted(SOURCE.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} from os import {a.name}"
                          for a in node.names if a.name in ("environ", "getenv")]
    assert not found, f"environment reads in atlab: {found}"


def test_every_module_level_definition_is_referenced():
    # a function or class that nothing in the package names is kept only for
    # tests or benchmarks; a re-export in __init__.py counts as a reference
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SOURCE.glob("**/*.py"))}

    def names(top):
        out = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.asname or node.name)
        return out

    # names used by each module-level statement, keyed by (file, position)
    used = {(name, i): names(node) for name, tree in trees.items()
            for i, node in enumerate(tree.body)}
    found = []
    for name, tree in trees.items():
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not any(node.name in s for key, s in used.items() if key != (name, i)):
                found.append(f"{name}:{node.lineno} {node.name}")
    assert not found, f"unreferenced definitions in atlab: {found}"
