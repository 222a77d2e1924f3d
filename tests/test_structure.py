"""Structural checks over the source tree, read with `ast`; nothing is run."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "claimcheck"

# Definitions that no code names as an identifier but that are used all the
# same, each with the reason.
EXEMPT = {
    # bench/tracing.py patches it by the name string "read_all", to time the
    # reads that callers make through it.
    ("jsonl.py", "read_all"),
}


def _names(tree: ast.AST) -> set[str]:
    """Every identifier that `tree` names: a name, an attribute, or a
    name it imports."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unnamed_definitions() -> list[str]:
    """Module-level functions and classes of `src/` that no statement of
    `src/` or `bench/` names, other than the definition itself. A package
    `__init__` only re-exports, and a test is not a caller, so neither
    counts."""
    files = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    statements = [(path, stmt) for path in files
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    named = {id(stmt): _names(stmt) for _, stmt in statements}
    unnamed = []
    for path, stmt in statements:
        if path.is_relative_to(SRC) and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            relative = path.relative_to(SRC).as_posix()
            if (relative, stmt.name) in EXEMPT:
                continue
            if not any(stmt.name in named[id(other)]
                       for _, other in statements if other is not stmt):
                unnamed.append(f"{relative}:{stmt.lineno} {stmt.name}")
    return unnamed


def test_every_module_level_definition_in_src_is_named_by_src_or_bench():
    """A definition only tests call is a twin of the one runs call, or dead
    code: delete it, or have the run call it."""
    assert unnamed_definitions() == []


def test_exemptions_name_definitions_that_exist():
    for relative, name in EXEMPT:
        tree = ast.parse((SRC / relative).read_text(encoding="utf-8"))
        assert name in {stmt.name for stmt in tree.body
                        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
