"""One source of settings: every layer reads the run's config sections."""

from __future__ import annotations

import ast
import re
from dataclasses import is_dataclass
from pathlib import Path

import claimcheck
from claimcheck import crosssource
from claimcheck.config import PipelineConfig

from conftest import run_golden

SRC = Path(claimcheck.__file__).parent
# CorpusConfig through ProviderConfig: the sections of a PipelineConfig.
SECTIONS = {type(value).__name__ for value in vars(PipelineConfig()).values()
            if is_dataclass(value)}


def _modules():
    """(path relative to the package, parsed source) of every module."""
    for path in sorted(SRC.rglob("*.py")):
        yield (path.relative_to(SRC).as_posix(),
               ast.parse(path.read_text("utf-8")))


def _names(node: ast.AST) -> set[str]:
    """The names an annotation mentions, quoted ones included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(re.findall(r"\w+", sub.value))
    return names


def _defaulted(args: ast.arguments):
    """The parameters of `args` that have a default."""
    positional = args.posonlyargs + args.args
    yield from positional[len(positional) - len(args.defaults):]
    yield from (arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None)


def test_no_parameter_or_field_defaults_a_config_section():
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}:{node.lineno} {node.name}({arg.arg})"
                          for arg in _defaulted(node.args)
                          if arg.annotation is not None
                          and _names(arg.annotation) & SECTIONS]
            elif isinstance(node, ast.ClassDef) and name != "config.py":
                found += [f"{name}:{field.lineno} {node.name}.{field.target.id}"
                          for field in node.body
                          if isinstance(field, ast.AnnAssign)
                          and field.value is not None
                          and _names(field.annotation) & SECTIONS]
    assert found == []


def test_only_the_config_module_constructs_a_section():
    found = [f"{name}:{node.lineno}" for name, tree in _modules()
             if name != "config.py" for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and _names(node.func) & SECTIONS]
    assert found == []


def test_metric_comparison_in_layer_4_reads_the_run_knowledge_config(
        tmp_path, monkeypatch):
    calls = []
    compare = crosssource.compare_metric_definitions

    def spy(a, b, *args, **kwargs):
        calls.append((*args, *kwargs.values()))
        return compare(a, b, *args, **kwargs)
    monkeypatch.setattr(crosssource, "compare_metric_definitions", spy)
    cfg = PipelineConfig()
    cfg.knowledge.asymmetry_fraction = 0.01
    state = run_golden(tmp_path / "run", cfg=cfg)
    assert state.cfg.knowledge.asymmetry_fraction == 0.01
    assert calls
    assert all(args == (state.cfg.knowledge,) for args in calls)
