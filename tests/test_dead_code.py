"""Static guard against dead code in src/bpcodes, using only the stdlib ast.

Fails when a package module imports a name it never uses (``__init__.py``
and ``__future__`` imports are exempt), or imports inside a function a
name or a module its file already imports at top level, and when a function or class
defined in the package, or an UPPER_CASE constant assigned at module level
there, is named nowhere in src/, tests/, scripts/ or perfbench/: not as a
name read, not as an attribute, and not as a string constant that spells a
(dotted) identifier, the way ``getattr`` targets and the tracer's
wrapped-function list do. An assignment does not name its target.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bpcodes"
SEARCHED = ("src", "tests", "scripts", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
CONSTANT = re.compile(r"_*[A-Z][A-Z0-9_]*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _source_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return [alias.name for alias in node.names]


def _imports(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            yield node


def test_no_unused_or_repeated_imports():
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        top_nodes = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
        top_level = {name for node in top_nodes for name in _bound_names(node)}
        top_modules = {module for node in top_nodes for module in _source_modules(node)}
        for node in _imports(tree):
            nested = node not in tree.body
            if nested:
                problems.extend(
                    f"{path.name}:{node.lineno} imports from {module} in a function;"
                    " the file imports it at top level"
                    for module in _source_modules(node)
                    if module in top_modules
                )
            for name in _bound_names(node):
                if name not in used:
                    problems.append(f"{path.name}:{node.lineno} imports {name}, never used")
                elif nested and name in top_level:
                    problems.append(f"{path.name}:{node.lineno} re-imports {name}")
    assert not problems, "\n".join(problems)


def _named_anywhere() -> set[str]:
    named: set[str] = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and DOTTED.fullmatch(node.value)
                ):
                    named.update(node.value.split("."))
    return named


def test_every_definition_is_named_somewhere():
    named = _named_anywhere()
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in named:
                unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unnamed, "defined but never named:\n" + "\n".join(unnamed)


def test_every_constant_is_named_somewhere():
    named = _named_anywhere()
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            else:
                targets = [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and CONSTANT.fullmatch(target.id)
                    and target.id not in named
                ):
                    unnamed.append(f"{path.name}:{node.lineno} {target.id}")
    assert not unnamed, "assigned but never named:\n" + "\n".join(unnamed)
