"""Every function and import in ``src/diracavg`` is reached from the package.

A name a ``def`` binds must occur somewhere in the package outside that
definition, and a name an import binds must occur in its own module outside
the import.  The scan is by name only: a method that shares its name with a
used function passes.  A name counts where code reads it, as a variable or
an attribute, and inside a string annotation.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, List, Set, Tuple

import diracavg

SRC = pathlib.Path(diracavg.__file__).parent

# kept with no caller in the package: (module, name) -> why
ALLOWED = {
    ("moser", "interp_matrix"): "bench/spans.py wraps it by name in EXTRA_SPANS",
}


def _annotation_names(node: ast.AST) -> List[Tuple[str, int]]:
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            for inner in ast.walk(ast.parse(sub.value, mode="eval")):
                if isinstance(inner, ast.Name):
                    out.append((inner.id, sub.lineno))
    return out


def _uses(tree: ast.AST) -> List[Tuple[str, int]]:
    """(name, line) for every read of a name or attribute, annotations included."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    out += _annotation_names(arg.annotation)
            if node.returns is not None:
                out += _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            out += _annotation_names(node.annotation)
    return out


def _unreached() -> Set[Tuple[str, str]]:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    uses: Dict[str, List[Tuple[str, int]]] = {mod: _uses(tree) for mod, tree in trees.items()}

    def used(name: str, mod: str, first: int, last: int, modules) -> bool:
        return any(
            n == name and not (m == mod and first <= line <= last)
            for m in modules
            for n, line in uses[m]
        )

    out = set()
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if not used(name, mod, node.lineno, node.end_lineno, trees):
                    out.add((mod, name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name == "annotations":
                        continue
                    if not used(name, mod, node.lineno, node.end_lineno, [mod]):
                        out.add((mod, name))
    return out


def test_every_def_and_import_in_the_package_is_reached():
    assert sorted(_unreached() - set(ALLOWED)) == []


def test_every_allowed_name_is_still_defined_and_unreached():
    # an entry whose name gained a caller, or is gone, is stale
    assert sorted(set(ALLOWED) - _unreached()) == []
