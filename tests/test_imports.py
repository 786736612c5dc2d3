"""The runtime stays stdlib-only, and no module keeps an import it does not use.

Both are read off the source with ``ast``, so the check needs no linter.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "webimpute"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree: ast.Module):
    """``(root module or None if relative, bound name)`` of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            root = node.module.split(".")[0] if node.level == 0 else None
            for alias in node.names:
                yield root, alias.asname or alias.name


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, also inside string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                annotations.append(arg and arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {
        node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)
    }


def test_modules_found():
    assert {"__init__.py", "keywords.py", "providers.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_runtime_imports_only_the_standard_library(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    outside = {root for root, _ in _imports(tree) if root is not None} - set(
        sys.stdlib_module_names
    )
    assert not outside, outside


@pytest.mark.parametrize(
    "module", [m for m in MODULES if m.name != "__init__.py"], ids=lambda m: m.name
)
def test_every_imported_name_is_used(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {name for _, name in _imports(tree) if name != "annotations"} - used
    assert not unused, unused


def test_string_annotations_count_as_uses():
    tree = ast.parse('from x import Rule\ndef f(r: "list[Rule]") -> None: ...\n')
    assert "Rule" in _used_names(tree)
    assert "Rule" not in _used_names(ast.parse("from x import Rule\n"))
