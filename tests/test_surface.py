"""Guard: ``src/`` holds only code that something outside the tests reaches.

A module-level function or method of ``rwre_lab`` counts as reached when its
name is referred to by code in ``src/`` outside its own body, is imported by
``rwre_lab/__init__.py``, is a lookup site of ``perfbench/spans.LAYERS``, or
is imported from ``rwre_lab`` by a ``perfbench/*.py`` file. Judges and helpers
that only tests need live under ``tests/`` (``oracles.py``, ``envhelpers.py``).
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rwre_lab"
BENCH = ROOT / "perfbench"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and each non-dunder method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def references(tree: ast.AST) -> Counter:
    """How often each name is read as a variable or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def package_imports(tree: ast.Module, relative: bool) -> set:
    """Names imported from ``rwre_lab`` (or, with ``relative``, from a sibling module)."""
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level > 0 if relative else (node.module or "").startswith("rwre_lab"))
            for alias in node.names}


def layer_lookups() -> set:
    """The attribute names ``perfbench/spans.LAYERS`` looks up in ``rwre_lab``."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {attr.split(".")[-1] for _, sites, _ in spans.LAYERS
            for module, attr in sites if module.startswith("rwre_lab")}


def unreached() -> list:
    """Qualified names of the functions and methods in ``src/`` that nothing reaches."""
    trees = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = sum((references(tree) for tree in trees.values()), Counter())
    outside = package_imports(trees[PACKAGE / "__init__.py"], relative=True) | layer_lookups()
    for path in BENCH.glob("*.py"):
        outside |= package_imports(parse(path), relative=False)
    return [f"{path.stem}.{qualified}" for path, tree in trees.items()
            for qualified, node in definitions(tree)
            if node.name not in outside and used[node.name] <= references(node)[node.name]]


def test_every_function_in_src_is_reached_outside_the_tests():
    missing = unreached()
    assert not missing, f"reached by nothing outside the tests: {', '.join(missing)}"
