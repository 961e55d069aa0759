"""The package is pure standard library, and its public names resolve."""

import ast
import sys
from pathlib import Path

import hltorus

SRC = Path(__file__).resolve().parent.parent / "src" / "hltorus"


def test_package_imports_only_the_standard_library():
    """Every absolute import in src/hltorus/*.py names a standard-library
    module; relative imports stay inside the package."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += ["%s: %s" % (path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside


def test_every_public_name_resolves():
    assert [name for name in hltorus.__all__ if not hasattr(hltorus, name)] == []


def test_no_package_name_is_test_only():
    """Every module-level def, class or assignment in src/hltorus is loaded
    by package code (a name or an attribute read anywhere in it) or listed
    in ``hltorus.__all__``; ``clear_caches``, the cache protocol the tests
    and the benchmark call, and dunder names are exempt."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    loaded = set(hltorus.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += ["%s: %s" % (module, name) for name in names
                       if name not in loaded and name != "clear_caches"
                       and not name.startswith("__")]
    assert unused == []
