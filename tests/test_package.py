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
