"""Every layer the benchmark traces names an attribute of the package.

``hlbench/child.py`` wraps each ``(module, attribute, class)`` of its
``LAYERS`` for a traced pass and stops if one is gone; this test reads the
table without importing the benchmark, so deleting a traced attribute
fails the test suite too.
"""

import ast
import importlib
import os

CHILD = os.path.join(os.path.dirname(__file__), "..", "hlbench", "child.py")


def _layers():
    with open(CHILD, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS table in hlbench/child.py")


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for name, modname, attr, clsname in layers:
        owner = importlib.import_module(modname)
        if clsname is not None:
            owner = getattr(owner, clsname)
        assert callable(getattr(owner, attr, None)), name
