"""Every layer the benchmark traces names an attribute of the package, and
each workload calls each one.

``hlbench/child.py`` wraps each ``(module, attribute, class)`` of its
``LAYERS`` for a traced pass and stops if one is gone, and ``hlbench/run.py``
stops on a traced layer that records no call.  These tests read the table
and run one tiny pass of each workload in process, without the benchmark's
runner, so deleting a traced attribute or a layer's last call on a workload
fails the test suite too.
"""

import ast
import importlib
import importlib.util
import os
import sys

import pytest

from hltorus import identities

HLBENCH = os.path.join(os.path.dirname(__file__), "..", "hlbench")


def _layers():
    with open(os.path.join(HLBENCH, "child.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS table in hlbench/child.py")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "hlbench_workloads", os.path.join(HLBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _clear_caches():
    for name in sorted(sys.modules):
        if name.startswith("hltorus."):
            clear = getattr(sys.modules[name], "clear_caches", None)
            if clear is not None:
                clear()


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for name, modname, attr, clsname in layers:
        owner = importlib.import_module(modname)
        if clsname is not None:
            owner = getattr(owner, clsname)
        assert callable(getattr(owner, attr, None)), name


WORKLOADS = _workloads()


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_tiny_pass_calls_every_traced_layer(workload, monkeypatch):
    """One tiny pass, caches cleared per instance on the cold workloads and
    once at the start otherwise, calls each layer at least once, counted in
    every hltorus module that binds it, and every report has its status."""
    calls = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name, modname, attr, clsname in _layers():
        calls[name] = 0
        if clsname is not None:
            owner = getattr(importlib.import_module(modname), clsname)
            monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
            continue
        fn = getattr(importlib.import_module(modname), attr)
        for mod in [m for key, m in sorted(sys.modules.items())
                    if key == "hltorus" or key.startswith("hltorus.")]:
            if getattr(mod, attr, None) is fn:
                monkeypatch.setattr(mod, attr, counting(name, fn))
    _clear_caches()
    for inst in WORKLOADS.instances(workload, 1, True, identities.sweep_weights):
        if WORKLOADS.COLD[workload]:
            _clear_caches()
        assert identities.verify(inst.identity, **inst.kwargs).status == inst.expected, inst
    _clear_caches()
    assert all(calls.values()), calls
