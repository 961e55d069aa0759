"""The package is pure standard library, its public names resolve, and its caches clear."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import hltorus
from hltorus.identities import verify

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


def _calls(paths):
    """name -> list of (positional count, keyword names) over every call in
    ``paths``, by the called ``Name`` or ``Attribute`` name; a call with
    ``*args`` or ``**kw`` has count None."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            spread = (any(isinstance(a, ast.Starred) for a in node.args)
                      or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (None if spread else len(node.args), {k.arg for k in node.keywords}))
    return calls


def _defaulted_parameters():
    """(label, function name, passes) per defaulted parameter of a
    module-level function or class method in src/hltorus.

    ``passes`` holds, per call in src/ or tests/ by the function's name (by
    its class's name for ``__init__``, with ``self`` passed implicitly),
    whether the call passes the parameter, by keyword or by position, or
    None for a call with ``*args`` or ``**kw``, which may or may not.
    """
    root = SRC.parent.parent
    calls = _calls(list(root.glob("src/**/*.py")) + list(root.glob("tests/**/*.py")))
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs = [(None, node) for node in tree.body]
        defs += [(node.name, item) for node in tree.body if isinstance(node, ast.ClassDef)
                 for item in node.body]
        for owner, fn in defs:
            if not isinstance(fn, ast.FunctionDef):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            bound = owner is not None and not static
            name = owner if bound and fn.name == "__init__" else fn.name
            a = fn.args
            positional = a.posonlyargs + a.args
            params = [(i - bound, p.arg) for i, p in enumerate(positional)
                      if i >= len(positional) - len(a.defaults)]
            params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None]
            for index, arg in params:
                passes = [None if count is None
                          else arg in keywords or index is not None and count > index
                          for count, keywords in calls.get(name, ())]
                yield "%s: %s(%s=)" % (path.name, fn.name, arg), fn.name, passes


def test_no_optional_parameter_is_unused():
    """Every defaulted parameter (``_defaulted_parameters``) is passed by
    some call, a call with ``*args`` or ``**kw`` counting as passing it."""
    unused = [label for label, _, passes in _defaulted_parameters()
              if all(p is False for p in passes)]
    assert unused == []


def test_no_private_default_is_always_passed():
    """No defaulted parameter of a private function or method (a ``_``
    name, dunders aside) is passed by every call, a call with ``*args`` or
    ``**kw`` counting as leaving it out: such a default is never read."""
    always = [label for label, fn, passes in _defaulted_parameters()
              if fn.startswith("_") and not fn.startswith("__")
              and passes and all(p is True for p in passes)]
    assert always == []


def test_clear_caches_empties_every_cache():
    """``clear_caches`` on every module (``__main__`` aside: importing it runs
    the CLI), then one instance per route, then clearing again, leaves every
    module-level dict that grew at its size before the run and every
    ``lru_cache`` empty.  The benchmark's cold passes rely on this."""
    modules = [importlib.import_module("hltorus." + info.name)
               for info in pkgutil.iter_modules(hltorus.__path__) if info.name != "__main__"]

    def clear():
        for module in modules:
            getattr(module, "clear_caches", lambda: None)()

    def sizes():
        return {(module.__name__, name): len(value) for module in modules
                for name, value in vars(module).items() if isinstance(value, dict)}

    memos = {(module.__name__, name): value for module in modules
             for name, value in vars(module).items() if hasattr(value, "cache_info")}
    clear()
    before = sizes()
    for name, kwargs in (("orthogonality", dict(n=2, weight=(1,), mu=(1,))),  # lead
                         ("o_plus_odd", dict(n=2, weight=(1,))),  # orbit
                         ("kawanaka", dict(n=2, weight=(1, 1))),  # term by term
                         ("normalization_iii", dict(n=2)),  # bare "D"
                         ("u2n_vanishing", dict(n=2, weight=(1, -1))),  # Cauchy
                         ("unm_vanishing", dict(n=2, m=1, weight=(1, -1)))):  # classes
        assert verify(name, order=6, **kwargs).status in ("match", "vanished-as-predicted")
    grew = {key for key, size in sizes().items() if size > before[key]}
    assert {("hltorus.densities", "_EXPANSION_CACHE"), ("hltorus.hall_littlewood", "_CACHE"),
            ("hltorus.identities", "_PLANS")} <= grew
    assert any(memo.cache_info().currsize for memo in memos.values())
    clear()
    after = sizes()
    assert {key: after[key] for key in grew} == {key: before[key] for key in grew}
    assert {key for key, memo in memos.items() if memo.cache_info().currsize} == set()
