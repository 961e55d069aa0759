import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def clear_caches():
    """A function that empties every module-level cache of the package: it
    calls ``clear_caches()`` on every loaded ``hltorus`` module that has one."""
    import hltorus  # noqa: F401  (loads every module)

    def clear():
        for name in sorted(sys.modules):
            if name.startswith("hltorus."):
                module_clear = getattr(sys.modules[name], "clear_caches", None)
                if module_clear is not None:
                    module_clear()

    return clear


@pytest.fixture
def register_identity(monkeypatch):
    """A function that adds a fake registry row for the current test.

    ``register(name, build)`` registers an identity without a weight whose
    builder is ``build``; the row is removed again after the test.
    """
    from hltorus.identities import REGISTRY, IdentityDef

    def register(name, build):
        fake = IdentityDef(name=name, description="test-only", weight_shape="none",
                           build=build)
        monkeypatch.setitem(REGISTRY, name, fake)
        return fake

    return register
