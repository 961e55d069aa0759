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

    ``register(name, closed)`` registers a row that the generic builder
    runs: P_lambda against the Selberg density, a weight of n parts and the
    closed form ``closed``, a function of the instance returning (num, den).
    At n=1 and weight (0,) the integral is 1.  The row is removed again
    after the test.
    """
    from hltorus.identities import REGISTRY, IdentityDef

    def register(name, closed):
        fake = IdentityDef(name=name, description="test-only", weight_shape="n parts",
                           integrands=("selberg",), rank="n", closed=closed)
        monkeypatch.setitem(REGISTRY, name, fake)
        return fake

    return register
