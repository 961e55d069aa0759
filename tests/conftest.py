import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def clear_caches():
    """A function that empties every module-level cache of the package."""
    from hltorus import densities, hall_littlewood

    def clear():
        for module in (densities, hall_littlewood):
            module.clear_caches()

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
