import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def clear_caches():
    """A function that empties every module-level cache of the package."""
    from hltorus import densities, hall_littlewood, identities

    def clear():
        for module in (densities, hall_littlewood, identities):
            module.clear_caches()

    return clear
