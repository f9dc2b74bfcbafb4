import os

import pytest
from hypothesis import settings

from matula import PrimeTable

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run and no
# per-example deadline on slow runners; local runs draw fresh examples.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def table() -> PrimeTable:
    """One shared prime table; extension is monotone so sharing is safe."""
    return PrimeTable()
