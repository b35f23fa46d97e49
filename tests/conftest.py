import numpy as np
import pytest
from hypothesis import settings

from mtmlab.fields import Grid

# reproducible property tests with no wall-clock deadline on a loaded host
settings.register_profile("mtmlab", derandomize=True, deadline=None)
settings.load_profile("mtmlab")


@pytest.fixture(scope="session")
def grid():
    """The default laboratory grid: [-30, 30), 4096 points."""
    return Grid.symmetric()


@pytest.fixture(scope="session")
def grid_small():
    return Grid.symmetric(30.0, 1024)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
