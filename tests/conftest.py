import pathlib

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the hypothesis modules skip themselves
    pass
else:
    # the same examples on every run, and no flaky timing failures
    settings.register_profile("curvcalc", derandomize=True, deadline=None)
    settings.load_profile("curvcalc")

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent / "fixtures"


@pytest.fixture
def fixture_dir() -> pathlib.Path:
    return FIXTURE_DIR


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
