import warnings

import numpy as np
import pytest

from tfnorm.bupu import make_integer_bupu
from tfnorm.family import test_family
from tfnorm.grid import GridSpec
from tfnorm.stft import MAX_TF_BYTES
from tfnorm.windows import normalized_gaussian


@pytest.fixture(scope="session")
def grid():
    """Default verification grid: d=1, L=16, N=1024."""
    return GridSpec(1, 16.0, 1024)


@pytest.fixture(scope="session")
def grid_small():
    return GridSpec(1, 16.0, 256)


@pytest.fixture(scope="session")
def family(grid):
    return test_family(grid, seed=0)


@pytest.fixture(scope="session")
def family_small(grid):
    return test_family(grid, seed=0, small=True)


@pytest.fixture(scope="session")
def bupu(grid):
    return make_integer_bupu(grid)


@pytest.fixture(scope="session")
def gauss_window(grid):
    return normalized_gaussian(grid)


@pytest.fixture(autouse=True)
def _quiet_aliasing_guard():
    """The canonical bump carries ~1e-5 spectral mass at the dual-grid edge,
    so the FL^1 aliasing guard warns by design; keep test output readable."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="spectral tail beyond the dual grid")
        yield


@pytest.fixture()
def no_array_above_limit(monkeypatch):
    """Fail any numpy allocation above the time-frequency limit instead of
    making it, so a missing size check cannot exhaust memory."""
    for name in ("empty", "zeros"):
        real = getattr(np, name)

        def guarded(shape, *args, _real=real, **kwargs):
            assert np.prod(shape) * 16 <= MAX_TF_BYTES, f"allocation of shape {shape}"
            return _real(shape, *args, **kwargs)

        monkeypatch.setattr(np, name, guarded)
