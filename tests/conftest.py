import pytest

from theta_forms import models


@pytest.fixture
def fresh_operators():
    """Empty u(p,q) operator and certificate caches for the test, emptied
    again after it: nothing the test builds, for instance under patched
    constants, outlives it."""
    caches = (models.upq_op_model, models.calibrate_structure)
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()
