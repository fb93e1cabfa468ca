import pytest

from theta_forms import models


@pytest.fixture
def fresh_operators():
    """Empty column ladder, u(p,q) operator and certificate caches for the
    test, emptied again after it: nothing the test builds, for instance under
    patched constants or a patched models._m_op, outlives it."""
    caches = (models._column_ladder, models.upq_op_model, models.calibrate_structure)
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()
