import pytest

# loaded here, so that clear_caches (which searches only loaded modules)
# reaches every cache before a test patches anything
from theta_forms import clear_caches, forms, models, schur  # noqa: F401


def clear_library_caches():
    """Empty every functools.cache function in models, forms and schur
    (theta_forms.clear_caches) and return them."""
    return clear_caches()


@pytest.fixture
def fresh_operators():
    """Empty the library caches for the test, and the same ones again after
    it (found before the test patches anything): nothing the test builds, for
    instance under patched constants or a patched models._m_op, outlives it."""
    caches = clear_caches()
    yield
    for fn in caches:
        fn.cache_clear()
