import pytest

from theta_forms import forms, models, schur


def clear_library_caches():
    """Empty every functools.cache function in models, forms and schur
    (ladders, scalar and u(p,q) operators, intertwiner images, certificates,
    form builders, the operator tables of d, the curvature and the
    K-residual, determinant minors) and return them."""
    caches = [fn for module in (models, forms, schur) for fn in vars(module).values()
              if hasattr(fn, "cache_clear")]
    for fn in caches:
        fn.cache_clear()
    return caches


@pytest.fixture
def fresh_operators():
    """Empty the library caches for the test, and the same ones again after
    it (found before the test patches anything): nothing the test builds, for
    instance under patched constants or a patched models._m_op, outlives it."""
    caches = clear_library_caches()
    yield
    for fn in caches:
        fn.cache_clear()
