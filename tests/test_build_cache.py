"""The six form builders are functools.cache functions of their Signature:
a cached build equals the uncached one (__wrapped__) byte for byte, a repeat
call shares the object, a refused signature is refused every time, and no
suite's verdict depends on what the caches hold."""

import pytest

from theta_forms.forms import (build_km_explicit, build_km_nabla, build_mixed,
                               build_psi_cup, build_psi_orth, build_psi_q)
from theta_forms.models import ORTHOGONAL, UNITARY, Signature
from theta_forms.serialize import cochain_to_json
from theta_forms.suites import SUITES, run_all, run_suite

from conftest import clear_library_caches

U, O = UNITARY, ORTHOGONAL

# (builder, signatures, keyword arguments): both families, r = s, r > s,
# s > r and q = 0 where the builder takes them, with several signatures
# sharing (p, q), so a cache keyed on less than the whole signature shows
GRID = [
    (build_psi_q, [(2, 1, 1, 0, U), (2, 1, 2, 1, U), (2, 1, 1, 2, U), (2, 1, 2, 2, U),
                   (2, 1, 1, 0, O), (3, 2, 2, 0, O)], {"column": 1}),
    (build_psi_q, [(2, 1, 2, 1, U), (2, 1, 2, 0, O)], {"column": 2}),
    (build_psi_cup, [(2, 1, 1, 1, U), (2, 1, 2, 1, U), (2, 1, 1, 2, U), (2, 1, 1, 0, U),
                     (2, 1, 0, 1, U), (2, 0, 1, 1, U), (2, 0, 2, 0, U), (3, 2, 2, 0, U)], {}),
    (build_psi_orth, [(2, 1, 1, 0, O), (2, 1, 2, 0, O), (2, 0, 1, 0, O), (3, 2, 2, 0, O)], {}),
    (build_km_nabla, [(2, 1, 1, 1, U), (2, 1, 2, 2, U), (2, 0, 1, 1, U), (2, 1, 1, 0, O),
                      (2, 1, 2, 0, O), (2, 0, 1, 0, O), (2, 2, 1, 1, U)], {}),
    (build_km_explicit, [(2, 1, 1, 1, U), (2, 1, 2, 2, U), (2, 0, 1, 1, U), (2, 1, 1, 0, O),
                         (2, 1, 2, 0, O), (2, 0, 1, 0, O), (2, 2, 1, 1, U)], {}),
    (build_mixed, [(2, 1, 2, 1, U), (2, 1, 1, 1, U), (2, 1, 2, 0, U), (2, 1, 3, 1, U),
                   (2, 0, 2, 1, U), (2, 2, 2, 1, U)], {}),
]
GRID_IDS = [f"{b.__name__}-{len(sigs)}" + (f"-column{kw['column']}" if kw else "")
            for b, sigs, kw in GRID]

BUILDERS = (build_psi_q, build_psi_cup, build_psi_orth, build_km_nabla, build_km_explicit,
            build_mixed)


@pytest.mark.parametrize("build,sigs,kw", GRID, ids=GRID_IDS)
def test_cached_build_equals_the_uncached_one(fresh_operators, build, sigs, kw):
    # one test runs the whole row, so every entry after the first meets a
    # cache that already holds a signature with the same (p, q)
    for sig in sigs:
        cached = build(Signature(*sig), **kw)
        plain = build.__wrapped__(Signature(*sig), **kw)
        assert cached is not plain
        assert (cached.form, cached.model, cached.sig) == (plain.form, plain.model, plain.sig)
        assert cochain_to_json(cached) == cochain_to_json(plain)
    assert build.cache_info().currsize == len(sigs)


@pytest.mark.parametrize("build,sigs,kw", GRID, ids=GRID_IDS)
def test_a_repeat_call_shares_the_build(fresh_operators, build, sigs, kw):
    first = build(Signature(*sigs[0]), **kw)
    info = build.cache_info()
    again = build(Signature(*sigs[0]), **kw)   # an equal signature, not the same object
    assert again is first
    after = build.cache_info()
    assert (after.hits, after.misses, after.currsize) == (info.hits + 1, info.misses,
                                                          info.currsize)


def test_psi_q_caches_each_column_apart(fresh_operators):
    sig = Signature(2, 1, 2, 1)
    col1, col2 = build_psi_q(sig, column=1), build_psi_q(sig, column=2)
    assert col1.form == build_psi_q.__wrapped__(sig, column=1).form
    assert col2.form == build_psi_q.__wrapped__(sig, column=2).form
    assert col1.form != col2.form


REFUSED = [
    (build_psi_q, (2, 0, 1, 0, U), {}),               # q = 0
    (build_psi_q, (2, 1, 1, 0, U), {"column": 2}),    # column beyond r
    (build_psi_cup, (2, 1, 1, 0, O), {}),
    (build_psi_orth, (2, 1, 1, 0, U), {}),
    (build_km_nabla, (2, 1, 2, 1, U), {}),            # unitary r != s
    (build_km_explicit, (2, 1, 1, 2, U), {}),
    (build_mixed, (2, 1, 1, 0, O), {}),
    (build_mixed, (2, 1, 1, 2, U), {}),               # s > r
]


@pytest.mark.parametrize("build,sig,kw", REFUSED,
                         ids=[f"{b.__name__}-{''.join(map(str, s[:4]))}{s[4][0]}"
                              + ("-column2" if kw else "") for b, s, kw in REFUSED])
def test_a_refused_signature_is_refused_on_every_call(fresh_operators, build, sig, kw):
    for _ in range(3):
        with pytest.raises(ValueError):
            build(Signature(*sig), **kw)
    assert build.cache_info().currsize == 0


def test_fresh_operators_empties_the_builder_caches(fresh_operators):
    assert all(b.cache_info().currsize == 0 for b in BUILDERS)
    build_psi_cup(Signature(2, 1, 1, 0))
    assert build_psi_cup.cache_info().currsize == 1


# -- suite verdicts do not depend on cache state --------------------------------

@pytest.fixture(scope="module")
def suite_runs():
    """Each suite at seed 3 three ways: inside a full pass that starts with
    every models and forms cache empty (so it sees what the suites before it
    left), again right after that pass (every cache warm), and alone after
    the caches are emptied again."""
    clear_library_caches()
    in_pass = {rep.name: rep for rep in run_all(seed=3)}
    after_pass = {name: run_suite(name, seed=3) for name in SUITES}
    alone = {}
    for name in SUITES:
        clear_library_caches()
        alone[name] = run_suite(name, seed=3)
    clear_library_caches()
    return in_pass, after_pass, alone


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_output_does_not_depend_on_cache_state(suite_runs, name):
    in_pass, after_pass, alone = (runs[name] for runs in suite_runs)
    assert in_pass.passed and after_pass.passed and alone.passed
    assert in_pass.lines == after_pass.lines == alone.lines
