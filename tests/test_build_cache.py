"""The six form builders are functools.cache functions of their Signature:
a cached build equals the uncached one (__wrapped__) byte for byte, a repeat
call shares the object, a refused signature is refused every time, and no
suite's verdict depends on what the caches hold.  The same holds for the
operator tables of d, the curvature and the K-residual (with the coadjoint
rules they memoise), the Heisenberg and ladder operators, the intertwiner
image of each Fock monomial, the determinant minors and the two factors of
the highest-weight vectors."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from theta_forms import clear_caches, forms, models, schur
from theta_forms.exterior import Form, xi, xibar
from theta_forms.forms import (GKCochain, build_km_explicit, build_km_nabla, build_mixed,
                               build_psi_cup, build_psi_orth, build_psi_q)
from theta_forms.models import (ORTHOGONAL, UNITARY, Signature,
                                fock_model, heisenberg_op, intertwine, ladder_op,
                                mixed_model)
from theta_forms.poly import Polynomial, X, Y, Zvar, monomial
from theta_forms.schur import (EMPTY_PARTITION, Partition, kv_highest_weight, minor_x,
                               minor_y_tilde)
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


# -- the operator tables of d, the curvature and the K-residual ------------------

# (signature, model): both families, r = s, r > s, s > r, q = 0 and r = 0 (empty
# tables), Fock and Schrodinger columns, orthogonal fock:0 and mixed:r
TABLE_GRID = [
    ((2, 1, 1, 1, U), fock_model(1)), ((2, 1, 1, 1, U), mixed_model(1)),
    ((2, 2, 1, 1, U), fock_model(1)), ((2, 2, 1, 1, U), mixed_model(1)),
    ((2, 1, 2, 1, U), fock_model(1)), ((2, 1, 2, 1, U), mixed_model(1)),
    ((2, 1, 1, 2, U), fock_model(1)), ((3, 2, 2, 0, U), fock_model(0)),
    ((2, 0, 1, 1, U), fock_model(1)), ((2, 1, 0, 0, U), fock_model(0)),
    ((3, 2, 1, 0, O), fock_model(0)), ((3, 2, 1, 0, O), mixed_model(1)),
    ((2, 1, 2, 0, O), mixed_model(2)), ((2, 0, 1, 0, O), fock_model(0)),
    ((2, 1, 0, 0, O), fock_model(0)),
]
TABLE_IDS = [f"{''.join(map(str, s[:4]))}{s[4][0]}-{m.token()}" for s, m in TABLE_GRID]


def _grouped_tables(sig):
    """The (op, leads) tables of a signature; the curvature's is unitary."""
    return [forms._pair_ops] + ([forms._curvature_ops] if sig.family == UNITARY else [])


def _generators(sig):
    return [g(i, j) for g in (xi, xibar) for i in range(1, sig.p + 1)
            for j in range(1, sig.q + 1)]


def _comparable(table, entries, sig):
    """A K-table's coadjoint rules are closures: compare them by their action
    on every generator of the signature."""
    if table is not forms._k_ops:
        return entries
    return [(op, [rule(g) for g in _generators(sig)]) for op, rule in entries]


@pytest.mark.parametrize("sig,model", TABLE_GRID, ids=TABLE_IDS)
def test_each_table_equals_its_uncached_build(fresh_operators, sig, model):
    sig = Signature(*sig)
    for table in _grouped_tables(sig) + [forms._k_ops]:
        cached, plain = table(sig, model), table.__wrapped__(sig, model)
        assert cached is not plain or cached == ()
        assert _comparable(table, cached, sig) == _comparable(table, plain, sig)
        assert table(replace(sig), model) is cached   # an equal signature, not the same object
    if sig.q == 0 or sig.r == 0:
        assert forms._pair_ops(sig, model) == ()
        if sig.family == UNITARY:
            assert forms._curvature_ops(sig, model) == ()
    else:
        assert forms._pair_ops(sig, model)


@pytest.mark.parametrize("sig,model", TABLE_GRID, ids=TABLE_IDS)
def test_each_table_is_grouped_by_operator(fresh_operators, sig, model):
    # one group per distinct operator, and d has one lead per operator
    sig = Signature(*sig)
    for table in _grouped_tables(sig):
        ops = [op for op, _ in table(sig, model)]
        assert all(a != b for a, b in product(ops, repeat=2) if a is not b)
        assert all(leads for _, leads in table(sig, model))
    assert all(len(leads) == 1 for _, leads in forms._pair_ops(sig, model))


# (signature, model) pairs for the coadjoint memo: both families, and the
# r = 0 signatures at which the k-invariance suite checks the Euler/Chern forms
K_GRID = [((2, 1, 1, 1, U), fock_model(1)), ((2, 2, 1, 1, U), mixed_model(1)),
          ((3, 2, 2, 0, U), fock_model(0)), ((2, 1, 0, 0, U), fock_model(0)),
          ((2, 2, 0, 0, U), fock_model(0)), ((2, 1, 1, 0, O), fock_model(0)),
          ((3, 2, 2, 0, O), mixed_model(2)), ((2, 2, 0, 0, O), fock_model(0))]


@pytest.mark.parametrize("sig,model", K_GRID, ids=[
    f"{''.join(map(str, s[:4]))}{s[4][0]}-{m.token()}" for s, m in K_GRID])
def test_each_coadjoint_rule_is_memoised_in_its_table(fresh_operators, sig, model):
    sig = Signature(*sig)
    table, basis, gens = forms._k_ops(sig, model), forms._k_basis(sig), _generators(sig)
    assert len(table) == len(basis) > 0
    for (_, rule), kappa in zip(table, basis):
        plain = forms._coadjoint_rule(sig, kappa)
        for g in gens:
            image = rule(g)
            assert type(image) is tuple and image == plain(g), (kappa, g)
            assert rule(g) is image
        assert rule.cache_info().currsize == len(gens)
    forms._k_ops.cache_clear()
    assert all(rule.cache_info().currsize == 0 for _, rule in forms._k_ops(sig, model))


def _sign_flipped(c: GKCochain) -> GKCochain:
    """suite_k_invariance's negative control: c with its first term negated."""
    w, poly = next(iter(c.form.terms.items()))
    return GKCochain(Form({**c.form.terms, w: -poly}), c.model, c.sig)


def _first_failing(c: GKCochain) -> int:
    """The _k_basis index of the first element that does not annihilate c,
    by the plain coadjoint rules, so no memo of the K-residual's table is read."""
    return next(k for k, kappa in enumerate(forms._k_basis(c.sig))
                if not (c.form.map_coefficients(forms._k_module_op(c.sig, c.model, kappa).apply)
                        + c.form.gen_derivation(forms._coadjoint_rule(c.sig, kappa))).is_zero())


def test_the_k_negative_control_fails_with_the_rules_warm(fresh_operators):
    c = build_psi_cup(Signature(2, 1, 1, 0))
    assert forms.k_invariance_residual(c).is_zero()
    bad = _sign_flipped(c)
    for _ in range(2):
        assert not forms.k_invariance_residual(bad).is_zero()
    # the control's sweep reaches its first failing element and no further
    reached = _first_failing(bad) + 1
    assert [bool(rule.cache_info().hits) for _, rule in forms._k_ops(c.sig, c.model)] == [
        k < reached for k in range(len(forms._k_basis(c.sig)))]


def test_the_k_residual_stops_at_its_first_failing_element(fresh_operators):
    bad = _sign_flipped(build_psi_cup(Signature(2, 1, 1, 0)))
    res = forms.k_invariance_residual(bad)
    table = forms._k_ops(bad.sig, bad.model)
    called = [rule.cache_info().misses > 0 for _, rule in table]
    first = _first_failing(bad)
    assert 0 < first < len(table) - 1   # elements pass before it and remain after it
    assert called == [k <= first for k in range(len(table))]
    op, rule = table[first]
    assert res == bad.form.map_coefficients(op.apply) + bad.form.gen_derivation(rule)


# -- the scalar operators, intertwiner images, minors and highest weights --------

SCALAR_GRID = [(which, gen, j, dim) for dim in (1, 2, 3) for j in range(1, dim + 1)
               for which in ("fock", "schrodinger") for gen in ("e", "f", "wp", "wpp")]
LADDER_GRID = [(kind, j, dim) for dim in (1, 2, 3) for j in range(1, dim + 1)
               for kind in ("Aplus", "Aminus", "H")]
FOCK_MONOMIALS = [(monomial((Zvar(j), e) for j, e in enumerate(exps, 1) if e), dim)
                  for dim in (1, 2, 3) for exps in product(range(3), repeat=dim)]


def test_scalar_operators_equal_their_uncached_builds(fresh_operators):
    for cached_fn, grid in ((heisenberg_op, SCALAR_GRID), (ladder_op, LADDER_GRID),
                            (models._fock_image, FOCK_MONOMIALS)):
        for args in grid:
            cached = cached_fn(*args)
            assert cached == cached_fn.__wrapped__(*args), args
            assert cached_fn(*args) is cached
        assert cached_fn.cache_info().currsize == len(grid)


MINOR_GRID = [(rows, Signature(3, 2, 3)) for a in (1, 2, 3)
              for rows in product(range(1, 4), repeat=a)] + [
              ([1], Signature(1, 1, 1)), ([1, 2], Signature(2, 2, 2)),
              ([2, 1], Signature(2, 2, 2))]


def test_minors_equal_their_uncached_builds(fresh_operators):
    for rows, sig in MINOR_GRID:
        x = minor_x(list(rows), sig)
        assert x == schur._minor.__wrapped__(X, tuple(rows), tuple(range(1, len(rows) + 1)))
        assert minor_x(list(rows), sig) is x
        if max(rows) <= sig.q:
            y = minor_y_tilde(list(rows), sig)
            assert y == schur._minor.__wrapped__(
                Y, tuple(sig.q - i + 1 for i in sorted(rows, reverse=True)),
                tuple(range(sig.r - len(rows) + 1, sig.r + 1)))
            assert minor_y_tilde(list(rows), sig) is y
    # minor_x([1, 2]) at any signature that admits it is one entry
    assert minor_x([1, 2], Signature(2, 2, 2)) is minor_x([1, 2], Signature(3, 2, 3))


REFUSED_REQUESTS = [
    (heisenberg_op, ("fock", "e", 3, 2), IndexError),         # j beyond dim
    (heisenberg_op, ("fock", "e", 0, 2), IndexError),
    (heisenberg_op, ("schrodinger", "g", 1, 1), ValueError),  # unknown generator
    (heisenberg_op, (fock_model(1), "e", 1, 1), ValueError),  # not a scalar model
    (ladder_op, ("Aplus", 2, 1), IndexError),
    (ladder_op, ("B", 1, 1), ValueError),
    (intertwine, (Polynomial.variable(X(1, 1)), 2), ValueError),   # not a Fock variable
    (intertwine, (Polynomial.variable(Zvar(3)), 2), ValueError),   # beyond dim
    (minor_x, ([1, 3], Signature(2, 1, 2)), ValueError),           # row beyond p
    (minor_x, ([1, 2], Signature(2, 1, 1)), ValueError),           # more rows than r
    (minor_y_tilde, ([2], Signature(2, 1, 1)), ValueError),        # row beyond q
    (minor_y_tilde, ([1, 2], Signature(2, 2, 1)), ValueError),     # more rows than r
    (minor_x, ([0], Signature(2, 1, 1)), ValueError),              # row below 1
    (minor_y_tilde, ([0], Signature(2, 1, 1)), ValueError),
    (kv_highest_weight, (Partition((1, 1, 1)), EMPTY_PARTITION, Signature(2, 1, 3)),
     ValueError),                                                  # l(lambda) > p
    (kv_highest_weight, (EMPTY_PARTITION, Partition((1, 1)), Signature(2, 1, 2)),
     ValueError),                                                  # l(mu) > q
    (kv_highest_weight, (Partition((1,)), Partition((1,)), Signature(2, 1, 1)),
     ValueError),                                                  # l(lambda) + l(mu) > r
]


@pytest.mark.parametrize("fn,args,error", REFUSED_REQUESTS,
                         ids=[f"{fn.__name__}-{k}" for k, (fn, _, _) in enumerate(REFUSED_REQUESTS)])
def test_an_invalid_request_is_refused_on_every_call(fresh_operators, fn, args, error):
    # the valid neighbours are cached first (j = 1, z_3 at dimension 3, the
    # same rows or partitions at a signature that admits them), so a cache
    # keyed on less than the request, or read before the check, would answer
    heisenberg_op("fock", "e", 1, 2)
    ladder_op("Aplus", 1, 1)
    intertwine(Polynomial.variable(Zvar(3)), 3)
    minor_x([1, 2], Signature(3, 2, 3))
    minor_y_tilde([1, 2], Signature(3, 2, 3))
    minor_y_tilde([2], Signature(2, 2, 1))
    kv_highest_weight(Partition((1, 1, 1)), EMPTY_PARTITION, Signature(3, 1, 3))
    kv_highest_weight(EMPTY_PARTITION, Partition((1, 1)), Signature(2, 2, 2))
    kv_highest_weight(Partition((1,)), Partition((1,)), Signature(2, 1, 2))
    caches = (heisenberg_op, ladder_op, models._fock_image, schur._minor, schur._x_factor,
              schur._y_factor)
    sizes = [c.cache_info().currsize for c in caches]
    for _ in range(3):
        with pytest.raises(error):
            fn(*args)
    assert [c.cache_info().currsize for c in caches] == sizes


# a float or bool index equal to an int one: each once spelled a label (X:1:2.0,
# Z:True:1) and cached the result under a key the equal int request then hit
NON_INT_REQUESTS = [
    (build_psi_q, (Signature(2, 1, 2, 0), 2.0)),
    (models.upq_op_model, (Signature(2, 1, 1), fock_model(0), "pminus", 1.0, 1)),
    (ladder_op, ("Aplus", 1.0, 2)),
    (heisenberg_op, ("fock", "e", True, 2)),
]


@pytest.mark.parametrize("fn,args", NON_INT_REQUESTS,
                         ids=[fn.__name__ for fn, _ in NON_INT_REQUESTS])
def test_a_non_int_index_is_refused_and_cached_nowhere(fresh_operators, fn, args):
    caches = clear_caches()
    with pytest.raises(TypeError, match="label indices must be ints"):
        fn(*args)
    assert [c.cache_info().currsize for c in caches] == [0] * len(caches)


# a float or bool dimension or index beside int ones: a dimension was only
# range-checked, so heisenberg_op("fock", "e", 1, 2.5) returned an operator and
# cached it, and an index equal to a cached int one hit that entry
NON_INT_DIMENSIONS = [
    (heisenberg_op, ("fock", "e", 1, 2.5)),
    (heisenberg_op, ("schrodinger", "f", 1, True)),
    (heisenberg_op, ("fock", "wp", True, 2)),
    (ladder_op, ("H", 1, True)),
    (ladder_op, ("Aminus", 1, 2.0)),
    (ladder_op, ("Aplus", 1.0, 2)),
    (intertwine, (Polynomial.variable(Zvar(1)), 1.5)),
    (intertwine, (Polynomial.variable(Zvar(1)), True)),
]


def _as_ints(args):
    return tuple(int(a) if type(a) in (bool, float) else a for a in args)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "after-the-int-request"])
@pytest.mark.parametrize("fn,args", NON_INT_DIMENSIONS,
                         ids=[f"{fn.__name__}-{i}" for i, (fn, _) in enumerate(NON_INT_DIMENSIONS)])
def test_a_non_int_dimension_is_refused_whatever_the_caches_hold(fresh_operators, fn, args,
                                                                  warm):
    caches = clear_caches()
    if warm:
        fn(*_as_ints(args))
    sizes = [c.cache_info().currsize for c in caches]
    with pytest.raises(TypeError, match="must be (an int|ints)"):
        fn(*args)
    assert [c.cache_info().currsize for c in caches] == sizes


def test_fresh_operators_empties_every_new_cache(fresh_operators):
    new = (forms._pair_ops, forms._curvature_ops, forms._k_ops, heisenberg_op, ladder_op,
           models._fock_image, schur._minor, schur._x_factor, schur._y_factor)
    assert all(c.cache_info().currsize == 0 for c in new)
    sig = Signature(2, 1, 1, 1)
    forms.gk_curvature(GKCochain(Form.zero(), fock_model(1), sig))
    forms.k_invariance_residual(build_psi_cup(sig))
    forms.gk_differential(build_psi_cup(sig))
    heisenberg_op("fock", "e", 1, 1)
    ladder_op("H", 1, 1)
    minor_x([1], sig)
    kv_highest_weight(Partition((1,)), EMPTY_PARTITION, sig)   # the same X minor
    intertwine(Polynomial.variable(Zvar(1)), 1)
    assert all(c.cache_info().currsize == 1 for c in new)


# -- theta_forms.clear_caches ------------------------------------------------------

def test_clear_caches_frees_a_dropped_build():
    """The builder caches hold a build after its caller drops it, until
    clear_caches() empties them."""
    clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        # builds hold one object per coefficient value and monomial, so
        # this one, of 4,096 wedges, holds about 1.5 MiB
        build_psi_cup(Signature(4, 3, 1, 1))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        clear_caches()
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held >= 1 << 20 and left < 1 << 18, (held, left)


def test_clear_caches_imports_nothing():
    """In a fresh process clear_caches() loads no module: with only the
    package loaded it clears nothing, and with models loaded models' caches."""
    script = ("import json, sys, theta_forms\n"
              "out = []\n"
              "for name in ('theta_forms', 'theta_forms.models'):\n"
              "    __import__(name)\n"
              "    before = set(sys.modules)\n"
              "    out.append([len(theta_forms.clear_caches()), sorted(set(sys.modules) - before)])\n"
              "print(json.dumps(out))")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    n_models = sum(hasattr(fn, "cache_clear") for fn in vars(models).values())
    assert json.loads(proc.stdout) == [[0, []], [n_models, []]]


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
