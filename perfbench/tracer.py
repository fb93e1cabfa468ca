"""Spans and counters at the library's layer boundaries, from outside `src/`.

``install()`` wraps the public functions and methods listed in BOUNDARIES.
Modules import several of them by name (``forms`` and ``suites`` import
``calibrate_structure``, ``gk_differential`` and ``rep_numbers``), so a
wrapper replaces *every* binding of the original object: module globals,
class attributes (``__rmul__`` is an alias of ``__mul__``) and values of
module-level dicts such as ``FORM_BUILDERS``.

Each boundary records calls, inclusive time of its outermost activations,
and self time (its duration minus that of wrapped calls made inside it).
While ``trace_memory`` is set (the worker clears it after the cold pass)
the theta entry points also run under tracemalloc, started at the
outermost one, which gives ``theta.traced_peak_mb``.
"""

from __future__ import annotations

import sys
import tracemalloc
from functools import wraps
from time import perf_counter_ns

# (boundary, module, attribute path).  Several entries may share a boundary.
BOUNDARIES = (
    ("scalars.mul", "theta_forms.scalars", "Scalar.__mul__"),
    ("scalars.add", "theta_forms.scalars", "Scalar.__add__"),
    ("poly.mul", "theta_forms.poly", "Polynomial.__mul__"),
    ("poly.monomial", "theta_forms.poly", "monomial"),
    ("operators.apply", "theta_forms.operators", "LinOp.apply"),
    ("operators.compose", "theta_forms.operators", "LinOp.compose"),
    ("exterior.wedge", "theta_forms.exterior", "Form.wedge"),
    ("models.calibrate", "theta_forms.models", "calibrate_structure"),
    ("models.upq_op", "theta_forms.models", "upq_op_model"),
    ("forms.build", "theta_forms.forms", "build_psi_q"),
    ("forms.build", "theta_forms.forms", "build_psi_cup"),
    ("forms.build", "theta_forms.forms", "build_psi_orth"),
    ("forms.build", "theta_forms.forms", "build_km_nabla"),
    ("forms.build", "theta_forms.forms", "build_km_explicit"),
    ("forms.build", "theta_forms.forms", "build_mixed"),
    ("forms.differential", "theta_forms.forms", "gk_differential"),
    ("forms.curvature", "theta_forms.forms", "gk_curvature"),
    ("forms.k_invariance", "theta_forms.forms", "k_invariance_residual"),
    ("schur.kv_highest_weight", "theta_forms.schur", "kv_highest_weight"),
    ("schur.is_harmonic", "theta_forms.schur", "is_harmonic"),
    ("schur.span_dim", "theta_forms.schur", "schur_span_dim"),
    ("schur.exact_rank", "theta_forms.schur", "exact_rank"),
    ("theta.rep_numbers", "theta_forms.theta", "rep_numbers"),
    ("theta.fourier", "theta_forms.theta", "fourier_assemble"),
    ("theta.enumerate", "theta_forms.theta", "enumerate_with_norms"),
    ("theta.whittaker", "theta_forms.theta", "whittaker"),
    ("theta.oracle", "theta_forms.theta", "naive_rep_numbers"),
    ("serialize.to_json", "theta_forms.serialize", "cochain_to_json"),
    ("serialize.from_json", "theta_forms.serialize", "cochain_from_json"),
    ("serialize.latex", "theta_forms.serialize", "cochain_to_latex"),
)
MEMORY_BOUNDARIES = ("theta.rep_numbers", "theta.fourier", "theta.enumerate", "theta.oracle")

# Boundaries each workload is predicted to cross; the wiring self-check
# requires a nonzero call count on each.
SYMBOLIC = ("scalars.mul", "scalars.add", "poly.mul", "poly.monomial", "operators.apply",
            "operators.compose", "exterior.wedge", "models.calibrate", "models.upq_op",
            "forms.build", "forms.differential", "forms.curvature", "forms.k_invariance")
PREDICTED = {
    "verify-all": SYMBOLIC + ("schur.kv_highest_weight", "schur.is_harmonic", "schur.span_dim",
                              "schur.exact_rank", "theta.rep_numbers", "theta.enumerate",
                              "theta.oracle"),
    "construct": SYMBOLIC + ("serialize.to_json", "serialize.from_json", "serialize.latex"),
    "theta-e8": ("theta.rep_numbers", "theta.fourier", "theta.enumerate", "theta.whittaker",
                 "theta.oracle"),
}


class Stat:
    __slots__ = ("calls", "active", "incl_ns", "self_ns", "max_terms", "max_degree", "count")

    def __init__(self):
        self.calls = self.active = self.incl_ns = self.self_ns = 0
        self.max_terms = self.max_degree = self.count = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.calibrated: set = set()
        self.calibrate_cold = self.calibrate_warm = 0
        self.peak_bytes = 0
        self.trace_memory = True
        self.bindings: dict[str, int] = {}
        self._stack: list[int] = []
        self._memory_depth = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(self, name: str, fn):
        stat = self.stat(name)
        stack = self._stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        memory = name in MEMORY_BOUNDARIES

        @wraps(fn)
        def traced(*args, **kwargs):
            if memory:
                self._enter_memory()
            stat.calls += 1
            stat.active += 1
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stat.self_ns += dt - stack.pop()
                stat.active -= 1
                if not stat.active:
                    stat.incl_ns += dt
                if stack:
                    stack[-1] += dt
                if memory:
                    self._exit_memory()
            if observe is not None:
                observe(stat, args, out)
            return out

        return traced

    # -- size counters -------------------------------------------------------

    def _observe_poly_mul(self, stat, args, out):
        if len(out.terms) > stat.max_terms:
            stat.max_terms = len(out.terms)
        if out.terms:
            stat.max_degree = max(stat.max_degree, out.degree())

    def _observe_exterior_wedge(self, stat, args, out):
        if len(out.terms) > stat.max_terms:
            stat.max_terms = len(out.terms)

    def _observe_theta_enumerate(self, stat, args, out):
        stat.count += len(out)

    def _observe_serialize_to_json(self, stat, args, out):
        stat.count += len(out.encode("utf-8"))

    def _observe_models_calibrate(self, stat, args, out):
        # Cold means the first request for this (p, q, r) in the process;
        # that is exactly when the library's calibration cache misses.
        sig = args[0]
        key = (sig.p, sig.q, sig.r)
        if key in self.calibrated:
            self.calibrate_warm += 1
        else:
            self.calibrated.add(key)
            self.calibrate_cold += 1

    # -- tracemalloc around the theta entry points ----------------------------

    def _enter_memory(self):
        if not self._memory_depth and self.trace_memory:
            tracemalloc.start()
        self._memory_depth += 1

    def _exit_memory(self):
        self._memory_depth -= 1
        if not self._memory_depth and tracemalloc.is_tracing():
            self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()


def _lookup(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def install(tracer: Tracer):
    """Replace every binding of each boundary function inside theta_forms."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "theta_forms" or n.startswith("theta_forms."))]
    for name, module, path in BOUNDARIES:
        original = _lookup(module, path)
        wrapper = tracer.wrap(name, original)
        count = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    count += 1
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for meth, fn in list(vars(value).items()):
                        if fn is original:
                            setattr(value, meth, wrapper)
                            count += 1
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            count += 1
        tracer.bindings[path] = count


def wiring_checks(tracer: Tracer, workload: str) -> list[tuple[bool, str]]:
    """(ok, what) for every boundary the workload is predicted to cross: a
    wrapper bound in the wrong namespace would read as zero work."""
    out = [(tracer.stat(name).calls > 0, f"wiring: {name} recorded calls")
           for name in PREDICTED[workload]]
    out += [(n > 0, f"wiring: {path} was bound somewhere") for path, n in tracer.bindings.items()]
    if workload == "construct":
        out.append((tracer.calibrate_warm > 0, "wiring: warm pass repeated a calibration"))
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics (without the probes) from the recorded stats."""
    s = tracer.stat
    sec = lambda name: s(name).incl_ns / 1e9          # noqa: E731
    self_sec = lambda name: s(name).self_ns / 1e9     # noqa: E731
    calib = tracer.calibrate_cold + tracer.calibrate_warm
    return {
        "scalars.mul_calls": s("scalars.mul").calls,
        "scalars.add_calls": s("scalars.add").calls,
        "poly.mul_calls": s("poly.mul").calls,
        "poly.mul_self_s": self_sec("poly.mul"),
        "poly.monomial_calls": s("poly.monomial").calls,
        "poly.terms_max": s("poly.mul").max_terms,
        "poly.degree_max": s("poly.mul").max_degree,
        "operators.apply_calls": s("operators.apply").calls,
        "operators.apply_self_s": self_sec("operators.apply"),
        "operators.compose_calls": s("operators.compose").calls,
        "operators.compose_self_s": self_sec("operators.compose"),
        "exterior.wedge_calls": s("exterior.wedge").calls,
        "exterior.wedge_self_s": self_sec("exterior.wedge"),
        "exterior.wedge_terms_max": s("exterior.wedge").max_terms,
        "models.calibrate_cold": tracer.calibrate_cold,
        "models.calibrate_warm": tracer.calibrate_warm,
        "models.calibrate_hit_ratio": tracer.calibrate_warm / calib if calib else 0.0,
        "models.calibrate_s": sec("models.calibrate"),
        "models.upq_op_calls": s("models.upq_op").calls,
        "forms.build_s": sec("forms.build"),
        "forms.differential_calls": s("forms.differential").calls,
        "forms.differential_s": sec("forms.differential"),
        "forms.curvature_s": sec("forms.curvature"),
        "forms.k_invariance_s": sec("forms.k_invariance"),
        "schur.kv_highest_weight_s": sec("schur.kv_highest_weight"),
        "schur.is_harmonic_s": sec("schur.is_harmonic"),
        "schur.span_dim_s": sec("schur.span_dim"),
        "schur.exact_rank_s": sec("schur.exact_rank"),
        "theta.vectors_enumerated": s("theta.enumerate").count,
        "theta.enumerate_s": sec("theta.enumerate"),
        "theta.traced_peak_mb": tracer.peak_bytes / 2 ** 20,
        "theta.whittaker_calls": s("theta.whittaker").calls,
        "theta.oracle_s": sec("theta.oracle"),
        "serialize.to_json_s": sec("serialize.to_json"),
        "serialize.from_json_s": sec("serialize.from_json"),
        "serialize.json_bytes": s("serialize.to_json").count,
        "serialize.latex_s": sec("serialize.latex"),
    }
