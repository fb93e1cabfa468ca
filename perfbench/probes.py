"""Fixed-input layer probes: the cost of one kernel operation on inputs that
never change, so a kernel change shows apart from any change in how often
the workloads call it.  Each probe reports the median of several repeats,
each normalised by the reference speed measured around it (refclock.py).
"""

from __future__ import annotations

from fractions import Fraction
from statistics import median
from time import perf_counter_ns

from refclock import normalise, reference_speed
from theta_forms import exterior, forms, models, theta
from theta_forms.poly import Polynomial, X, Y, monomial
from theta_forms.scalars import Scalar

REPEATS = 5


def timed(fn, number: int) -> float:
    """Median over REPEATS of the normalised seconds of `number` calls."""
    samples = []
    for _ in range(REPEATS):
        before = reference_speed(2)
        t0 = perf_counter_ns()
        for _ in range(number):
            fn()
        elapsed = (perf_counter_ns() - t0) / 1e9
        samples.append(normalise(elapsed, (before, reference_speed(2))))
    return median(samples)


def per_call_ns(fn, number: int) -> float:
    return timed(fn, number) / number * 1e9


def _poly(coeffs) -> Polynomial:
    """Sum of c * v1 * v2 over ((c, v1, v2), ...)."""
    out = Polynomial.zero()
    for c, v1, v2 in coeffs:
        out = out + Polynomial({monomial([(v1, 1), (v2, 1)]): c})
    return out


def run_probes(scale: int = 1) -> dict:
    """All probe metrics; ``scale`` divides the call counts (smoke mode)."""
    a = Scalar({0: (Fraction(3, 7), Fraction(-2, 5)), 1: (Fraction(1, 3), 0)})
    b = Scalar({-1: (Fraction(5, 2), Fraction(1, 9)), 0: (0, Fraction(4, 11))})

    p1 = _poly([(Scalar.of(i, 1), X(i, 1), Y(1, 1)) for i in (1, 2, 3)]
               + [(Scalar.of(1, 0, -1), X(1, 2), Y(2, 2))])
    p2 = _poly([(Scalar.of(Fraction(1, i), -1), X(i, 2), Y(2, 1)) for i in (1, 2, 3)]
               + [(Scalar.of(2, 0, 1), X(2, 1), X(3, 2))])

    sig = models.Signature(2, 2, 2, 0)
    i = Scalar.i_unit()
    lower = models.upq_op_model(sig, models.FOCK, "pminus", 1, 1, i, i)
    raise_ = models.upq_op_model(sig, models.FOCK, "pplus", 2, 2, i, i)
    f4 = raise_.apply(raise_.apply(Polynomial.one())) + raise_.apply(p1)

    sig3 = models.Signature(3, 2, 2, 0)
    col1 = forms.build_psi_q(sig3, column=1).form
    col2 = forms.build_psi_q(sig3, column=2).form
    gens = [exterior.xibar(2, 1), exterior.xi(1, 2), exterior.xibar(1, 1),
            exterior.xi(3, 1), exterior.xi(2, 2), exterior.xibar(3, 2)]

    e8 = theta.e8_gram()
    norm = 3 if scale == 1 else 1
    leaves = len(theta.enumerate_with_norms(e8, norm))

    return {
        "scalars.mul_ns": per_call_ns(lambda: a * b, 2000 // scale),
        "scalars.add_ns": per_call_ns(lambda: a + b, 2000 // scale),
        "poly.mul_us": per_call_ns(lambda: p1 * p2, 200 // scale) / 1e3,
        "operators.compose_us": per_call_ns(lambda: lower.compose(raise_), 50 // scale) / 1e3,
        "operators.apply_us": per_call_ns(lambda: lower.apply(f4), 50 // scale) / 1e3,
        "exterior.wedge_us": per_call_ns(lambda: col1.wedge(col2), 20 // scale) / 1e3,
        "exterior.sign_sort_ns": per_call_ns(lambda: exterior.wedge_monomial(gens), 2000 // scale),
        "theta.leaves_per_s": leaves / timed(lambda: theta.enumerate_with_norms(e8, norm), 1),
    }

