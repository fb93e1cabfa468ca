"""Command-line interface.

Subcommands:
  build      construct a named form and export it (json or latex)
  verify     run a named verification suite (or all), exit 1 on failure
  calibrate  print the u(p,q) calibration report for a signature
  theta      lattice theta table from a Gram-matrix JSON file
  export     convert a stored form between json and latex

Identical flags produce byte-identical outputs.  Exit codes: 0 success,
1 verification failure or runtime error, 2 flag errors.  Errors other than
argparse's own are one JSON line {"error": ...} on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

# The parser's choices as plain strings, so that building it imports no library
# layer: form names, suites.SUITES in order, models.UNITARY and ORTHOGONAL; and
# the suites that take a seed (suites.suite_takes_seed), so that verify
# rejects a stray --seed before it loads one.
FORM_NAMES = ("psi-q", "psi-cup", "psi-orth", "km-nabla", "km-explicit", "mixed", "chern")
SUITE_NAMES = ("oscillator-relations", "intertwiner", "harmonic", "schur-dim", "closedness",
               "cup", "km-equality", "restriction", "k-invariance", "eisenstein", "calibration")
SEEDED_SUITES = ("closedness",)
FAMILIES = ("unitary", "orthogonal")


def _builder(form: str):
    """forms.build_<form>, or for "chern" the Euler-Chern cochain in the
    scalar Fock model, looked up (and forms imported) when it is called."""
    def build(sig):
        from . import forms, models
        if form == "chern":
            return forms.GKCochain(forms.euler_chern_form(sig), models.fock_model(0), sig)
        return getattr(forms, "build_" + form.replace("-", "_"))(sig)
    return build


FORM_BUILDERS = {form: _builder(form) for form in FORM_NAMES}


def _signature(args) -> Signature:
    from .models import Signature
    return Signature(args.p, args.q, args.r, args.s, args.family)


def _write(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_cochain(cochain: GKCochain, args) -> int:
    """Write a cochain as args.format (json or latex) to args.out or stdout."""
    from .serialize import cochain_to_json, cochain_to_latex
    if args.format == "json":
        _write(cochain_to_json(cochain), args.out)
    else:
        _write(cochain_to_latex(cochain) + "\n", args.out)
    return 0


def _cmd_build(args) -> int:
    return _write_cochain(FORM_BUILDERS[args.form](_signature(args)), args)


def _error(message: str, code: int) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _verify_flag_error(args) -> str | None:
    """Why the seed or signature flags given to verify would be ignored, if
    they would."""
    if args.seed is not None and args.suite not in ("all", *SEEDED_SUITES):
        return f"--seed does not apply to --suite {args.suite}, which draws no random cochains"
    given = [f"--{f}" for f in "pqrs" if getattr(args, f) is not None]
    if not given:
        return None
    if args.suite != "closedness":
        return f"{'/'.join(given)} only apply to --suite closedness"
    if args.p is None or args.q is None:
        return "--suite closedness takes signature flags only with both --p and --q"
    if args.s is not None and args.r is None:
        return "--s needs --r"
    return None


def _cmd_verify(args) -> int:
    problem = _verify_flag_error(args)
    if problem:
        return _error(problem, 2)
    from .suites import run_all, run_suite
    seed = 0 if args.seed is None else args.seed
    kwargs = {"seed": seed}
    if args.p is not None:
        kwargs["signatures"] = [(args.p, args.q)]
        if args.r is not None:
            kwargs["rs_pairs"] = [(args.r, args.s or 0)]
    if args.suite == "all":
        reports = run_all(seed=seed)
    else:
        reports = [run_suite(args.suite, **kwargs)]
    payload = {"passed": all(r.passed for r in reports),
               "seed": seed,
               "suites": [r.to_dict() for r in reports]}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(text, args.out)
    if args.out:
        for r in reports:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.2f}s)")
    return 0 if payload["passed"] else 1


def _cmd_calibrate(args) -> int:
    from .models import UNITARY, calibrate_structure, fock_model
    if args.family != UNITARY:
        return _error("calibrate certifies the unitary u(p,q) operators only; "
                      "there is no o(p,q) certificate", 2)
    # certify the model psi-cup is built and differentiated in at this
    # signature; the header names s and that model only when s > 0
    sig = _signature(args)
    for line in calibrate_structure(sig, fock_model(min(sig.r, sig.s))).lines():
        print(line)
    return 0


def _cmd_theta(args) -> int:
    from .theta import (NMAX_CEILING, BetaMatrix, WhittakerPoint, eisenstein_check,
                        gram_from_json, rep_numbers, whittaker)
    if args.check is not None and args.convention is not None:
        return _error("--convention applies to the theta table, not to --check", 2)
    if args.check is None and args.nmax > NMAX_CEILING:
        # eisenstein_check bounds the check path with its own message
        raise ValueError(f"desk-scale table: n_max <= {NMAX_CEILING}")
    with open(args.gram, "r", encoding="utf-8") as fh:
        L = gram_from_json(fh.read())
    if args.check == "eisenstein":
        report = eisenstein_check(args.nmax, L)
        _write("".join(line + "\n" for line in report.lines()), args.out)
        return 0 if report.passed else 1
    convention = args.convention or "literal"
    counts = rep_numbers(L, args.nmax)
    g = WhittakerPoint.standard(1)
    rows = []
    for n in range(args.nmax + 1):
        # Unit weights: the shell sum is the count itself.
        w = counts[n] * whittaker(BetaMatrix.scalar(n), g, L.dim, convention)
        rows.append({"n": n, "count": counts[n],
                     "coefficient": [w.real, w.imag]})
    payload = {"dim": L.dim, "nmax": args.nmax, "convention": convention,
               "rows": rows}
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_export(args) -> int:
    from .serialize import cochain_from_json
    with open(args.infile, "r", encoding="utf-8") as fh:
        cochain = cochain_from_json(fh.read())
    return _write_cochain(cochain, args)


def _add_signature_flags(sub):
    sub.add_argument("--p", type=int, default=1)
    sub.add_argument("--q", type=int, default=1)
    sub.add_argument("--r", type=int, default=1)
    sub.add_argument("--s", type=int, default=0)
    sub.add_argument("--family", choices=FAMILIES, default=FAMILIES[0])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="theta-forms", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sp = ap.add_subparsers(dest="command", required=True)

    b = sp.add_parser("build", help="construct a named special form")
    _add_signature_flags(b)
    b.add_argument("--form", choices=sorted(FORM_BUILDERS), required=True)
    b.add_argument("--format", choices=["json", "latex"], default="json")
    b.add_argument("--out", default=None)
    b.set_defaults(fn=_cmd_build)

    v = sp.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=sorted(SUITE_NAMES) + ["all"], required=True)
    # None, not 0: a --seed given to a suite that draws nothing is rejected
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--p", type=int, default=None)
    v.add_argument("--q", type=int, default=None)
    v.add_argument("--r", type=int, default=None)
    v.add_argument("--s", type=int, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_verify)

    c = sp.add_parser("calibrate", help="print the u(p,q) calibration report")
    _add_signature_flags(c)
    c.set_defaults(fn=_cmd_calibrate)

    t = sp.add_parser("theta", help="theta series table from a Gram JSON file")
    t.add_argument("--gram", required=True)
    t.add_argument("--nmax", type=int, default=6)
    t.add_argument("--check", choices=["eisenstein"], default=None)
    # None, not "literal": --check rejects the flag only if it was given
    t.add_argument("--convention", choices=["literal", "classical"], default=None)
    t.add_argument("--out", default=None)
    t.set_defaults(fn=_cmd_theta)

    e = sp.add_parser("export", help="convert a stored form to json or latex")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--format", choices=["json", "latex"], default="latex")
    e.add_argument("--out", default=None)
    e.set_defaults(fn=_cmd_export)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MemoryError:
        # the frames that held the work are gone, so the line can be written
        return _error("out of memory", 1)
    # ValueError stands in for a library error whose module was never loaded
    except (ValueError, KeyError, OSError,
            getattr(sys.modules.get(f"{__package__}.models"), "CalibrationError", ValueError),
            getattr(sys.modules.get(f"{__package__}.forms"), "FactorizationError", ValueError)) as exc:
        return _error(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
