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

from .forms import (build_km_explicit, build_km_nabla, build_mixed,
                    build_psi_cup, build_psi_orth, build_psi_q,
                    euler_chern_form, FactorizationError, GKCochain)
from .models import (CalibrationError, ORTHOGONAL, Signature, UNITARY,
                     calibrate_structure, fock_model)
from .serialize import (cochain_from_json, cochain_to_json, cochain_to_latex,
                        gram_from_json)
from .suites import SUITES, run_all, run_suite
from .theta import (NMAX_CEILING, BetaMatrix, WhittakerPoint, eisenstein_check,
                    rep_numbers, whittaker)

FORM_BUILDERS = {
    "psi-q": build_psi_q,
    "psi-cup": build_psi_cup,
    "psi-orth": build_psi_orth,
    "km-nabla": build_km_nabla,
    "km-explicit": build_km_explicit,
    "mixed": build_mixed,
    "chern": lambda sig: GKCochain(euler_chern_form(sig), fock_model(0), sig),
}


def _signature(args) -> Signature:
    return Signature(args.p, args.q, args.r, args.s, args.family)


def _write(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_cochain(cochain: GKCochain, args) -> int:
    """Write a cochain as args.format (json or latex) to args.out or stdout."""
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
    """Why the signature flags given to verify would be ignored, if they would."""
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
    kwargs = {"seed": args.seed}
    if args.p is not None:
        kwargs["signatures"] = [(args.p, args.q)]
        if args.r is not None:
            kwargs["rs_pairs"] = [(args.r, args.s or 0)]
    if args.suite == "all":
        reports = run_all(seed=args.seed)
    else:
        reports = [run_suite(args.suite, **kwargs)]
    payload = {"passed": all(r.passed for r in reports),
               "seed": args.seed,
               "suites": [r.to_dict() for r in reports]}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(text, args.out)
    if args.out:
        for r in reports:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.2f}s)")
    return 0 if payload["passed"] else 1


def _cmd_calibrate(args) -> int:
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
    with open(args.infile, "r", encoding="utf-8") as fh:
        cochain = cochain_from_json(fh.read())
    return _write_cochain(cochain, args)


def _add_signature_flags(sub):
    sub.add_argument("--p", type=int, default=1)
    sub.add_argument("--q", type=int, default=1)
    sub.add_argument("--r", type=int, default=1)
    sub.add_argument("--s", type=int, default=0)
    sub.add_argument("--family", choices=[UNITARY, ORTHOGONAL], default=UNITARY)


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
    v.add_argument("--suite", choices=sorted(SUITES) + ["all"], required=True)
    v.add_argument("--seed", type=int, default=0)
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
    except (ValueError, KeyError, OSError, CalibrationError, FactorizationError) as exc:
        return _error(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
