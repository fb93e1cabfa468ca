import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_forms import cli, forms, models, suites
from theta_forms.cli import main
from theta_forms.forms import (FactorizationError, build_km_explicit, build_km_nabla,
                               build_mixed, build_psi_cup, build_psi_orth, build_psi_q)
from theta_forms.models import ORTHOGONAL, UNITARY, CalibrationError, Signature
from theta_forms.serialize import cochain_from_json, cochain_to_json, cochain_to_latex
from theta_forms.suites import run_suite
from theta_forms.theta import GramMatrix, e8_gram, gram_to_json

from test_serialize import _slots

ROOT = Path(__file__).resolve().parents[1]


def test_build_writes_parseable_form(tmp_path):
    out = tmp_path / "f.json"
    rc = main(["build", "--form", "psi-cup", "--p", "2", "--q", "1",
               "--r", "2", "--s", "0", "--out", str(out)])
    assert rc == 0
    c = cochain_from_json(out.read_text())
    assert c.sig.p == 2 and c.sig.r == 2
    assert not c.form.is_zero()


def test_build_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["build", "--form", "km-nabla", "--p", "1", "--q", "1",
            "--r", "1", "--s", "1"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_suite_exit_zero(tmp_path, capsys):
    rc = main(["verify", "--suite", "closedness", "--p", "2", "--q", "1", "--r", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["suites"][0]["suite"] == "closedness"


def test_verify_closedness_at_the_zero_signature(capsys):
    """At p = q = 0 there are no variables, so the seeded cochains of the
    d(d(c)) check carry the constant monomial."""
    assert main(["verify", "--suite", "closedness", "--p", "0", "--q", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert run_suite("closedness", signatures=[(0, 0)]).passed


def test_verify_writes_report(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "restriction", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True


def test_theta_eisenstein(tmp_path, capsys):
    gram = tmp_path / "e8.json"
    gram.write_text(gram_to_json(e8_gram()))
    rc = main(["theta", "--gram", str(gram), "--nmax", "3", "--check", "eisenstein"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "240" in out and "6720" in out


def test_theta_eisenstein_rejects_nmax_zero(tmp_path, capsys):
    gram = tmp_path / "e8.json"
    gram.write_text(gram_to_json(e8_gram()))
    rc = main(["theta", "--gram", str(gram), "--nmax", "0", "--check", "eisenstein"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error" in json.loads(captured.err)


def test_theta_table_rejects_nmax_above_ceiling(tmp_path, capsys):
    # The gram file does not exist: the flag is rejected before it is read,
    # so before any enumeration.
    rc = main(["theta", "--gram", str(tmp_path / "missing.json"), "--nmax", "21"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": "desk-scale table: n_max <= 20"}


def test_theta_eisenstein_rejects_nmax_above_ceiling(tmp_path, capsys):
    gram = tmp_path / "e8.json"
    gram.write_text(gram_to_json(e8_gram()))
    rc = main(["theta", "--gram", str(gram), "--nmax", "21", "--check", "eisenstein"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": "desk-scale check: 1 <= n_max <= 20"}


def test_theta_table(tmp_path):
    gram = tmp_path / "a1.json"
    gram.write_text(json.dumps({"dim": 1, "gram": [["2"]]}))
    out = tmp_path / "table.json"
    rc = main(["theta", "--gram", str(gram), "--nmax", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["rows"][1]["count"] == 2


def test_theta_table_of_the_zero_lattice(tmp_path, capsys):
    gram = tmp_path / "zero.json"
    gram.write_text(json.dumps({"dim": 0, "gram": []}))
    assert main(["theta", "--gram", str(gram), "--nmax", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 0
    assert [row["count"] for row in payload["rows"]] == [1, 0, 0]


@pytest.mark.parametrize("convention", [[], ["--convention", "literal"],
                                        ["--convention", "classical"]])
def test_theta_table_names_its_convention(tmp_path, capsys, convention):
    gram = tmp_path / "a1.json"
    gram.write_text(json.dumps({"dim": 1, "gram": [["2"]]}))
    assert main(["theta", "--gram", str(gram), "--nmax", "2"] + convention) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["convention"] == (convention[1] if convention else "literal")


def test_theta_check_writes_its_report_to_out(tmp_path, capsys):
    gram = tmp_path / "e8.json"
    gram.write_text(gram_to_json(e8_gram()))
    argv = ["theta", "--gram", str(gram), "--nmax", "3", "--check", "eisenstein"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed and "6720" in printed


@pytest.mark.parametrize("convention", ["literal", "classical"])
def test_theta_check_rejects_convention(tmp_path, capsys, convention):
    """The check compares counts and never reads a Whittaker convention, so
    the flag is refused rather than ignored."""
    gram = tmp_path / "e8.json"
    gram.write_text(gram_to_json(e8_gram()))
    out = tmp_path / "report.txt"
    rc = main(["theta", "--gram", str(gram), "--nmax", "3", "--check", "eisenstein",
               "--convention", convention, "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1 and "error" in json.loads(captured.err)


def test_export_latex(tmp_path, capsys):
    form = tmp_path / "f.json"
    assert main(["build", "--form", "psi-q", "--p", "1", "--q", "1", "--r", "1",
                 "--out", str(form)]) == 0
    rc = main(["export", "--in", str(form), "--format", "latex"])
    assert rc == 0
    assert "\\overline{\\xi}_{1,1}" in capsys.readouterr().out


def _psi_q_dict():
    return json.loads(cochain_to_json(build_psi_q(Signature(1, 1, 1, 0))))


@pytest.mark.parametrize("data", [
    {**_psi_q_dict(), "model": 5},
    {**_psi_q_dict(), "signature": 5},
    {**_psi_q_dict(), "terms": 5},
    [_psi_q_dict()],
    {**_psi_q_dict(), "model": "fock:-3"},
    {**_psi_q_dict(), "signature": {**_psi_q_dict()["signature"], "p": 1.5}},
    {**_psi_q_dict(), "terms": [{"wedge": ["xibar:1:1"],
                                 "poly": [{"coeff": {"re": 0.1, "im": "0", "piExp": 0},
                                           "mono": [["X:1:1", 1]]}]}]},
    {**_psi_q_dict(), "terms": [{"wedge": ["xibar:1:1"],
                                 "poly": [{"coeff": {"re": "1/0", "im": "0", "piExp": 0},
                                           "mono": [["X:1:1", 1]]}]}]},
], ids=["model-int", "signature-int", "terms-int", "top-level-list", "negative-split",
        "fractional-entry", "float-coefficient", "zero-denominator"])
def test_export_rejects_malformed_cochain(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["export", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error" in json.loads(captured.err)


@pytest.mark.parametrize("argv", [["export", "--in"], ["theta", "--gram"]],
                         ids=["export", "theta"])
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, argv):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200000 + "]" * 200000)
    assert main(argv + [str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error" in json.loads(captured.err)


def test_export_of_a_long_wedge_finishes(tmp_path):
    # 16,000 wedge tokens with repeats: the form is zero, and the import
    # sorts the wedge once instead of by insertion (25 s before)
    doc = tmp_path / "long.json"
    doc.write_text(json.dumps({**_psi_q_dict(), "terms": [
        {**_psi_q_dict()["terms"][0], "wedge": ["xibar:1:1", "xi:1:1"] * 8000}]}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "theta_forms.cli", "export", "--in", str(doc)],
                          env=env, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def _capped_address_space():
    # runs in the child before exec: 600 MB of address space, so an import
    # that allocates in proportion to a huge signature entry dies of
    # MemoryError instead of taking the machine's memory
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (600 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="preexec_fn needs a POSIX child")
@pytest.mark.parametrize("field", ["r", "s"])
@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_export_with_a_huge_column_count_is_quick(tmp_path, field, fmt):
    """r or s = 2^40: import looks up each variable's column kind, not a
    list of max(r, s) kinds (a 20-line MemoryError traceback under a 600 MB
    address-space cap before).  The outcome may be the form or one JSON
    error line with exit 1, never a traceback."""
    built = build_mixed(Signature(2, 2, 1, 1))
    data = json.loads(cochain_to_json(built))
    data["signature"][field] = 1 << 40
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps(data))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "theta_forms.cli", "export", "--in", str(doc),
                           "--format", fmt], env=env, capture_output=True, text=True,
                          timeout=30, preexec_fn=_capped_address_space)
    if proc.returncode == 1:
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert "error" in json.loads(proc.stderr)
        return
    assert proc.returncode == 0, proc.stderr
    # the signature only widens: the form and its text are the built ones
    if fmt == "json":
        assert proc.stdout == json.dumps(data, indent=2, sort_keys=True) + "\n"
    else:
        assert proc.stdout == cochain_to_latex(built) + "\n"


def test_calibrate_prints_report(capsys):
    rc = main(["calibrate", "--p", "1", "--q", "1", "--r", "1"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "calibration p=1 q=1 r=1: c_plus=Scalar((0+1i)) c_minus=Scalar((0+1i))\n"
        "  verified all 16 elementary brackets of gl(2) close exactly\n")


def test_calibrate_certifies_the_model_psi_cup_is_built_in(capsys, monkeypatch):
    """--s is not ignored: at s > 0 the certificate covers the columns
    psi-cup is built and differentiated over, and the header says so."""
    assert main(["build", "--form", "psi-cup", "--p", "1", "--q", "1", "--r", "1", "--s", "5"]) == 0
    built = json.loads(capsys.readouterr().out)["model"]
    certified = []
    real = models.calibrate_structure
    monkeypatch.setattr(models, "calibrate_structure",
                        lambda sig, model: certified.append((sig, model.token())) or real(sig, model))
    assert main(["calibrate", "--p", "1", "--q", "1", "--r", "1", "--s", "5"]) == 0
    assert certified == [(Signature(1, 1, 1, 5), built)] and built == "fock:1"
    assert capsys.readouterr().out == (
        "calibration p=1 q=1 r=1 s=5 model fock:1: c_plus=Scalar((0+1i)) c_minus=Scalar((0+1i))\n"
        "  verified all 16 elementary brackets of gl(2) close exactly\n")


def test_calibrate_rejects_the_orthogonal_family(capsys):
    """There is no o(p,q) certificate: the family flag is refused, not
    answered with the unitary gl(p+q) report."""
    rc = main(["calibrate", "--family", "orthogonal", "--p", "2", "--q", "1", "--r", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error" in json.loads(captured.err)


@pytest.mark.parametrize("data", [
    {"dim": 1, "gram": [["1/0"]]},
    {"dim": 1, "gram": 5},
    [{"dim": 1, "gram": [["2"]]}],
    {"dim": 1.9, "gram": [["2"]]},
    {"dim": True, "gram": [["2"]]},
    {"dim": "1", "gram": [["2"]]},
    {"dim": 2, "gram": ["21", "12"]},
    {"dim": 1, "gram": "2"},
    {"dim": 1, "gram": [[2.0]]},
    {"dim": 1, "gram": [[True]]},
    {"dim": 1, "gram": [["1e400"]]},
    {"dim": 1, "gram": [["0.5"]]},
    {"dim": 1, "gram": [[" 1 "]]},
    {"dim": 1, "gram": [["1_0"]]},
], ids=["zero-denominator", "gram-int", "top-level-list", "dim-float", "dim-bool",
        "dim-string", "string-rows", "string-gram", "float-entry", "bool-entry",
        "exponent-entry", "decimal-entry", "spaced-entry", "underscore-entry"])
def test_theta_rejects_malformed_gram(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["theta", "--gram", str(bad), "--nmax", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error" in json.loads(captured.err)


def test_flag_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["build", "--form", "not-a-form"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2


def test_runtime_error_exit_one(tmp_path):
    rc = main(["theta", "--gram", str(tmp_path / "missing.json"), "--nmax", "2"])
    assert rc == 1


@pytest.mark.parametrize("error", [CalibrationError, FactorizationError])
def test_library_error_exit_one(monkeypatch, capsys, error):
    def broken(sig):
        raise error("no scaling closes the brackets")
    monkeypatch.setitem(cli.FORM_BUILDERS, "psi-cup", broken)
    assert main(["build", "--form", "psi-cup"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "no scaling closes the brackets"}


def test_memory_exhaustion_is_one_error_line(monkeypatch, capsys):
    """A build too large for the machine's memory ends in one JSON error
    line and exit 1, not a traceback."""
    def exhausted(sig):
        raise MemoryError
    monkeypatch.setitem(cli.FORM_BUILDERS, "psi-cup", exhausted)
    assert main(["build", "--form", "psi-cup", "--p", "12", "--q", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": "out of memory"}


def test_parser_tables_are_the_library_names():
    """The parser's plain-string choices name what the library has: the
    suites in suites.SUITES order, the two families, and one builder per
    form."""
    assert cli.SUITE_NAMES == tuple(suites.SUITES)
    assert cli.FAMILIES == (UNITARY, ORTHOGONAL)
    builders = {"psi-q": build_psi_q, "psi-cup": build_psi_cup, "psi-orth": build_psi_orth,
                "km-nabla": build_km_nabla, "km-explicit": build_km_explicit, "mixed": build_mixed}
    assert list(cli.FORM_BUILDERS) == list(cli.FORM_NAMES) == [*builders, "chern"]
    for name, build in builders.items():
        sig = Signature(2, 1, 1, 0, ORTHOGONAL) if name == "psi-orth" else Signature(2, 1, 1, 1)
        assert cli.FORM_BUILDERS[name](sig) is build(sig), name
    sig = Signature(2, 1, 1, 1)
    assert cli.FORM_BUILDERS["chern"](sig) == forms.GKCochain(
        forms.euler_chern_form(sig), models.fock_model(0), sig)


_LOADED = ("import json, sys\n"
           "from theta_forms.cli import build_parser, main\n"
           "build_parser()\n"
           "rc = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
           "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'theta_forms')))\n"
           "sys.exit(rc)\n")


def _loaded(*argv) -> set:
    """The theta_forms modules loaded in a fresh process that builds the
    parser and runs the command argv, if any; the command must succeed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_each_command_loads_only_its_layers(tmp_path):
    """The parser imports no library layer, calibrate none of the form,
    suite, text or lattice layers, and theta only theta and scalars."""
    base = {"theta_forms", "theta_forms.cli"}
    assert _loaded() == base
    calibrate = _loaded("calibrate", "--p", "1", "--q", "1", "--r", "1")
    assert "theta_forms.models" in calibrate
    assert calibrate & {f"theta_forms.{m}" for m in
                        ("forms", "schur", "suites", "serialize", "theta")} == set()
    gram = tmp_path / "e8.json"
    gram.write_text(gram_to_json(e8_gram()))
    assert (_loaded("theta", "--gram", str(gram), "--nmax", "2", "--check", "eisenstein")
            == base | {"theta_forms.theta", "theta_forms.scalars"})


@pytest.mark.parametrize("argv", [
    ["--suite", "restriction", "--p", "2", "--q", "1"],
    ["--suite", "all", "--p", "2", "--q", "1"],
    ["--suite", "eisenstein", "--s", "1"],
    ["--suite", "closedness", "--r", "1"],
    ["--suite", "closedness", "--p", "2"],
    ["--suite", "closedness", "--p", "2", "--q", "1", "--s", "1"],
    # these suites draw no random cochains, so a seed would change nothing
    ["--suite", "eisenstein", "--seed", "5"],
    ["--suite", "intertwiner", "--seed", "0"],
])
def test_verify_rejects_ignored_flags(capsys, argv):
    assert main(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error" in json.loads(captured.err)


def test_seeded_suites_are_the_suites_that_take_a_seed():
    assert cli.SEEDED_SUITES == tuple(n for n in suites.SUITES if suites.suite_takes_seed(n))


def test_a_stray_seed_is_rejected_before_any_layer_loads():
    """verify rejects --seed for a suite that draws nothing from the plain
    string table alone: exit 2 and one JSON line, with no suite or form
    layer loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LOADED, "verify", "--suite", "eisenstein",
                           "--seed", "5"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "--seed" in json.loads(proc.stderr)["error"]
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert loaded & {"theta_forms.suites", "theta_forms.forms"} == set(), loaded


def test_seed_reaches_only_the_suites_that_draw(monkeypatch, capsys):
    seeds = []

    def closedness(seed=0, signatures=None):
        seeds.append(seed)
        return suites.SuiteReport("closedness")

    monkeypatch.setitem(suites.SUITES, "closedness", closedness)
    assert main(["verify", "--suite", "closedness", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert run_suite("closedness", seed=7, signatures=[(1, 1)]).passed
    assert seeds == [5, 7]
    assert [n for n in suites.SUITES if suites.suite_takes_seed(n)] == ["closedness"]
    # perfbench passes a seed to every suite; one that draws nothing drops it
    assert run_suite("eisenstein", seed=5, n_max=1).lines == run_suite("eisenstein", n_max=1).lines
    with pytest.raises(TypeError):
        run_suite("eisenstein", n_maxx=1)


def test_verify_report_is_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "intertwiner", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert all("seconds" not in s for s in json.loads(a.read_text())["suites"])


_ROUND_TRIP_SIGS = [(2, 2, 1, 1), (2, 1, 2, 0), (3, 2, 1, 1)]
# psi-orth needs the orthogonal family; the unitary Kudla-Millson forms need r = s
_REJECTED = ({("psi-orth", sig) for sig in _ROUND_TRIP_SIGS}
             | {("km-nabla", (2, 1, 2, 0)), ("km-explicit", (2, 1, 2, 0))})


@pytest.mark.parametrize("sig", _ROUND_TRIP_SIGS, ids=lambda sig: ",".join(map(str, sig)))
@pytest.mark.parametrize("form", sorted(cli.FORM_BUILDERS))
def test_export_reproduces_build_byte_for_byte(tmp_path, capsys, form, sig):
    flags = ["--form", form] + [x for f, v in zip("pqrs", sig) for x in (f"--{f}", str(v))]
    built = tmp_path / "built.json"
    rc = main(["build"] + flags + ["--out", str(built)])
    if (form, sig) in _REJECTED:
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "error" in json.loads(captured.err)
        return
    assert rc == 0
    assert main(["export", "--in", str(built), "--format", "json"]) == 0
    assert capsys.readouterr().out == built.read_text()
    assert main(["build"] + flags + ["--format", "latex"]) == 0
    latex = capsys.readouterr().out
    assert main(["export", "--in", str(built), "--format", "latex"]) == 0
    assert capsys.readouterr().out == latex


# SHA-256 of `build` (JSON, LaTeX) beyond perfbench's construct ladder: two-digit
# rows, both families' Chern forms, orthogonal km-explicit, conjugate-only
# columns (s > r) and mixed at s = 0.  Any change of a variable or generator
# order, a sign or the writer shows here.
_BUILD_DIGESTS = {
    "psi-q-unitary-11-1-1-0": (
        "1a30ab1007cf2b323c048160b8946d8c5771f06fd5ccaf2d177739e55d793442",
        "9893b6cd86ae83e1442ab5202b4ad3a7d70afbf17a2ccddfec26c587e7538c24"),
    "chern-unitary-3-2-1-0": (
        "19a30dbab8470a0c5e8cd8fc89ae47b0e22c760a87f1451b5226298a63cc13d1",
        "c68d0c61429dd869478fe50d623e2512000a5256e31525cc0c40ffd66c768b15"),
    "chern-orthogonal-3-2-1-0": (
        "bdec9975c48e41846d81f0fea97c152c9b234d912f352e93ad5fc68e8679d09b",
        "a273cffb1c08b3a2b3d1bb2c0ed2d890ee049a508914390f09340a0df857da9e"),
    "km-explicit-orthogonal-3-2-2-0": (
        "3ba05aab94578e84813dca78941ea9e934318510ad75f341ab5140cea3b65ed1",
        "a50999934e5f3ae3559c5a5d462b4eb3526d3503dab323e014ac65bbc0db428c"),
    "psi-cup-unitary-2-1-1-2": (
        "518a228352feedaf5a2976736f5d89e68bdc23d1771582a242b8867ccde2f3d2",
        "a0c7e597cb102ff4adca544eba7ad3167d4a219834ed96f3b28961e8bc8dabc1"),
    "mixed-unitary-3-2-2-0": (
        "d8b26268e01110798bc3cb767ac3e1ca3b43426f7cf336279d5e41d9d860c131",
        "3d96a3dcc0ebbce48879abe84eddc5de339ad5f2aa7724b79c94ffec3b83928f"),
    "mixed-unitary-2-2-1-1": (
        "0e49b4b0dea5d0858edc633c63c5b2f6386161da2411a5ee352290be19cedd31",
        "be949bc12676168c0a57176a6ca6e9ac40e890dc9ffd2c37ec88ee8ab6e4caed"),
}


def _build_flags(name: str) -> list[str]:
    *form, family, p, q, r, s = name.split("-")
    return ["--form", "-".join(form), "--family", family,
            "--p", p, "--q", q, "--r", r, "--s", s]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(_BUILD_DIGESTS))
def test_build_output_is_pinned(tmp_path, name):
    for fmt, digest in zip(("json", "latex"), _BUILD_DIGESTS[name]):
        out = tmp_path / fmt
        assert main(["build", *_build_flags(name), "--format", fmt, "--out", str(out)]) == 0
        assert _sha256(out) == digest


@pytest.mark.parametrize("name", ["mixed-unitary-2-2-1-1", "psi-cup-unitary-2-1-1-2"])
def test_export_of_a_reordered_import_is_pinned(tmp_path, name):
    # terms, poly entries, monomials and wedges in reverse order; a reversal of
    # n generators is odd when n(n-1)/2 is, and one swap more makes it even, so
    # the document holds the built cochain and must export to the build's bytes
    built = tmp_path / "built.json"
    assert main(["build", *_build_flags(name), "--out", str(built)]) == 0
    doc = json.loads(built.read_text())
    for term in doc["terms"]:
        w = term["wedge"][::-1]
        if len(w) * (len(w) - 1) // 2 % 2:
            w[:2] = w[1::-1]
        term["wedge"] = w
        term["poly"].reverse()
        for entry in term["poly"]:
            entry["mono"].reverse()
    doc["terms"].reverse()
    reordered = tmp_path / "reordered.json"
    reordered.write_text(json.dumps(doc))
    assert reordered.read_text() != built.read_text()
    for fmt, digest in zip(("json", "latex"), _BUILD_DIGESTS[name]):
        out = tmp_path / fmt
        assert main(["export", "--in", str(reordered), "--format", fmt, "--out", str(out)]) == 0
        assert _sha256(out) == digest


@pytest.mark.parametrize("value", ["1e400", "0.5", " 1 ", "1_0"])
def test_export_rejects_rationals_outside_the_grammar(tmp_path, capsys, value):
    data = _psi_q_dict()
    data["terms"][0]["poly"][0]["coeff"]["im"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["export", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error" in json.loads(captured.err)


@pytest.mark.parametrize("field, value", [
    ("var", "X: 1:1_0"), ("var", "Y:١:9"), ("var", "X:01:1"),
    ("gen", "xi:+1:01"), ("gen", "xibar: 1:1"),
    ("model", "fock: 2"), ("model", "fock:00"),
    # the scalar Schrodinger model has no columns, so no tag names it
    ("model", "schrodinger:0")])
def test_export_rejects_indices_outside_the_grammar(tmp_path, capsys, field, value):
    data = _psi_q_dict()
    term = data["terms"][0]
    if field == "var":
        term["poly"][0]["mono"] = [[value, 1]]
    elif field == "gen":
        term["wedge"] = [value]
    else:
        data["model"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["export", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error" in json.loads(captured.err)


def _outside(doc, field, value):
    """A built document with one index moved outside its signature."""
    data = json.loads(cochain_to_json(build_psi_cup(Signature(2, 1, 2, 0)) if doc == "psi-cup"
                                      else build_psi_orth(Signature(2, 1, 1, 0, ORTHOGONAL))))
    term = data["terms"][0]
    if field == "wedge":
        term["wedge"] = [value]
    elif field == "var":
        term["poly"][0]["mono"] = [[value, 1]]
    elif field == "model":
        data["model"] = value
    else:
        data["signature"][field] = value
    return data


@pytest.mark.parametrize("doc, field, value", [
    ("psi-cup", "wedge", "xi:9:9"), ("psi-cup", "wedge", "xibar:1:2"),
    ("psi-cup", "var", "X:7:1"), ("psi-cup", "var", "Y:1:5"), ("psi-cup", "var", "Z:1:1"),
    ("psi-cup", "var", "Ybar:2:1"),
    ("psi-cup", "model", "mixed:99"),
    ("psi-cup", "family", ORTHOGONAL), ("psi-cup", "p", 0),
    ("psi-orth", "var", "Xbar:1:1"), ("psi-orth", "var", "X:1:2"),
    ("psi-orth", "wedge", "xibar:1:1"), ("psi-orth", "model", "fock:2"), ("psi-orth", "p", 0),
], ids=str)
def test_export_rejects_indices_outside_the_signature(tmp_path, capsys, doc, field, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_outside(doc, field, value)))
    assert main(["export", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    # rejected for its index, not for its shape or grammar
    assert "Signature(" in json.loads(captured.err)["error"]


def test_export_rejects_a_conjugate_in_a_pure_column(tmp_path, capsys):
    # psi_q at (2,1,1,0) is tagged fock:0, whose one column is holomorphic only
    text = cochain_to_json(build_psi_q(Signature(2, 1, 1, 0)))
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"X:1:1"', '"Xbar:1:1"'))
    assert main(["export", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "'Xbar:1:1' in a pure column" in json.loads(captured.err)["error"]


def test_every_built_cochain_imports_within_its_signature():
    """Every builder over p <= 3, q <= 2, r, s <= 2 in both families: each
    cochain the library builds passes the import checks and round-trips."""
    built = 0
    for family in (UNITARY, ORTHOGONAL):
        for p, q, r, s in ((p, q, r, s) for p in range(4) for q in range(3) for r in range(3)
                           for s in (range(3) if family == UNITARY else (0,))):
            for name, builder in sorted(cli.FORM_BUILDERS.items()):
                try:
                    c = builder(Signature(p, q, r, s, family))
                except ValueError:
                    continue
                assert cochain_from_json(cochain_to_json(c)) == c, (name, c.sig)
                built += 1
    assert built > 500


def test_every_documented_environment_variable_is_read():
    documented = set(re.findall(r"THETA_FORMS_[A-Z0-9_]+", (ROOT / "README.md").read_text()))
    source = "".join(f.read_text() for f in (ROOT / "src").rglob("*.py"))
    assert {name for name in documented if name not in source} == set()


# ---------------------------------------------------------------------------
# A fuzz of the two commands that read a document: export and theta --gram
# ---------------------------------------------------------------------------

@cache
def _cli_fuzz_sources() -> dict:
    return {
        "export": tuple(cochain_to_json(c) for c in (
            build_psi_q(Signature(2, 1, 1, 0)), build_mixed(Signature(2, 1, 1, 1)),
            build_psi_orth(Signature(2, 1, 1, 0, ORTHOGONAL)))),
        "theta": tuple(gram_to_json(L) for L in (
            e8_gram(), GramMatrix([[2, 1], [1, 2]]),
            GramMatrix([["3/2", "1/2"], ["1/2", "1"]]))),
    }


def _retypes(value) -> list:
    """value in another JSON type: wrapped in a list, as its JSON text or as
    null; a string of digits as an int; an int as a float and as a bool; a
    dict as the list of its values."""
    out = [[value], json.dumps(value), None]
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        out.append(int(value))
    if type(value) is int:
        out += [float(value), value != 0]
    if isinstance(value, dict):
        out.append(list(value.values()))
    return out


def _dumps(node, twice) -> str:
    """json.dumps(node), except that the dict twice[0] writes its key
    twice[1] once more at its end, holding twice[2] (json.loads keeps the
    last)."""
    if isinstance(node, dict):
        pairs = [*node.items(), *([twice[1:]] if twice and twice[0] is node else [])]
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v, twice)}" for k, v in pairs) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_dumps(v, twice) for v in node) + "]"
    return json.dumps(node)


# two coprime 120-bit denominators: 1/a + 1/b has one of 241 bits
_GROWTH = ((1 << 120) + 1, (1 << 120) + 3)


def _grow(draw, doc) -> None:
    """Rational growth: a poly entry's "re" becomes 1/a and a copy of the
    entry beside it 1/b, so the reader sums the two (in range when a = b,
    out of it otherwise); a Gram entry becomes 1/a or 1/(a b)."""
    a, b = draw(st.sampled_from(_GROWTH)), draw(st.sampled_from(_GROWTH))
    slots = _slots(doc, [])
    entries = [(n, k) for n, k, role in slots if role[-1:] == ("poly",) and type(n) is list
               and isinstance(n[k], dict) and isinstance(n[k].get("coeff"), dict)]
    cells = [(n, k) for n, k, role in slots if role == ("gram",) and type(n[k]) is str]
    if entries:
        n, k = draw(st.sampled_from(entries))
        n[k]["coeff"]["re"] = f"1/{a}"
        n.insert(k + 1, copy.deepcopy(n[k]))
        n[k + 1]["coeff"]["re"] = f"1/{b}"
    elif cells:
        n, k = draw(st.sampled_from(cells))
        n[k] = draw(st.sampled_from((f"1/{a}", f"1/{a * b}")))


@st.composite
def cli_documents(draw):
    """(command, text): a build or Gram document with one or two mutations,
    each dropping, duplicating or retyping a key or list item, swapping two
    leaf values, or growing a rational (_grow)."""
    command = draw(st.sampled_from(("export", "theta")))
    doc = json.loads(draw(st.sampled_from(_cli_fuzz_sources()[command])))
    twice = None
    for _ in range(draw(st.integers(1, 2))):
        slots = [(n, k) for n, k, _ in _slots(doc, [])]
        leaves = [(n, k) for n, k in slots if not isinstance(n[k], (dict, list))]
        node, key = draw(st.sampled_from(slots))
        how = draw(st.sampled_from(("drop", "duplicate", "retype", "swap", "grow")))
        if how == "grow":
            _grow(draw, doc)
        elif how == "drop":
            del node[key]
        elif how == "duplicate" and isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
        elif how == "duplicate":
            n, k = draw(st.sampled_from(leaves))
            twice = (node, key, n[k])
        elif how == "retype":
            node[key] = draw(st.sampled_from(_retypes(node[key])))
        else:
            (n1, k1), (n2, k2) = draw(st.sampled_from(leaves)), draw(st.sampled_from(leaves))
            n1[k1], n2[k2] = n2[k2], n1[k1]
    return command, _dumps(doc, twice)


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz") / "doc.json"


@settings(max_examples=120, deadline=None)
@given(cli_documents())
def test_cli_fuzz_exits_with_one_error_line_or_a_document(fuzz_path, case):
    """A mutated document given to export or theta exits 0, 1 or 2; an
    error writes nothing to stdout and one JSON line to stderr; an accepted
    cochain exports to a document that imports equal and exports to itself."""
    command, text = case
    fuzz_path.write_text(text, encoding="utf-8")
    argv = (["export", "--in", str(fuzz_path), "--format", "json"] if command == "export"
            else ["theta", "--gram", str(fuzz_path), "--nmax", "2"])
    rc, out, err = _run(argv)
    assert rc in (0, 1, 2)
    if rc:
        assert out == "" and err.count("\n") == 1 and "error" in json.loads(err)
        return
    assert err == ""
    if command == "theta":
        assert [row["n"] for row in json.loads(out)["rows"]] == [0, 1, 2]
        return
    assert cochain_from_json(out) == cochain_from_json(text)
    fuzz_path.write_text(out, encoding="utf-8")
    assert _run(argv) == (0, out, "")
