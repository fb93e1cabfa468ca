import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from theta_forms import cli
from theta_forms.cli import main
from theta_forms.forms import FactorizationError, build_psi_cup, build_psi_orth, build_psi_q
from theta_forms.models import ORTHOGONAL, UNITARY, CalibrationError, Signature
from theta_forms.serialize import cochain_from_json, cochain_to_json, gram_to_json
from theta_forms.suites import run_suite
from theta_forms.theta import e8_gram

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
    real = cli.calibrate_structure
    monkeypatch.setattr(cli, "calibrate_structure",
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


@pytest.mark.parametrize("argv", [
    ["--suite", "restriction", "--p", "2", "--q", "1"],
    ["--suite", "all", "--p", "2", "--q", "1"],
    ["--suite", "eisenstein", "--s", "1"],
    ["--suite", "closedness", "--r", "1"],
    ["--suite", "closedness", "--p", "2"],
    ["--suite", "closedness", "--p", "2", "--q", "1", "--s", "1"],
])
def test_verify_rejects_ignored_flags(capsys, argv):
    assert main(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error" in json.loads(captured.err)


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
    ("model", "fock: 2"), ("model", "fock:00")])
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
    ("psi-cup", "model", "mixed:99"), ("psi-cup", "model", "schrodinger:0"),
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
