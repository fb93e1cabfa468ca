import json

import pytest

from theta_forms import cli
from theta_forms.cli import main
from theta_forms.forms import FactorizationError, build_psi_q
from theta_forms.models import CalibrationError, Signature
from theta_forms.serialize import cochain_from_json, cochain_to_dict, gram_to_json
from theta_forms.theta import e8_gram


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


def test_theta_table(tmp_path):
    gram = tmp_path / "a1.json"
    gram.write_text(json.dumps({"dim": 1, "gram": [["2"]]}))
    out = tmp_path / "table.json"
    rc = main(["theta", "--gram", str(gram), "--nmax", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["rows"][1]["count"] == 2


def test_export_latex(tmp_path, capsys):
    form = tmp_path / "f.json"
    assert main(["build", "--form", "psi-q", "--p", "1", "--q", "1", "--r", "1",
                 "--out", str(form)]) == 0
    rc = main(["export", "--in", str(form), "--format", "latex"])
    assert rc == 0
    assert "\\overline{\\xi}_{1,1}" in capsys.readouterr().out


def _psi_q_dict():
    return cochain_to_dict(build_psi_q(Signature(1, 1, 1, 0)))


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
], ids=["model-int", "signature-int", "terms-int", "top-level-list", "negative-split",
        "fractional-entry", "float-coefficient"])
def test_export_rejects_malformed_cochain(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["export", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error" in json.loads(captured.err)


def test_calibrate_prints_report(capsys):
    rc = main(["calibrate", "--p", "1", "--q", "1", "--r", "1"])
    assert rc == 0
    assert "verified" in capsys.readouterr().out


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
