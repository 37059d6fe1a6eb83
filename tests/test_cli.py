"""The command line: exit codes, check reports, determinism."""

from __future__ import annotations

import json

import pytest

from diracavg import cli
from diracavg.fixtures import fixture_path
from diracavg.modelspec import parse_spec
from diracavg.moser import GuardError
from diracavg.rings import RationalFn


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _checks(report_text):
    payload = json.loads(report_text)
    return payload, {
        (c["check"], i): c for i, c in enumerate(payload["checks"])
    }


def test_check_jacobi_passes_on_an_integrable_model(capsys):
    code, out, err = _run(
        capsys, "check-jacobi", "--spec", "flat", "--format", "json-like"
    )
    assert code == 0
    payload, _ = _checks(out)
    assert payload["status"] == "pass"
    names = [c["check"] for c in payload["checks"]]
    assert "JAC" in names and "JAC-route" in names


def test_check_jacobi_fails_with_a_witness(capsys):
    code, out, err = _run(
        capsys, "check-jacobi", "--spec", "nonintegrable", "--format", "json-like"
    )
    assert code == 1
    payload, _ = _checks(out)
    assert payload["status"] == "fail"
    jac = [c for c in payload["checks"] if c["check"] == "JAC"][0]
    assert jac["status"] == "fail"
    assert jac["witness"]["component"] == [0, 1, 3]
    # the dual bracket route still agrees with itself on the failure
    route = [c for c in payload["checks"] if c["check"] == "JAC-route"][0]
    assert route["status"] == "pass"


def test_check_structure_passes_and_fails(capsys):
    code, out, _ = _run(capsys, "check-structure", "--spec", "rotating_lift")
    assert code == 0
    code, out, _ = _run(
        capsys, "check-structure", "--spec", "nonclosed_sigma", "--format", "json-like"
    )
    assert code == 1
    payload, _ = _checks(out)
    se2 = [c for c in payload["checks"] if c["check"] == "SE2"][0]
    assert se2["status"] == "fail"
    assert se2["witness"]["triple"] == [0, 1, 2]


def test_average_writes_an_averaged_model(capsys, tmp_path):
    out_path = tmp_path / "averaged.json"
    code, out, _ = _run(
        capsys, "average", "--spec", "rotating_lift", "--out", str(out_path)
    )
    assert code == 0
    spec = parse_spec(out_path)
    # the averaged connection is flat and the gauge forms are recorded
    assert all(x.is_zero() for row in spec.connection.gamma for x in row)
    for name in ("sigma", "p", "theta", "q", "pi"):
        assert name in spec.tensors
    x2, y1 = RationalFn.var("x2"), RationalFn.var("y1")
    assert spec.tensors["q"].component((0,)) == -(x2 * y1)


def test_averaged_output_passes_its_own_checks(capsys, tmp_path):
    out_path = tmp_path / "averaged.json"
    code, _, _ = _run(capsys, "average", "--spec", "rotating_lift", "--out", str(out_path))
    assert code == 0
    code, _, _ = _run(capsys, "check-structure", "--spec", str(out_path))
    assert code == 0
    code, _, _ = _run(capsys, "check-jacobi", "--spec", str(out_path))
    assert code == 0


def test_gauge_command(capsys):
    code, out, _ = _run(capsys, "gauge", "--spec", "rotating_lift", "--format", "json-like")
    assert code == 0
    payload, _ = _checks(out)
    names = {c["check"] for c in payload["checks"]}
    assert "GT1" in names and "TR4" in names


def test_dirac_verify(capsys):
    code, _, _ = _run(capsys, "dirac-verify", "--spec", "flat")
    assert code == 0
    code, out, _ = _run(
        capsys, "dirac-verify", "--spec", "nonintegrable", "--format", "json-like"
    )
    assert code == 1
    payload, _ = _checks(out)
    inv = [c for c in payload["checks"] if c["check"] == "involutivity"][0]
    assert inv["status"] == "fail"
    assert inv["witness"] is not None and inv["point"] is not None


def test_adiabatic_obstruction(capsys):
    code, out, _ = _run(
        capsys, "adiabatic", "--spec", "obstructed_lift", "--format", "json-like"
    )
    assert code == 1
    payload, _ = _checks(out)
    ad2 = [c for c in payload["checks"] if c["check"] == "AD2"][0]
    assert ad2["status"] == "fail"
    assert ad2["info"]["dzeta_zero"] is True
    code, _, _ = _run(capsys, "adiabatic", "--spec", "shifted_lift")
    assert code == 0


def test_moser_verify_small_run(capsys):
    code, out, _ = _run(
        capsys,
        "moser-verify",
        "--spec",
        "transversal_leaf",
        "--samples",
        "3",
        "--steps",
        "150",
        "--format",
        "json-like",
    )
    assert code == 0
    payload, _ = _checks(out)
    names = [c["check"] for c in payload["checks"]]
    for want in ("HR", "PD", "ZS"):
        assert want in names
    assert payload["status"] == "pass"


def test_moser_verify_fails_hr_when_most_pairs_are_skipped(capsys, monkeypatch):
    real = cli.homotopy_residual

    def guarded(ev, t, point):
        # every time after t = 0 trips the guard: 3 of 15 pairs stay usable
        if t:
            raise GuardError(f"interpolation matrix near singular at t={t}")
        return real(ev, t, point)

    argv = ("moser-verify", "--spec", "transversal_leaf", "--samples", "3",
            "--steps", "150", "--format", "json-like")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    hr = [c for c in json.loads(out)["checks"] if c["check"] == "HR"][0]
    assert (hr["info"]["pairs_used"], hr["info"]["pairs_skipped"]) == (15, 0)
    monkeypatch.setattr(cli, "homotopy_residual", guarded)
    code, out, _ = _run(capsys, *argv)
    assert code == 1
    hr = [c for c in json.loads(out)["checks"] if c["check"] == "HR"][0]
    assert hr["status"] == "fail"
    assert (hr["info"]["pairs_used"], hr["info"]["pairs_skipped"]) == (3, 12)
    assert hr["witness"] == "only 3/15 (t, point) pairs usable"


@pytest.mark.parametrize("command", ["check-jacobi", "gauge", "full-pipeline"])
def test_failed_structure_check_is_reported_not_a_usage_error(capsys, tmp_path, command):
    report = tmp_path / "report.json"
    code, out, err = _run(
        capsys, command, "--spec", "nonclosed_sigma", "--report", str(report)
    )
    assert code == 1
    assert err == ""
    payload = json.loads(report.read_text())
    status = {c["check"]: c["status"] for c in payload["checks"]}
    assert status == {"SE1": "pass", "SE2": "fail", "SE3": "pass"}
    se2 = [c for c in payload["checks"] if c["check"] == "SE2"][0]
    assert se2["witness"]["triple"] == [0, 1, 2]


def test_full_pipeline_and_report_determinism(capsys, tmp_path):
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    code, _, _ = _run(
        capsys, "full-pipeline", "--spec", "rotating_lift", "--report", str(r1)
    )
    assert code == 0
    code, _, _ = _run(
        capsys, "full-pipeline", "--spec", "rotating_lift", "--report", str(r2)
    )
    assert code == 0
    assert r1.read_bytes() == r2.read_bytes()
    payload = json.loads(r1.read_text())
    checks = payload["checks"]
    assert len(checks) >= 10
    assert [c["check"] for c in checks] == sorted(c["check"] for c in checks)


def test_text_format_prints_one_line_per_check(capsys):
    code, out, _ = _run(capsys, "check-structure", "--spec", "flat")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 3  # SE1, SE2, SE3


def test_unknown_fixture_is_a_usage_error(capsys):
    code, _, err = _run(capsys, "check-jacobi", "--spec", "no_such_model")
    assert code == 2
    assert "error" in err


def test_malformed_model_file_is_a_usage_error(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"coordinates": ["x", "x"]}')
    code, _, err = _run(capsys, "check-jacobi", "--spec", str(p))
    assert code == 2
    assert "error" in err


def test_unknown_box_is_a_usage_error(capsys):
    code, _, err = _run(capsys, "check-structure", "--spec", "flat", "--box", "huge")
    assert code == 2
    assert "no box named" in err or "error" in err


def test_argparse_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command", "--spec", "flat"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-jacobi"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_report_file_matches_stdout_payload(capsys, tmp_path):
    r = tmp_path / "rep.json"
    code, out, _ = _run(
        capsys,
        "check-jacobi",
        "--spec",
        "flat",
        "--format",
        "json-like",
        "--report",
        str(r),
    )
    assert code == 0
    assert json.loads(out) == json.loads(r.read_text())
