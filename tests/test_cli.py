"""The command line: exit codes, check reports, determinism."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracavg import averaging, cli, coupling, linalg, moser, tensors
from diracavg.config import PI
from diracavg.dirac import DiracFrame
from diracavg.fixtures import fixture_path
from diracavg.modelspec import parse_spec
from diracavg.moser import GuardError
from diracavg.reports import failed, passed
from diracavg.rings import Poly, RationalFn
from diracavg.sampling import format_point, sweep
from diracavg.tensors import DifferentialForm, MultivectorField, schouten_bracket

from test_linalg import fraction_jets


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
    # the comparison is exact, so the check states no tolerance
    assert "tolerance" not in route


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
    real = moser.homotopy_residuals

    def guarded(ev, t, points):
        # every time after t = 0 trips the guard: 3 of 15 pairs stay usable
        out, fails = real(ev, t, points)
        if t:
            fails = {
                row: GuardError(f"interpolation matrix near singular at t={t}")
                for row in range(len(points))
            }
        return out, fails

    argv = ("moser-verify", "--spec", "transversal_leaf", "--samples", "3",
            "--steps", "150", "--format", "json-like")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    hr = [c for c in json.loads(out)["checks"] if c["check"] == "HR"][0]
    assert (hr["info"]["pairs_used"], hr["info"]["pairs_skipped"]) == (15, 0)
    monkeypatch.setattr(moser, "homotopy_residuals", guarded)
    code, out, _ = _run(capsys, *argv)
    assert code == 1
    hr = [c for c in json.loads(out)["checks"] if c["check"] == "HR"][0]
    assert hr["status"] == "fail"
    assert (hr["info"]["pairs_used"], hr["info"]["pairs_skipped"]) == (3, 12)
    assert hr["witness"] == "only 3/15 (t, point) pairs usable"


@pytest.mark.parametrize("pair", [0, 7])
def test_moser_verify_fails_hr_on_a_nan_residual(capsys, monkeypatch, pair):
    # Python's max drops a NaN, and a NaN compares below the tolerance; the
    # first and a later (t, point) pair are both checked
    real = moser.homotopy_residuals
    calls = []

    def nan_residual(ev, t, points):
        out, fails = real(ev, t, points)
        if len(calls) == pair // len(points):
            out[pair % len(points)] = math.nan
        calls.append(t)
        return out, fails

    monkeypatch.setattr(moser, "homotopy_residuals", nan_residual)
    code, out, _ = _run(capsys, "moser-verify", "--spec", "transversal_leaf", "--samples", "3",
                        "--steps", "150", "--format", "json-like")
    assert code == 1
    hr = [c for c in json.loads(out)["checks"] if c["check"] == "HR"][0]
    assert hr["status"] == "fail" and math.isnan(hr["witness"]["residual"])
    assert hr["witness"]["t"] == str(calls[pair // 3])
    assert (hr["info"]["pairs_used"], hr["info"]["pairs_skipped"]) == (15, 0)


def test_moser_verify_skips_bad_leaf_points(capsys, monkeypatch):
    real = moser.z_batch
    bad_rows = set()

    def failing(ev, t, points):
        z, fails = real(ev, t, points)
        for row in bad_rows:
            fails[row] = (1, ZeroDivisionError("denominator vanished for component (0, 1)"))
        return z, fails

    monkeypatch.setattr(moser, "z_batch", failing)
    argv = ("moser-verify", "--spec", "transversal_leaf", "--samples", "5",
            "--steps", "150", "--format", "json-like")
    for rows, code_want, used, status in (({0}, 0, 4, "pass"), ({0, 3}, 1, 3, "fail")):
        bad_rows.clear()
        bad_rows.update(rows)
        code, out, _ = _run(capsys, *argv)
        assert code == code_want
        checks = {c["check"]: c for c in json.loads(out)["checks"]}
        # the other checks still run
        assert sorted(checks) == ["HR", "PD", "SE1", "SE2", "SE3", "ZS"]
        assert all(checks[k]["status"] == "pass" for k in ("HR", "PD", "SE1", "SE2", "SE3"))
        zs = checks["ZS"]
        assert zs["status"] == status
        assert (zs["info"]["points_used"], zs["info"]["points_skipped"]) == (used, len(rows))
    assert zs["witness"] == "only 3/5 leaf points usable"


def test_moser_verify_runs_on_the_torus(capsys):
    torus = pathlib.Path(__file__).resolve().parents[1] / "bench" / "torus.json"
    code, out, _ = _run(capsys, "moser-verify", "--spec", str(torus), "--samples", "4",
                        "--steps", "100", "--format", "json-like")
    assert code == 0
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert sorted(checks) == ["HR", "PD", "SE1", "SE2", "SE3", "ZS"]
    assert all(c["status"] == "pass" for c in checks.values())
    assert checks["HR"]["info"]["pairs_skipped"] == 0


def _bivector_file(tmp_path, coords, components):
    """A model file holding only the bivector ``pi``."""
    spec = tmp_path / "pi.json"
    spec.write_text(json.dumps({
        "coordinates": coords,
        "tensors": {"pi": {"kind": "multivector", "degree": 2, "components": components}},
    }))
    return str(spec)


def _route(out):
    return [c for c in json.loads(out)["checks"] if c["check"] == "JAC-route"][0]


def test_check_jacobi_fails_jac_route_when_most_points_are_skipped(capsys, monkeypatch, tmp_path):
    real_bracket, real_at = cli.schouten_bracket, linalg.Jets.at

    def nudged(a, b):
        # a 1e-12 nudge on one component of the Jacobiator
        tiny = RationalFn.const(Fraction(1, 10**12))
        return real_bracket(a, b) + MultivectorField(a.chart, 3, {(0, 1, 2): tiny})

    calls = []

    def vanishing(self, point):
        # three of every four points meet a vanishing denominator
        calls.append(point)
        if len(calls) % 4:
            raise ZeroDivisionError("denominator vanishes at the point")
        return real_at(self, point)

    # flat's bivector read from a file: check-jacobi computes its Jacobiator
    # itself, where the nudge reaches it
    spec = _bivector_file(tmp_path, ["x1", "x2", "y1", "y2"],
                          {"0,1": [["1", {}]], "2,3": [["1", {}]]})
    argv = ("check-jacobi", "--spec", spec, "--samples", "8", "--format", "json-like")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    route = _route(out)
    # every sample point is checked
    assert route["status"] == "pass"
    assert (route["info"]["points_used"], route["info"]["points_skipped"]) == (8, 0)
    # the comparison is exact, so the nudge fails at the first point
    monkeypatch.setattr(cli, "schouten_bracket", nudged)
    code, out, _ = _run(capsys, *argv)
    assert code == 1
    route = _route(out)
    assert route["status"] == "fail"
    assert (route["info"]["points_used"], route["info"]["points_skipped"]) == (8, 0)
    assert route["witness"]["triple"] == [0, 1, 2]
    assert route["witness"]["difference"] == "-1/1000000000000"
    assert sorted(route["witness"]["point"]) == ["x1", "x2", "y1", "y2"]
    monkeypatch.setattr(cli, "schouten_bracket", real_bracket)
    monkeypatch.setattr(linalg.Jets, "at", vanishing)
    code, out, _ = _run(capsys, *argv)
    assert code == 1
    route = _route(out)
    assert route["status"] == "fail"
    assert (route["info"]["points_used"], route["info"]["points_skipped"]) == (2, 6)
    assert route["witness"] == "only 2/8 sample points usable"


def test_jac_route_catches_a_schouten_bracket_missing_a_term(capsys, monkeypatch, tmp_path):
    real = cli.schouten_bracket

    def dropped(a, b):
        # [[Pi, Pi]] is twice a sum over coordinates k of
        # (d Pi / d xi_k) ^ (d Pi / d x_k); leave out the last k
        k = a.chart.dim - 1
        term = tensors._xi_right_derivative(a, k).wedge(
            tensors._x_derivative(b, a.chart.coords[k]))
        return real(a, b) - term - term

    # {x, y} = x, {y, z} = z, {x, z} = 1: Poisson, but the last term of its
    # Jacobiator is nonzero
    spec = _bivector_file(tmp_path, ["x", "y", "z"], {
        "0,1": [["1", {"x": 1}]], "1,2": [["1", {"z": 1}]], "0,2": [["1", {}]],
    })
    argv = ("check-jacobi", "--spec", spec, "--samples", "6", "--format", "json-like")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert _route(out)["info"]["points_used"] == 6
    monkeypatch.setattr(cli, "schouten_bracket", dropped)
    code, out, _ = _run(capsys, *argv)
    assert code == 1
    route = _route(out)
    assert route["status"] == "fail"
    assert route["witness"]["triple"] == [0, 1, 2]
    assert sorted(route["witness"]["point"]) == ["x", "y", "z"]


def test_jac_route_keeps_pi_symbolic_in_a_model_file_bivector(capsys, monkeypatch, tmp_path):
    real_value_at, real_at = Poly._value_at, linalg.Jets.at
    values = []

    def unbound(self, point, *pair):
        assert PI not in point
        return real_value_at(self, point, *pair)

    def recording(self, point):
        vals, grads = real_at(self, point)
        values.extend(vals)
        for row in grads:
            values.extend(row)
        return vals, grads

    monkeypatch.setattr(Poly, "_value_at", unbound)
    monkeypatch.setattr(linalg.Jets, "at", recording)
    # {x1, x2} = @pi x3 and {x3, x4} = x1 / (@pi + x2^2): not Poisson
    spec = _bivector_file(tmp_path, ["x1", "x2", "x3", "x4"], {
        "0,1": [["1", {"@pi": 1, "x3": 1}]],
        "2,3": {"num": [["1", {"x1": 1}]], "den": [["1", {"@pi": 1}], ["1", {"x2": 2}]]},
    })
    code, out, _ = _run(capsys, "check-jacobi", "--spec", spec, "--samples", "7",
                        "--format", "json-like")
    assert code == 1
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert checks["JAC"]["status"] == "fail"
    route = checks["JAC-route"]
    assert route["status"] == "pass"
    assert (route["info"]["points_used"], route["info"]["points_skipped"]) == (7, 0)
    # entries that keep @pi are compared exactly over Z[@pi]: every pair of
    # a point is a ZPi over a ZPi, and some have @pi
    assert all(type(n) is tuple and type(d) is tuple for n, d in values)
    assert any(len(n) > 1 or len(d) > 1 for n, d in values)


def _oracle_jac_route(pi, jac, points):
    """JAC-route's check on the Fraction jets, with the probe as it was
    before the unreduced pairs: their oracle."""
    n = pi.chart.dim
    pairs = list(itertools.combinations(range(n), 2))
    col = {ab: c for c, ab in enumerate(pairs)}
    jets = linalg.Jets([pi.component(ab) for ab in pairs], pi.chart.coords)
    column = [[(a, col[min(a, l), max(a, l)]) for a in range(n) if a != l] for l in range(n)]
    triples = [
        ((i, j, k), col[j, k], col[i, k], col[i, j], jac.comps.get((i, j, k)))
        for i, j, k in itertools.combinations(range(n), 3)
    ]
    bad = {}

    def probe(p):
        vals, grads = fraction_jets(jets, p)
        s = [[0] * len(pairs) for _ in range(n)]
        for l, grad in enumerate(grads):
            pi_l = [(a, vals[c] if a < l else -vals[c]) for a, c in column[l] if vals[c]]
            for c, g in enumerate(grad):
                if g:
                    for a, x in pi_l:
                        s[a][c] += x * g
        for (i, j, k), jk, ik, ij, w in triples:
            cyc = s[i][jk] - s[j][ik] + s[k][ij]
            diff = cyc + cyc - (0 if w is None else w.value_at(p))
            if diff != 0:
                bad.setdefault("witness", {
                    "triple": [i, j, k], "point": format_point(p), "difference": str(diff),
                })
                return False
        return True

    run, _first = sweep(points, probe)
    counts = {"points_used": run.usable, "points_skipped": run.total - run.usable}
    witness = bad.get("witness") or run.shortfall()
    if witness is not None:
        return failed("JAC-route", witness=witness, **counts).to_dict()
    return passed("JAC-route", **counts).to_dict()


_GRID = [Fraction(c) for c in (-1, Fraction(-1, 2), 0, Fraction(1, 3), Fraction(1, 2), 1)]


@st.composite
def _bivector_entries(draw, names):
    """A component: a polynomial, a rational entry with a pole on the grid,
    or one that keeps @pi in its numerator, its denominator or both."""
    c = RationalFn.const(draw(st.sampled_from([1, -1, 2, Fraction(-1, 2), Fraction(3, 4)])))
    v, w = (RationalFn.var(draw(st.sampled_from(names))) for _ in range(2))
    pi, half = RationalFn.var(PI), RationalFn.const(Fraction(1, 2))
    return draw(st.sampled_from([
        RationalFn.zero(), c * v, c * v * w + half, c * v / (w - half), (v + c) / (v - w + half),
        c * pi * v, v / (pi + w * w), pi * v / (w - half), (pi * v + c) / (pi * w + RationalFn.const(1)),
    ]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_jac_route_on_integer_pairs_matches_the_fraction_oracle(data):
    draw = data.draw
    n = draw(st.integers(3, 4))
    chart = tensors.Chart(tuple(f"x{i}" for i in range(n)))
    comps = {ab: draw(_bivector_entries(chart.coords))
             for ab in itertools.combinations(range(n), 2)}
    pi = MultivectorField(chart, 2, comps)
    names = list(chart.coords) + ([PI] if draw(st.booleans()) else [])
    points = draw(st.lists(st.fixed_dictionaries({c: st.sampled_from(_GRID) for c in names}),
                           min_size=1, max_size=6))
    # the Jacobiator, none, or one nudged by a rational or by @pi
    jac = schouten_bracket(pi, pi)
    nudge = draw(st.sampled_from([None, RationalFn.const(Fraction(1, 10**12)), RationalFn.var(PI)]))
    jac = draw(st.sampled_from([jac, MultivectorField.zero(chart, 3)]))
    if nudge is not None:
        jac = jac + MultivectorField(chart, 3, {(0, 1, 2): nudge})
    got = cli._jacobi_checks(pi, jac, points)[1].to_dict()
    assert got == _oracle_jac_route(pi, jac, points)


@pytest.mark.parametrize("keep_pi", [False, True])
def test_a_passing_jac_route_builds_no_fraction(monkeypatch, keep_pi):
    # {x, y} = x / (1 + z^2), {y, z} = z, {x, z} = y: not Poisson, so each
    # triple meets its Jacobiator component; @pi scales one entry
    x, y, z = (RationalFn.var(c) for c in ("x", "y", "z"))
    one = RationalFn.const(1)
    scale = RationalFn.var(PI) if keep_pi else RationalFn.const(3)
    chart = tensors.Chart(("x", "y", "z"))
    pi = MultivectorField(chart, 2, {(0, 1): x / (one + z * z), (1, 2): z * scale, (0, 2): y})
    jac = schouten_bracket(pi, pi)
    assert not jac.is_zero()
    points = [{c: _GRID[(3 * k + i) % 6] for i, c in enumerate(chart.coords)} for k in range(6)]
    real_new, real_sweep, built = Fraction.__new__, cli.sweep, []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    def sweep_counting(points, probe):
        Fraction.__new__ = counted
        try:
            return real_sweep(points, probe)
        finally:
            Fraction.__new__ = real_new

    monkeypatch.setattr(cli, "sweep", sweep_counting)
    route = cli._jacobi_checks(pi, jac, points)[1]
    assert route.passed and route.info == {"points_used": 6, "points_skipped": 0}
    assert built == []
    # the count sees a Fraction built inside the sweep
    monkeypatch.setattr(cli, "schouten_bracket", lambda a, b: jac + jac)
    assert not cli._jacobi_checks(pi, None, points)[1].passed and built


def test_reports_record_the_effective_seed_samples_and_spec(capsys, tmp_path):
    fixture = parse_spec(fixture_path("flat"))
    code, out, _ = _run(capsys, "check-jacobi", "--spec", "flat", "--format", "json-like")
    payload = json.loads(out)
    assert (payload["spec"], payload["seed"], payload["samples"]) == (
        "flat", fixture.seed, fixture.samples)
    code, out, _ = _run(capsys, "moser-verify", "--spec", "transversal_leaf", "--seed", "3",
                        "--steps", "100", "--format", "json-like")
    payload = json.loads(out)
    assert (payload["seed"], payload["samples"]) == (3, 20)
    assert {c["check"]: c for c in payload["checks"]}["PD"]["info"]["points"] == 20
    # a model file is named by its bytes, wherever it lives
    text = fixture_path("flat").read_bytes()
    reports = []
    for where in ("a", "b"):
        (tmp_path / where).mkdir()
        (tmp_path / where / "model.json").write_bytes(text)
        report = tmp_path / where / "report.json"
        code, _, _ = _run(capsys, "check-jacobi", "--spec", str(tmp_path / where / "model.json"),
                          "--report", str(report))
        assert code == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["spec"] == "sha256:" + hashlib.sha256(text).hexdigest()


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


@pytest.mark.parametrize("count", ["0", "-3"])
def test_a_sample_count_below_one_is_a_usage_error(capsys, count):
    # as in a model file, where samples must be a positive integer
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-jacobi", "--spec", "flat", "--samples", count])
    assert exc.value.code == 2
    assert "argument --samples: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--report", "--out"])
def test_an_unwritable_output_path_is_a_usage_error(capsys, tmp_path, option):
    path = tmp_path / "missing" / "file.json"
    code, out, err = _run(capsys, "average", "--spec", "flat", "--samples", "4", option, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_a_key_error_inside_a_stage_is_not_a_usage_error(capsys, monkeypatch):
    # only an unknown --box is a usage error by KeyError; a bug elsewhere
    # must not pass for one
    def broken(frame, points):
        raise KeyError("section 7")

    monkeypatch.setattr(cli, "involutivity_check", broken)
    with pytest.raises(KeyError):
        cli.main(["dirac-verify", "--spec", "flat", "--samples", "3"])
    assert capsys.readouterr().err == ""


def test_the_readme_lists_the_stages_of_each_command():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    for command, stages in cli.COMMANDS.items():
        assert f"| `{command}` | " + ", ".join(f"`{s}`" for s in stages) + " |" in readme


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


def _report_checks(report):
    payload = json.loads(report.read_text())
    return {c["check"]: c for c in payload["checks"]}


def test_averaged_2form_not_invariant_reports_ob1(capsys, monkeypatch, tmp_path):
    real = averaging.lie_derivative

    def on_forms(gen, t):
        # the 2-form alone comes out non-invariant
        if isinstance(t, DifferentialForm) and t.degree == 2:
            return DifferentialForm.basis(t.chart, (0, 1))
        return real(gen, t)

    monkeypatch.setattr(averaging, "lie_derivative", on_forms)
    report = tmp_path / "report.json"
    code, _, err = _run(capsys, "average", "--spec", "rotating_lift", "--report", str(report))
    assert (code, err) == (1, "")
    checks = _report_checks(report)
    assert sorted(checks) == ["OB1", "SE1", "SE2", "SE3"]
    assert checks["OB1"]["status"] == "error"
    assert checks["OB1"]["witness"] == "averaged 2-form is not invariant"


def test_fiber_dependence_in_the_adiabatic_check_reports_ad2(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(averaging, "_mentions", lambda f, names: True)
    report = tmp_path / "report.json"
    code, _, err = _run(capsys, "adiabatic", "--spec", "rotating_lift", "--report", str(report))
    assert (code, err) == (1, "")
    ad2 = _report_checks(report)["AD2"]
    assert ad2["status"] == "error"
    assert "found fiber dependence" in ad2["witness"]


def test_jacobi_failure_while_deriving_the_bivector_reports_jac(capsys, monkeypatch, tmp_path):
    def broken(a, b):
        return MultivectorField(a.chart, 3, {(0, 1, 2): RationalFn.const(1)})

    monkeypatch.setattr(coupling, "schouten_bracket", broken)
    report = tmp_path / "report.json"
    code, _, err = _run(capsys, "check-jacobi", "--spec", "flat", "--report", str(report))
    assert (code, err) == (1, "")
    checks = _report_checks(report)
    assert sorted(checks) == ["JAC"]
    assert checks["JAC"]["status"] == "error"
    assert "violates the Jacobi identity" in checks["JAC"]["witness"]


def _flaky_rank(monkeypatch, outcomes):
    """Make the first rank probes raise (None) or return the given verdicts."""
    real = DiracFrame.rank_ok_at
    calls = []

    def probe(self, point):
        calls.append(point)
        if len(calls) <= len(outcomes):
            if outcomes[len(calls) - 1] is None:
                raise ZeroDivisionError("denominator vanishes at sample point")
            return outcomes[len(calls) - 1]
        return real(self, point)

    monkeypatch.setattr(DiracFrame, "rank_ok_at", probe)
    return calls


def test_a_short_sweep_fails_its_check_with_exit_one(capsys, monkeypatch, tmp_path):
    _flaky_rank(monkeypatch, [None] * 4)
    report = tmp_path / "report.json"
    code, _, err = _run(capsys, "dirac-verify", "--spec", "flat", "--samples", "10",
                        "--report", str(report))
    assert (code, err) == (1, "")
    checks = _report_checks(report)
    rank = checks["frame-rank"]
    assert rank["status"] == "fail"
    assert rank["witness"] == "only 6/10 sample points usable"
    assert rank["info"] == {"usable": 6, "total": 10}
    assert checks["involutivity"]["status"] == "pass"


def test_a_failing_point_outranks_a_short_sweep(capsys, monkeypatch, tmp_path):
    calls = _flaky_rank(monkeypatch, [None] * 4 + [False])
    report = tmp_path / "report.json"
    code, _, _ = _run(capsys, "dirac-verify", "--spec", "flat", "--samples", "10",
                      "--report", str(report))
    assert code == 1
    rank = _report_checks(report)["frame-rank"]
    assert rank["status"] == "fail"
    assert rank["point"] == format_point(calls[4])
    assert "witness" not in rank


def test_a_short_sweep_inside_averaging_reports_gt1(capsys, monkeypatch, tmp_path):
    calls = []

    def mostly_degenerate(f1, f2, point):
        calls.append(point)
        if len(calls) % 2:
            raise ZeroDivisionError("denominator vanishes at sample point")
        return True

    monkeypatch.setattr(averaging, "same_span_at", mostly_degenerate)
    report = tmp_path / "report.json"
    code, _, err = _run(capsys, "average", "--spec", "flat", "--samples", "10",
                        "--report", str(report))
    assert (code, err) == (1, "")
    gt1 = _report_checks(report)["GT1"]
    assert gt1["status"] == "error"
    assert gt1["witness"] == "only 5/10 sample points usable"


def test_importing_the_cli_leaves_numpy_unloaded():
    # only moser-verify needs numpy; moser loads it on its first use
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import diracavg.cli; "
        "from diracavg import moser; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')); "
        "moser.np.zeros; print(moser.np is sys.modules['numpy'])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split("\n")[:2] == ["[]", "True"]


# the exit code, the sha256 of the report and --out bytes (None where the
# request writes none) and the stderr text of requests at a fixed seed; a
# change to any of them is a change to report bytes and must be listed.
# "averaged M" is the file that ``average --out`` writes for M, which
# carries theta, so gauge skips averaging on it
REPORT_DIGESTS = {
    ("average", "torus"): (
        0,
        "b162903e70bb6490da46dfd3988916377ab08071ba329afbf6c90451ce5d4eab",
        "600ce5477625753af296273b604bec43014d207db4cb66fbe2d0d647aba07f2a",
        "",
    ),
    ("gauge", "torus"): (
        0,
        "2dade0c9cd34c949148baf6fe55e45d38311449a338feb36f199dc92935c7770",
        None,
        "",
    ),
    ("average", "obstructed_lift"): (
        0,
        "9b3500855620f4156738c6fe4e4276ba3fb52ba1ab5df0b90d1e4f093b96d1f8",
        "ef88559957844fca24157f82501481497b6dff3b9a96b8fa28f0dde230120b4a",
        "",
    ),
    ("gauge", "obstructed_lift"): (
        0,
        "7af63633d950c8dc1aeb618948b6f16ae189d4bee69902cf491b3803e2cb92a5",
        None,
        "",
    ),
    ("full-pipeline", "shifted_lift"): (
        0,
        "c039cff4d9745f405290bc3861727017534b5336bcf0f3a232e43362c3872885",
        "b9d77790e3089a9bdc85da44bcc73c98d8905ab9a00f877e5cc89b610699dc39",
        "",
    ),
    # these reach the function field's inverse and kernel basis, and rref
    # over Q(@pi)
    ("full-pipeline", "torus"): (
        0,
        "57354bbd4c4e4a03065399901678acb53491f8106075baf7af322487bdd35a7b",
        "600ce5477625753af296273b604bec43014d207db4cb66fbe2d0d647aba07f2a",
        "",
    ),
    ("dirac-verify", "obstructed_lift"): (
        0,
        "54181347e1654f1c9f9f8b46fe2e3a2d875d25f560b57e7966b8f5eb9aeac2cd",
        None,
        "",
    ),
    # involutivity on the torus's coupling frame, and a gauge's graph spans
    # on a model with a cycle
    ("dirac-verify", "torus"): (
        0,
        "80052c5fb8828572184b3239116b3a9ba2a9ea0a5169d3ced8f91ac6fa52d7d8",
        None,
        "",
    ),
    ("gauge", "rotating_lift"): (
        0,
        "90643746cfdcbf745fcd5ab09a32a4c4421507045f9f2a7b9848426fbef034e9",
        None,
        "",
    ),
    # the rank of a coupling frame whose P vanishes on a leaf, and
    # GT1's gauged frame on a model with a cycle
    ("dirac-verify", "transversal_leaf"): (
        0,
        "aa84328565705096bd6f3c9304e7c5a4b5b8b78f66d7939898676ad62a516be6",
        None,
        "",
    ),
    ("full-pipeline", "rotating_lift"): (
        0,
        "fb3b0766698c18eb7366d5d4ec8f6f115080778217d79aa17f373f05bdf75110",
        "cf725c62b58142b36a07a279aa592c48eb34d0a87edc850d0e00365017023e7f",
        "",
    ),
    # structure equations that fail: no bivector, and no averaging
    ("gauge", "nonclosed_sigma"): (
        1,
        "31b36568eff047e0500bf59714035cb4f1a4d64e3d0583c1b6004ffda6bec053",
        None,
        "",
    ),
    ("dirac-verify", "nonclosed_sigma"): (
        1,
        "8d6be58d4d044f87080ffe2e76292ef9a5daaaa50cdae73c660d6085bba48773",
        None,
        "",
    ),
    ("full-pipeline", "nonclosed_sigma"): (
        1,
        "0a21e222439118bee66a4cc54925006f43e6a01973d24bf324a6299276c26492",
        None,
        "",
    ),
    ("moser-verify", "nonclosed_sigma"): (
        1,
        "034cd1d7652dcfcfa9da7a9e94398f766080a055ea806b606568eaeeeb6c4933",
        None,
        "",
    ),
    # no connection block: a usage error, even after JAC in full-pipeline
    ("average", "nonintegrable"): (
        2,
        None,
        None,
        "error: model has no connection/foliation block\n",
    ),
    ("gauge", "nonintegrable"): (
        2,
        None,
        None,
        "error: model has no connection/foliation block\n",
    ),
    ("full-pipeline", "nonintegrable"): (
        2,
        None,
        None,
        "error: model has no connection/foliation block\n",
    ),
    # the frame of the file's bivector, which is not Poisson
    ("dirac-verify", "nonintegrable"): (
        1,
        "f2469a8c4e0adf14e14fd9f642c846f48ad4d5c2b5f98c15288431131ace48e1",
        None,
        "",
    ),
    # a file that carries theta
    ("gauge", "averaged obstructed_lift"): (
        0,
        "2852f83e8b8dcf7a4852c36988f6da3d33ec9c60734d9a25736917059c7df726",
        None,
        "",
    ),
}


@pytest.mark.parametrize("command, model", sorted(REPORT_DIGESTS))
def test_exact_reports_keep_their_bytes(capsys, tmp_path, command, model):
    torus = pathlib.Path(__file__).resolve().parents[1] / "bench" / "torus.json"
    spec = str(torus) if model == "torus" else model
    if model.startswith("averaged "):
        spec = str(tmp_path / "input.json")
        assert _run(capsys, "average", "--spec", model.split()[1], "--seed", "7",
                    "--out", spec)[0] == 0
    report, out = tmp_path / "report.json", tmp_path / "averaged.json"
    argv = [command, "--spec", spec, "--seed", "7", "--report", str(report)]
    if command in ("average", "full-pipeline"):
        argv += ["--out", str(out)]
    code, _, err = _run(capsys, *argv)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
                    for p in (report, out))
    assert (code, *digests, err) == REPORT_DIGESTS[(command, model)]
