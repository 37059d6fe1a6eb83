"""One derivation per request, Q(@pi) at points, and the routes each check keeps."""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from diracavg import cli, coupling, linalg, sampling, tensors
from diracavg.derivation import Derivation
from diracavg.dirac import DiracFrame
from diracavg.fixtures import fixture_path
from diracavg.modelspec import parse_spec
from diracavg.rings import RationalFn

TORUS = str(pathlib.Path(__file__).resolve().parents[1] / "bench" / "torus.json")
SPECS = {"rotating_lift": str(fixture_path("rotating_lift")), "torus": TORUS}


def _run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def _wrap(monkeypatch, module, name, wrapper_of):
    """Replace module.name under every name a diracavg module binds it to."""
    real = getattr(module, name)
    wrapper = wrapper_of(real)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("diracavg") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, wrapper)
    return real


def _record(monkeypatch, module, name):
    """The argument tuples of every call to module.name, kept alive."""
    calls = []

    def wrapper_of(real):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        return wrapper

    _wrap(monkeypatch, module, name, wrapper_of)
    return calls


def _checks(out):
    checks = {}
    for c in json.loads(out)["checks"]:
        checks.setdefault(c["check"], []).append(c)
    return checks


@pytest.mark.parametrize("spec", sorted(SPECS))
@pytest.mark.parametrize("command, brackets, extractions", [
    # the input bivector and the averaged one
    ("full-pipeline", 2, 0),
    # the same two and the gauge image, which is split into data once
    ("gauge", 3, 1),
])
def test_each_request_derives_each_object_once(capsys, monkeypatch, spec, command,
                                               brackets, extractions):
    schouten = _record(monkeypatch, tensors, "schouten_bracket")
    to_data = _record(monkeypatch, coupling, "poisson_to_data")
    structure = _record(monkeypatch, coupling, "structure_eq_check")
    inverses = _record(monkeypatch, linalg, "inverse")
    code, _ = _run(capsys, command, "--spec", SPECS[spec], "--samples", "4")
    assert code == 0
    # one Jacobiator per distinct bivector
    assert len(schouten) == brackets
    assert len({id(a) for a, _b in schouten}) == brackets
    assert len(to_data) == extractions
    # every structure check is on a new object
    assert structure and len({id(gd) for (gd,) in structure}) == len(structure)
    dim = parse_spec(SPECS[spec]).chart.dim
    # the n x n gauge matrix, inverted once for GT1 and AL together
    assert sum(len(args[0]) == dim for args in inverses) == 1


def test_no_pointwise_matrix_of_a_gauge_reaches_the_function_field(capsys, monkeypatch):
    fields, inside = [], []

    def sweep_of(real):
        def sweep(points, probe):
            def marked(p):
                inside.append(p)
                try:
                    return probe(p)
                finally:
                    inside.pop()

            return real(points, marked)

        return sweep

    def rref_of(real):
        def rref(m):
            # the entry types of each matrix reduced at a sample point
            if inside:
                fields.append({type(x) for row in m for x in row})
            return real(m)

        return rref

    real_rows = DiracFrame.matrix_at

    def matrix_at(self, point):
        # the entry types of the frame rows a pointwise decision reads
        rows = real_rows(self, point)
        if inside:
            fields.append({type(x) for row in rows for x in row})
        return rows

    _wrap(monkeypatch, sampling, "sweep", sweep_of)
    _wrap(monkeypatch, linalg, "rref", rref_of)
    monkeypatch.setattr(DiracFrame, "matrix_at", matrix_at)
    code, _ = _run(capsys, "gauge", "--spec", "obstructed_lift", "--samples", "10")
    assert code == 0
    # the gauged graph keeps @pi, and its spans are decided over Z[@pi], by
    # pairings of its rows cleared to integer coefficients in @pi
    assert any(tuple in kinds for kinds in fields)
    assert not any(RationalFn in kinds for kinds in fields)


def test_a_perturbed_gauge_image_fails_the_graph_span_and_tr4(capsys, monkeypatch):
    def gauge_poisson_of(real):
        def doubled(*args, **kwargs):
            return real(*args, **kwargs).scale(RationalFn.const(2))

        return doubled

    argv = ("gauge", "--spec", "rotating_lift", "--samples", "5", "--format", "json-like")
    code, out = _run(capsys, *argv)
    assert code == 0
    _wrap(monkeypatch, cli, "gauge_poisson", gauge_poisson_of)
    code, out = _run(capsys, *argv)
    assert code == 1
    checks = _checks(out)
    spans = [c for c in checks["GT1"] if c["status"] == "fail"]
    assert [c["witness"] for c in spans] == ["gauged graph has a different span"]
    assert [c["status"] for c in checks["TR4"]] == ["fail"]


def test_a_scaled_averaged_vertical_block_fails_tr4(capsys, monkeypatch):
    def average_of(real):
        def scaled(*args, **kwargs):
            res = real(*args, **kwargs)
            # the averaged data the averaged bivector was built from
            res.data.p = res.data.p.scale(RationalFn.const(2))
            return res

        return scaled

    argv = ("full-pipeline", "--spec", "rotating_lift", "--samples", "5", "--format", "json-like")
    code, out = _run(capsys, *argv)
    assert code == 0
    _wrap(monkeypatch, cli, "average_coupling", average_of)
    code, out = _run(capsys, *argv)
    assert code == 1
    assert [c["status"] for c in _checks(out)["TR4"]] == ["fail"]


def test_each_reader_of_structure_results_gets_its_own_copies():
    spec = parse_spec(fixture_path("flat"))
    d = Derivation()
    gd = spec.geometric_data()
    out, first = d.structure(gd)
    cli._tag(first, "input")
    # the checked object maps to the same results, untouched by the tag
    again, second = d.structure(out)
    assert again is out and d.structure(gd)[0] is out
    assert [r.check for r in second] == ["SE1", "SE2", "SE3"]
    assert all("stage" not in r.info for r in second)


def test_reused_structure_results_keep_their_own_stage(capsys):
    # on flat the averaged data equals the input; each keeps its own tag
    code, out = _run(capsys, "full-pipeline", "--spec", "flat", "--samples", "4",
                     "--format", "json-like")
    assert code == 0
    checks = _checks(out)
    for name in ("SE1", "SE2", "SE3"):
        assert [c["info"]["stage"] for c in checks[name]] == ["input", "averaged"]
