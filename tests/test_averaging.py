"""The averaging pipeline: certificates, gauge moves, invariant output."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from diracavg.actions import CircleAction
from diracavg.averaging import (
    AveragingResult,
    adiabatic_check,
    average_coupling,
    check_compatibility,
    gauge_poisson,
    tr4_check,
)
from diracavg.config import PI
from diracavg.coupling import data_to_poisson, structure_eq_check
from diracavg.dirac import gauge_transform, graph_of_bivector, same_span_at
from diracavg.fixtures import fixture_path, load
from diracavg.modelspec import parse_spec_dict
from diracavg.rings import Poly, RationalFn
from diracavg.sampling import sample_box
from diracavg.tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    d_scalar,
    exterior_derivative,
    lie_derivative,
    one_form,
    schouten_bracket,
)

from conftest import CHART4, default_box


def _pipeline(name):
    return _pipeline_of(load(name))


def _pipeline_of(spec):
    gd, checks = structure_eq_check(spec.geometric_data())
    assert all(c.passed for c in checks)
    act = spec.action
    cert = check_compatibility(act, gd.p, mode="hamiltonian", j=spec.certificate_j)
    assert cert.verified, [c.to_dict() for c in cert.failures]
    pts = sample_box(gd.conn.chart, spec.get_box(), 6, spec.seed)
    return gd, average_coupling(gd, cert, pts)


def test_certificate_verifies_the_radial_hamiltonian():
    spec = load("flat")
    gd, _ = structure_eq_check(spec.geometric_data())
    cert = check_compatibility(spec.action, gd.p, mode="hamiltonian", j=spec.certificate_j)
    assert cert.verified
    assert cert.mode == "hamiltonian"
    # mu = dJ is recorded per circle
    assert len(cert.mu) == 1
    chart = gd.conn.chart
    assert cert.mu[0] == d_scalar(spec.certificate_j[0], chart)


def test_certificate_rejects_a_wrong_hamiltonian():
    spec = load("flat")
    gd, _ = structure_eq_check(spec.geometric_data())
    bad = [RationalFn.var("y1")]
    cert = check_compatibility(spec.action, gd.p, mode="hamiltonian", j=bad)
    assert not cert.verified
    assert any(c.check == "compat-generator" for c in cert.failures)


def test_compat_generator_witness_prints_components_in_their_order():
    spec = load("flat")
    gd, _ = structure_eq_check(spec.geometric_data())
    x1, y1, y2 = (RationalFn.var(n) for n in ("x1", "y1", "y2"))
    cert = check_compatibility(spec.action, gd.p, mode="hamiltonian", j=[y1 * y2 + x1 * y2 * y2])
    assert [(c.check, c.witness) for c in cert.failures] == [("compat-generator", {
        "generator": 0,
        "expected": "{(3,): RationalFn(Poly(1*y1)), (2,): RationalFn(Poly(-1*y2))}",
        "got": "{(3,): RationalFn(Poly(1*y2)), (2,): RationalFn(Poly(-1*y1 + -2*x1*y2))}",
    })]


def test_certificate_rejects_nonclosed_mu():
    spec = load("flat")
    gd, _ = structure_eq_check(spec.geometric_data())
    chart = gd.conn.chart
    y1, y2 = RationalFn.var("y1"), RationalFn.var("y2")
    # generates the rotation but is not closed: mu = dJ + y1 y2 d(y1)
    mu = one_form(chart, {2: y1 + y1 * y2, 3: y2})
    cert = check_compatibility(spec.action, gd.p, mu=[mu], mode="locally-hamiltonian")
    assert any(c.check == "compat-closed" for c in cert.failures)


def test_certificate_mode_validation():
    spec = load("flat")
    gd, _ = structure_eq_check(spec.geometric_data())
    with pytest.raises(ValueError):
        check_compatibility(spec.action, gd.p, mode="nonsense")
    with pytest.raises(ValueError):
        check_compatibility(spec.action, gd.p, mode="hamiltonian", j=None)
    with pytest.raises(ValueError):
        check_compatibility(spec.action, gd.p, mode="locally-hamiltonian", mu=None)


def test_averaging_a_trivial_model_changes_nothing():
    gd, res = _pipeline("flat")
    assert res.q.is_zero()
    # theta = pi * dJ for invariant mu, so the gauge 2-form still vanishes
    chart = gd.conn.chart
    pi_sym = RationalFn.var(PI)
    assert res.theta == one_form(
        chart, {2: pi_sym * RationalFn.var("y1"), 3: pi_sym * RationalFn.var("y2")}
    )
    assert exterior_derivative(res.theta).is_zero()
    assert res.data.conn == gd.conn
    assert res.data.sigma == gd.sigma
    assert res.data.p == gd.p


def test_rotating_model_gauge_and_averaged_data():
    gd, res = _pipeline("rotating_lift")
    chart = gd.conn.chart
    x2, y1 = RationalFn.var("x2"), RationalFn.var("y1")
    assert res.q == one_form(chart, {0: -(x2 * y1)})
    # theta and q share one exterior derivative, so one gauge 2-form
    assert exterior_derivative(res.theta) == exterior_derivative(res.q)
    # the averaged connection is flat and the 2-form loses its fiber factor
    assert all(x.is_zero() for row in res.data.conn.gamma for x in row)
    assert res.data.sigma == DifferentialForm(chart, 2, {(0, 1): RationalFn.const(1)})
    assert res.data.p == gd.p
    want = MultivectorField(chart, 2, {(0, 1): RationalFn.const(1), (2, 3): RationalFn.const(1)})
    assert res.poisson is not None and res.poisson.pi == want


def test_leaf_model_homotopy_form():
    gd, res = _pipeline("transversal_leaf")
    chart = gd.conn.chart
    y2 = RationalFn.var("y2")
    pi_sym = RationalFn.var(PI)
    want = one_form(chart, {4: -pi_sym, 0: -y2})
    assert res.theta == want
    assert res.q == one_form(chart, {0: -y2})
    # gamma averages to zero: <y1> over the rotation vanishes
    assert all(x.is_zero() for row in res.data.conn.gamma for x in row)


def test_averaged_output_is_invariant():
    for name in ("rotating_lift", "transversal_leaf"):
        gd, res = _pipeline(name)
        for circ in res.certificate.circles:
            gen = circ.generator()
            assert lie_derivative(gen, res.data.sigma).is_zero()
            assert lie_derivative(gen, res.data.p).is_zero()
            if res.poisson is not None:
                assert lie_derivative(gen, res.poisson.pi).is_zero()


def test_averaging_is_idempotent():
    _, res = _pipeline("rotating_lift")
    cert2 = check_compatibility(
        res.certificate.action, res.data.p, mode="hamiltonian", j=res.certificate.j
    )
    res2 = average_coupling(res.data, cert2)
    assert res2.q.is_zero()
    assert res2.data.conn == res.data.conn
    assert res2.data.sigma == res.data.sigma


def test_average_coupling_preconditions():
    spec = load("rotating_lift")
    gd_raw = spec.geometric_data()
    gd, _ = structure_eq_check(gd_raw)
    cert = check_compatibility(spec.action, gd.p, mode="hamiltonian", j=spec.certificate_j)
    with pytest.raises(ValueError):
        average_coupling(gd_raw, cert)  # not structure-checked
    mu = [d_scalar(spec.certificate_j[0], gd.conn.chart)]
    cert_compat = check_compatibility(spec.action, data_to_poisson(gd).pi, mu=mu, mode="compatible")
    with pytest.raises(ValueError):
        average_coupling(gd, cert_compat)  # wrong mode for averaging


def test_gauge_poisson_matches_the_frame_gauge():
    chart = CHART4
    pi = MultivectorField(chart, 2, {(0, 1): RationalFn.const(1), (2, 3): RationalFn.const(1)})
    y2 = RationalFn.var("y2")
    theta = one_form(chart, {2: y2 * y2})
    b = exterior_derivative(theta)
    pbar = gauge_poisson(pi, b)
    assert schouten_bracket(pbar, pbar).is_zero()
    pts = sample_box(chart, default_box(chart), 5, 81)
    g_old = graph_of_bivector(pi)
    g_new = graph_of_bivector(pbar)
    for p in pts:
        assert same_span_at(g_new, gauge_transform(g_old, -b), p)


def test_gauge_poisson_with_zero_form_is_identity():
    pi = MultivectorField(CHART4, 2, {(0, 1): RationalFn.const(1), (2, 3): RationalFn.const(1)})
    assert gauge_poisson(pi, DifferentialForm.zero(CHART4, 2)) == pi


def test_gauge_poisson_rejects_nonclosed_forms():
    pi = MultivectorField(CHART4, 2, {(0, 1): RationalFn.const(1)})
    b = DifferentialForm(CHART4, 2, {(0, 1): RationalFn.var("y1")})
    with pytest.raises(ValueError):
        gauge_poisson(pi, b)


def test_tr4_block_identities_on_the_rotating_model():
    spec = load("rotating_lift")
    gd, _ = structure_eq_check(spec.geometric_data())
    pi = data_to_poisson(gd).pi
    y2 = RationalFn.var("y2")
    theta = one_form(gd.conn.chart, {2: y2 * y2})
    pbar = gauge_poisson(pi, exterior_derivative(theta))
    checks = tr4_check(pi, pbar, theta, gd.conn.fol)
    assert checks and all(c.passed for c in checks)
    names = {c.check for c in checks}
    assert names == {"TR4", "AL"}


def test_adiabatic_obstruction_is_detected():
    _, res = _pipeline("obstructed_lift")
    rep = adiabatic_check(res, res.certificate.j)
    assert not rep.is_hamiltonian
    assert rep.dzeta_zero
    assert rep.zeta is not None and not rep.zeta[0].is_zero()
    y1, y2 = RationalFn.var("y1"), RationalFn.var("y2")
    want = one_form(res.data.conn.chart, {0: -(y1 * y1 + y2 * y2)})
    assert rep.zeta[0] == want


def test_adiabatic_passes_after_a_casimir_shift():
    _, res = _pipeline("shifted_lift")
    rep = adiabatic_check(res, res.certificate.j)
    assert rep.is_hamiltonian
    assert rep.dzeta_zero


def test_a_model_file_with_weight_two_to_the_forty_averages():
    # the circle spins 2^40 times faster; its Hamiltonian scales with it,
    # and the averaged connection is the weight-1 one
    big = 2 ** 40
    doc = json.loads(fixture_path("rotating_lift").read_text(encoding="utf-8"))
    doc["action"]["circles"][0]["weights"] = [big]
    doc["certificate"]["j"] = [
        [[str(Fraction(c) * big), mono] for c, mono in j] for j in doc["certificate"]["j"]
    ]
    _gd, res = _pipeline_of(parse_spec_dict(doc))
    _gd1, res1 = _pipeline("rotating_lift")
    assert res.data.conn.projector().matrix == res1.data.conn.projector().matrix
    assert res1.data.conn.projector().matrix != _gd1.conn.projector().matrix
