"""Acceptance suite: one test per numbered release criterion.

Each test exercises a full contract clause end to end, with its stated
tolerance and, where one is stated, its runtime budget.  Symbolic identities
are checked coefficient-exactly; floating-point clauses compare against
independent numerical oracles.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from diracavg import cli
from diracavg.actions import CircleAction, lie_vv1
from diracavg.averaging import (
    adiabatic_check,
    average_coupling,
    check_compatibility,
    gauge_poisson,
    tr4_check,
)
from diracavg.coupling import (
    data_to_dirac,
    data_to_poisson,
    q_gauge,
    structure_eq_check,
)
from diracavg.dirac import (
    gauge_transform,
    graph_of_bivector,
    involutivity_check,
    same_span_at,
)
from diracavg.fixtures import load
from diracavg.moser import (
    FlowConfig,
    NumericEvaluator,
    flow_and_verify,
    flow_batch,
    homotopy_residuals,
    z_batch,
)
from diracavg.rings import (
    COS,
    SIN,
    Poly,
    RationalFn,
    TrigPoly,
)
from diracavg.sampling import sample_box, sweep
from diracavg.tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    VectorValued1Form,
    bigrade_decompose,
    d10_horizontal,
    d_scalar,
    exterior_derivative,
    lie_derivative,
    one_form,
    schouten_bracket,
)

from conftest import CHART2, CHART4, lie_along, rand_poly

CHART6 = Chart(("x1", "x2", "x3", "x4", "x5", "x6"))

INTEGRABLE = ("flat", "rotating_lift", "transversal_leaf", "obstructed_lift", "shifted_lift")


def _averaged(name):
    """Verified data plus its averaging result for a bundled model."""
    spec = load(name)
    gd, checks = structure_eq_check(spec.geometric_data())
    assert all(c.passed for c in checks), [c.to_dict() for c in checks]
    cert = check_compatibility(spec.action, gd.p, mode="hamiltonian", j=spec.certificate_j)
    assert cert.verified, [c.to_dict() for c in cert.failures]
    return spec, gd, average_coupling(gd, cert)


def test_criterion_1_averaging_representation_identity():
    # <T> = T + delta(l(T)) coefficient-exactly on randomized tensors under
    # randomized plane rotations, charts up to dimension six
    start = time.monotonic()
    rng = random.Random(101)
    charts = (CHART2, CHART4, CHART6)
    kinds = ("scalar", "form1", "form2", "mv1", "mv2", "vv1")
    checked = 0
    for _ in range(104):
        chart = charts[rng.randrange(3)]
        n = chart.dim
        i, j = rng.choice(list(itertools.combinations(range(n), 2)))
        circ = CircleAction(chart, [(i, j, rng.randint(1, 3))])
        kind = kinds[rng.randrange(6)]
        if kind == "scalar":
            t = RationalFn.from_poly(rand_poly(rng, chart.coords, 2))
        elif kind == "vv1":
            t = VectorValued1Form(
                chart,
                [
                    [RationalFn.from_poly(rand_poly(rng, chart.coords, 1)) for _ in range(n)]
                    for _ in range(n)
                ],
            )
        else:
            cls = DifferentialForm if kind.startswith("form") else MultivectorField
            deg = int(kind[-1])
            comps = {
                idx: RationalFn.from_poly(rand_poly(rng, chart.coords, 2))
                for idx in itertools.combinations(range(n), deg)
                if rng.random() < 0.5
            }
            t = cls(chart, deg, comps)
        lhs = circ.average(t)
        rhs = t + circ.delta_g(lie_along(circ, t))
        if isinstance(t, RationalFn):
            assert (lhs - rhs).is_zero()
        else:
            assert lhs == rhs
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 100
    assert elapsed <= 60.0
    print(f"criterion 1: {checked} tensors exact in {elapsed:.1f}s")


def test_criterion_2_kernel_integrals_match_quadrature():
    # closed forms of the two period integrals against a 10^4-node trapezoid
    start = time.monotonic()
    rng = random.Random(102)
    n = 10_000
    ts = np.linspace(0.0, 2.0 * math.pi, n + 1)
    h = 2.0 * math.pi / n
    worst = 0.0
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            k = rng.randint(0, 8)
            part = COS if (k == 0 or rng.random() < 0.5) else SIN
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            terms[(k, part)] = terms.get((k, part), Poly.zero()) + Poly.const(c)
        g = TrigPoly(terms)
        vals = np.zeros(n + 1)
        for (k, part), p in g.terms.items():
            c = p.eval_float({})
            vals += c * (np.cos(k * ts) if part == COS else np.sin(k * ts))
        mean_num = (np.sum(vals) - 0.5 * (vals[0] + vals[-1])) * h / (2.0 * math.pi)
        w = (ts - math.pi) * vals
        wtrap = (np.sum(w) - 0.5 * (w[0] + w[-1])) * h
        # the weighted integrand is aperiodic, so plain trapezoid stalls at
        # O(n^-2); the endpoint correction (h^2/12)(f'(2pi) - f'(0)) with
        # f = (t - pi) g, i.e. 2pi g'(0) by periodicity of g, restores O(n^-4)
        slope0 = (vals[1] - vals[n - 1]) / (2.0 * h)
        wtrap -= (h * h / 12.0) * 2.0 * math.pi * slope0
        wm_num = -wtrap / (2.0 * math.pi)
        worst = max(
            worst,
            abs(g.mean().eval_float({}) - mean_num),
            abs(g.weighted_moment().eval_float({}) - wm_num),
        )
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed <= 10.0
    print(f"criterion 2: worst quadrature gap {worst:.2e} in {elapsed:.1f}s")


def test_criterion_3_averaged_bivector_is_poisson_and_invariant():
    start = time.monotonic()
    for name in ("rotating_lift", "transversal_leaf"):
        spec, gd, res = _averaged(name)
        assert res.poisson is not None
        pi_bar = res.poisson.pi
        assert schouten_bracket(pi_bar, pi_bar).is_zero()
        for circ in res.certificate.circles:
            assert lie_derivative(circ.generator(), pi_bar).is_zero()
        # the averaged bivector is the exact gauge image of the input
        pi_src = data_to_poisson(res.source).pi
        assert gauge_poisson(pi_src, exterior_derivative(res.theta)) == pi_bar
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    print(f"criterion 3: exact Jacobi and invariance in {elapsed:.1f}s")


def test_criterion_4_random_gauges_preserve_structure_and_span():
    rng = random.Random(104)
    gauges = 0
    for name in INTEGRABLE:
        spec = load(name)
        gd, checks = structure_eq_check(spec.geometric_data())
        assert all(c.passed for c in checks)
        chart = gd.conn.chart
        fol = gd.conn.fol
        before = data_to_dirac(gd)
        for k in range(20):
            q = one_form(
                chart,
                {i: RationalFn.from_poly(rand_poly(rng, chart.coords, 1)) for i in fol.base},
            )
            out = q_gauge(gd, q)
            _, se = structure_eq_check(out)
            assert [c.check for c in se] == ["SE1", "SE2", "SE3"]
            assert all(c.passed for c in se), [c.to_dict() for c in se]
            after = data_to_dirac(out)
            moved = gauge_transform(before, -exterior_derivative(q))
            pts = sample_box(chart, spec.get_box(), 52, spec.seed + k)
            run, first_fail = sweep(pts, lambda p: same_span_at(after, moved, p))
            assert first_fail is None
            assert run.shortfall() is None
            gauges += 1
    assert gauges == 20 * len(INTEGRABLE)
    print(f"criterion 4: {gauges} gauges exact, spans matched at 52 points each")


def test_criterion_5_averaged_data_identities_by_two_routes():
    spec = load("rotating_lift")
    gd, checks = structure_eq_check(spec.geometric_data())
    assert all(c.passed for c in checks)
    chart = gd.conn.chart
    mu = [d_scalar(spec.certificate_j[0], chart)]
    cert = check_compatibility(spec.action, gd.p, mu=mu, mode="locally-hamiltonian")
    assert cert.verified
    res = average_coupling(gd, cert)
    circ = cert.circles[0]

    # connection route: the tensorial average of the vertical projector
    # carries the averaged coefficients entry by entry
    fol = gd.conn.fol
    avg_proj = circ.average(gd.conn.projector())
    assert avg_proj == res.data.conn.projector()
    for jrow in range(fol.f):
        for icol in range(fol.b):
            got = RationalFn.of(res.data.conn.gamma[jrow][icol])
            assert -avg_proj.matrix[fol.fiber[jrow]][fol.base[icol]] == got

    # 2-form route 1: gauge the input data by Q
    assert q_gauge(gd, res.q).sigma == res.data.sigma

    # 2-form route 2: direct averaged expression with the fiber bracket
    qi = [res.q.evaluate(gd.conn.lift(i)) for i in range(fol.b)]
    qq = DifferentialForm.zero(chart, 2)
    for a in range(fol.b):
        for b in range(a + 1, fol.b):
            val = gd.p_bracket(qi[a], qi[b])
            if not val.is_zero():
                qq = qq + DifferentialForm.basis(chart, (fol.base[a], fol.base[b])).scale(val)
    direct = (
        circ.average(gd.sigma)
        + circ.average(qq)
        - d10_horizontal(circ.average(res.q), res.data.conn)
    )
    assert direct == res.data.sigma

    # every averaged piece is invariant, generator by generator
    for c in cert.circles:
        gen = c.generator()
        assert lie_derivative(gen, res.data.sigma).is_zero()
        assert lie_derivative(gen, res.data.p).is_zero()
        lg = lie_vv1(gen, res.data.conn.projector())
        assert all(x.is_zero() for row in lg.matrix for x in row)

    # a closed certificate leaves the fiber block of the bivector alone
    assert res.data.p == gd.p
    src_dec = bigrade_decompose(data_to_poisson(gd).pi, gd.conn)
    avg_dec = bigrade_decompose(res.poisson.pi, res.data.conn)
    assert avg_dec.get((0, 2)) == src_dec.get((0, 2))
    print("criterion 5: both 2-form routes and the fiber block agree exactly")


def test_criterion_6_block_identities_agree_across_routes():
    # a hand-built gauge pair plus the two nontrivial pipeline pairs
    spec = load("rotating_lift")
    gd, _ = structure_eq_check(spec.geometric_data())
    pi = data_to_poisson(gd).pi
    y2 = RationalFn.var("y2")
    theta = one_form(gd.conn.chart, {2: y2 * y2})
    pbar = gauge_poisson(pi, exterior_derivative(theta))
    checks = tr4_check(pi, pbar, theta, gd.conn.fol)
    assert {c.check for c in checks} == {"TR4", "AL"}
    assert all(c.passed for c in checks), [c.to_dict() for c in checks]
    pairs = 1
    for name in ("flat", "rotating_lift", "transversal_leaf"):
        spec, gd, res = _averaged(name)
        pi = data_to_poisson(res.source).pi
        assert res.poisson is not None
        for c in tr4_check(pi, res.poisson.pi, res.theta, gd.conn.fol):
            assert c.passed, c.to_dict()
        pairs += 1
    print(f"criterion 6: TR4 and AL agree on {pairs} gauge pairs")


def test_criterion_7_flow_intertwines_endpoints():
    start = time.monotonic()
    spec, gd, res = _averaged("transversal_leaf")
    chart = gd.conn.chart
    pi = data_to_poisson(res.source).pi
    box = spec.get_box()
    probes = sample_box(chart, box, 4, 171)
    ev = NumericEvaluator(pi, res.theta, box, probes)
    rng = random.Random(172)
    starts = [{c: rng.uniform(-0.15, 0.15) for c in chart.coords} for _ in range(20)]
    fiber_names = [chart.coords[i] for i in gd.conn.fol.fiber]
    leaf = []
    for p in starts[:5]:
        q = dict(p)
        for name in fiber_names:
            q[name] = 0.0
        leaf.append(q)
    rep = flow_and_verify(ev, FlowConfig(points=starts, steps=1000, leaf_points=leaf))
    assert rep.ok, rep.notes
    assert rep.aborted == 0
    assert rep.max_deviation <= 1e-6
    assert rep.leaf_max_error is not None and rep.leaf_max_error <= 1e-12
    # the deformation field vanishes on the fixed leaf
    zmax = 0.0
    for t in (0.25, 1.0):
        z, fails = z_batch(ev, t, leaf)
        assert not fails
        zmax = max(zmax, float(np.max(np.abs(z))))
    assert zmax <= 1e-12
    # the transport field balances the path derivative pointwise
    hr = 0.0
    for t in (0.25, 0.75):
        residuals, fails = homotopy_residuals(ev, t, starts[:5])
        assert not fails
        hr = max(hr, *residuals)
    assert hr <= 1e-6

    # fourth-order convergence under step halving
    def flow(steps):
        aborts = {}
        end = flow_batch(ev, np.array([[starts[0][c] for c in chart.coords]]), steps, aborts)
        assert not aborts
        return end[0]

    ref = flow(3200)
    e1 = float(np.max(np.abs(flow(100) - ref)))
    e2 = float(np.max(np.abs(flow(200) - ref)))
    assert e2 > 0.0
    assert 8.0 < e1 / e2 < 32.0
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    print(
        f"criterion 7: deviation {rep.max_deviation:.2e}, order ratio {e1 / e2:.1f}, "
        f"{elapsed:.1f}s"
    )


def test_criterion_8_obstruction_blocks_and_casimir_shift_clears():
    _, _, res = _averaged("obstructed_lift")
    rep = adiabatic_check(res, res.certificate.j)
    assert not rep.is_hamiltonian
    assert rep.dzeta_zero
    assert any(not z.is_zero() for z in rep.zeta)
    _, _, res2 = _averaged("shifted_lift")
    rep2 = adiabatic_check(res2, res2.certificate.j)
    assert rep2.is_hamiltonian
    assert rep2.dzeta_zero
    print("criterion 8: obstruction detected, Casimir shift clears it")


def test_criterion_9_negative_controls_fail_with_witnesses(tmp_path, capsys):
    report = tmp_path / "jacobi.json"
    code = cli.main(
        [
            "check-jacobi",
            "--spec",
            "nonintegrable",
            "--format",
            "json-like",
            "--report",
            str(report),
        ]
    )
    capsys.readouterr()
    assert code == 1
    payload = json.loads(report.read_text())
    jac = next(c for c in payload["checks"] if c["check"] == "JAC")
    assert jac["status"] == "fail"
    assert jac["witness"]["component"] == [0, 1, 3]

    spec = load("nonintegrable")
    frame = graph_of_bivector(spec.tensors["pi"])
    pts = sample_box(spec.chart, spec.get_box(), 6, 109)
    inv = involutivity_check(frame, pts)
    assert not inv.passed
    assert inv.witness is not None
    assert inv.point is not None

    gd = load("nonclosed_sigma").geometric_data()
    _, checks = structure_eq_check(gd)
    by_name = {c.check: c for c in checks}
    assert by_name["SE1"].passed
    assert not by_name["SE2"].passed
    assert by_name["SE2"].witness["triple"] == [0, 1, 2]
    print("criterion 9: all negative controls fail with explicit witnesses")
