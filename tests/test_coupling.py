"""Foliated charts with connections: structure checks and bivector assembly."""

from __future__ import annotations

import pathlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from diracavg import cli, dirac, linalg
from diracavg.averaging import average_coupling
from diracavg.coupling import (
    Connection,
    Foliation,
    GeometricData,
    curvature,
    d10_scalar,
    data_to_dirac,
    data_to_poisson,
    is_horizontal_one_form,
    poisson_to_data,
    q_gauge,
    structure_eq_check,
)
from diracavg.derivation import Derivation
from diracavg.config import PI
from diracavg.dirac import (
    DiracFrame, DiracSection, coupling_test, gauge_transform, involutivity_check, same_span_at,
)
from diracavg.fixtures import FIXTURES, load
from diracavg.modelspec import parse_spec
from diracavg.rings import Poly, RationalFn
from diracavg.sampling import sample_box
from diracavg.tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    apply_vector,
    d_scalar,
    exterior_derivative,
    one_form,
    schouten_bracket,
    vector_field,
)

from conftest import CHART4, default_box, rand_poly, to_sympy_poly

TORUS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "torus.json"


def _flat_gd():
    spec = load("flat")
    return spec.geometric_data()


def _leaf_gd():
    return load("transversal_leaf").geometric_data()


def _verified(gd):
    out, checks = structure_eq_check(gd)
    assert all(c.passed for c in checks), [c.to_dict() for c in checks]
    return out


def test_foliation_partition_validation():
    Foliation(CHART4, (0, 1), (2, 3))
    with pytest.raises(ValueError):
        Foliation(CHART4, (0, 1), (1, 2, 3))
    with pytest.raises(ValueError):
        Foliation(CHART4, (0, 1), (2,))
    with pytest.raises(ValueError):
        Foliation(CHART4, (), (0, 1, 2, 3))


def test_connection_shape_validation():
    fol = Foliation(CHART4, (0, 1), (2, 3))
    Connection(fol, [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        Connection(fol, [[0, 0]])
    with pytest.raises(ValueError):
        Connection(fol, [[0], [0]])


def test_connection_lift_and_coframe_duality():
    # eta_j kills every lift and pairs to 1 with its own fiber direction
    gd = _leaf_gd()
    conn = gd.conn
    fol = conn.fol
    for j in range(fol.f):
        eta = conn.eta(j)
        for i in range(fol.b):
            assert eta.evaluate(conn.lift(i)).is_zero()
        for jj in range(fol.f):
            want = RationalFn.const(1 if jj == j else 0)
            fiber_dir = vector_field(conn.chart, {fol.fiber[jj]: 1})
            assert eta.evaluate(fiber_dir) == want


def test_leaf_connection_lift_components():
    gd = _leaf_gd()
    conn = gd.conn
    # gamma[2][0] = y1: the first lift leans into the third fiber direction
    h0 = conn.lift(0)
    assert h0.component((0,)) == RationalFn.const(1)
    assert h0.component((4,)) == RationalFn.var("y1")
    h1 = conn.lift(1)
    assert h1 == vector_field(conn.chart, {1: 1})


def test_curvature_of_flat_connections_vanishes():
    for name in ("flat", "transversal_leaf"):
        gd = load(name).geometric_data()
        cur = curvature(gd.conn)
        assert cur.vv2.is_zero()


def test_curvature_of_the_rotating_model():
    gd = load("rotating_lift").geometric_data()
    cur = curvature(gd.conn)
    # [h_1, h_2] = [d_x1 + x2 d_y2, d_x2] = -d_y2
    assert cur.on_lifts == {(0, 1): vector_field(CHART4, {3: -1})}


def test_curvature_detects_twisted_connections():
    chart = CHART4
    fol = Foliation(chart, (0, 1), (2, 3))
    x1 = RationalFn.var("x1")
    conn = Connection(fol, [[0, x1], [0, 0]])
    cur = curvature(conn)
    assert not cur.vv2.is_zero()
    # F(h_1, h_2) = [h_1, h_2] is the vertical field d_y1
    val = cur.vv2.evaluate(conn.lift(0), conn.lift(1))
    assert val == vector_field(chart, {2: 1})


def test_d10_matches_lift_application():
    gd = _leaf_gd()
    rng = random.Random(71)
    f = RationalFn.from_poly(rand_poly(rng, gd.conn.chart.coords, 2))
    df = d10_scalar(gd.conn, f)
    fol = gd.conn.fol
    for i in range(fol.b):
        assert df.evaluate(gd.conn.lift(i)) == apply_vector(gd.conn.lift(i), f)
        # it has no fiber-direction legs
    for j in fol.fiber:
        assert df.component((j,)).is_zero()


def test_structure_checks_pass_on_bundled_models():
    for name in ("flat", "rotating_lift", "transversal_leaf", "obstructed_lift", "shifted_lift"):
        gd = load(name).geometric_data()
        out, checks = structure_eq_check(gd)
        assert [c.check for c in checks] == ["SE1", "SE2", "SE3"]
        assert all(c.passed for c in checks)
        assert out.integrable == "verified"


def test_structure_check_rejects_nonpreserved_vertical_bivector():
    chart = CHART4
    fol = Foliation(chart, (0, 1), (2, 3))
    y1 = RationalFn.var("y1")
    gd = GeometricData(
        conn=Connection(fol, [[y1, 0], [0, 0]]),
        sigma=DifferentialForm(chart, 2, {(0, 1): RationalFn.const(1)}),
        p=MultivectorField(chart, 2, {(2, 3): RationalFn.const(1)}),
    )
    _, checks = structure_eq_check(gd)
    by_name = {c.check: c for c in checks}
    assert not by_name["SE1"].passed
    assert by_name["SE1"].witness is not None


def test_structure_check_rejects_nonclosed_sigma():
    gd = load("nonclosed_sigma").geometric_data()
    _, checks = structure_eq_check(gd)
    by_name = {c.check: c for c in checks}
    assert by_name["SE1"].passed
    assert not by_name["SE2"].passed
    assert by_name["SE2"].witness["triple"] == [0, 1, 2]


def test_structure_check_rejects_uncoupled_curvature():
    chart = CHART4
    fol = Foliation(chart, (0, 1), (2, 3))
    x1 = RationalFn.var("x1")
    gd = GeometricData(
        conn=Connection(fol, [[0, x1], [0, 0]]),
        sigma=DifferentialForm(chart, 2, {(0, 1): RationalFn.const(1)}),
        p=MultivectorField(chart, 2, {(2, 3): RationalFn.const(1)}),
    )
    _, checks = structure_eq_check(gd)
    by_name = {c.check: c for c in checks}
    assert by_name["SE1"].passed and by_name["SE2"].passed
    assert not by_name["SE3"].passed


_CHART5 = Chart(("x1", "x2", "y1", "y2", "y3"))
_X1, _X2, _Y1, _Y2, _Y3 = (RationalFn.var(n) for n in _CHART5.coords)
_ONE = RationalFn.const(1)


def _chart5_data(gamma, sigma, p):
    conn = Connection(Foliation(_CHART5, (0, 1), (2, 3, 4)), gamma)
    return GeometricData(conn, DifferentialForm(_CHART5, 2, sigma), MultivectorField(_CHART5, 2, p))


def test_se1_witness_prints_the_residual_components_in_their_order():
    # the witness is repr(t.comps), so the order of the components is part of it
    gd = _chart5_data(
        [[_Y2, 0], [_Y1 * _Y3, _X1], [_Y1, _Y2]],
        {(0, 1): _ONE},
        {(2, 3): _Y3, (2, 4): _ONE, (3, 4): _Y1},
    )
    _, checks = structure_eq_check(gd)
    assert checks[0].check == "SE1" and checks[0].witness == {
        "lift": 0,
        "residual": "{(3, 4): RationalFn(Poly(1*y2)), (2, 4): RationalFn(Poly(-1*y1))}",
    }


def test_se3_witness_prints_both_routes_components_in_their_order():
    gd = _chart5_data(
        [[_X2, _X1 * _X1], [0, _X1], [_X2 * _X2, 0]],
        {(0, 1): _X1 * _Y1 + _Y2 * _Y3},
        {(2, 3): _ONE, (3, 4): _ONE},
    )
    _, checks = structure_eq_check(gd)
    assert [c.passed for c in checks] == [True, True, False]
    assert checks[2].witness == {
        "pair": [0, 1],
        "curvature": "{(2,): RationalFn(Poly(-1 + 2*x1)), (4,): RationalFn(Poly(-2*x2)), "
        "(3,): RationalFn(Poly(1))}",
        "expected": "{(3,): RationalFn(Poly(1*y2 + -1*x1)), (2,): RationalFn(Poly(1*y3)), "
        "(4,): RationalFn(Poly(-1*y3))}",
    }


def test_operations_require_verified_data():
    gd = _flat_gd()
    with pytest.raises(ValueError):
        data_to_poisson(gd)
    data_to_poisson(_verified(gd))


def test_flat_model_assembles_the_standard_bivector():
    gd = _verified(_flat_gd())
    cp = data_to_poisson(gd)
    want = MultivectorField(
        CHART4, 2, {(0, 1): RationalFn.const(1), (2, 3): RationalFn.const(1)}
    )
    assert cp.pi == want


def test_rotating_model_bivector_is_poisson_and_splits():
    gd = _verified(load("rotating_lift").geometric_data())
    cp = data_to_poisson(gd)
    pi = cp.pi
    assert schouten_bracket(pi, pi).is_zero()
    # horizontal block carries 1/(1 + y1), vertical block is P
    assert pi.component((2, 3)) == RationalFn.const(1)
    one = RationalFn.const(1)
    y1 = RationalFn.var("y1")
    assert pi.component((0, 1)) == one / (one + y1)


def test_poisson_data_round_trip():
    for name in ("flat", "rotating_lift", "transversal_leaf"):
        gd = _verified(load(name).geometric_data())
        cp = data_to_poisson(gd)
        back = poisson_to_data(cp.pi, gd.conn.fol)
        assert back.conn == gd.conn
        assert back.sigma == gd.sigma
        assert back.p == gd.p


def test_poisson_to_data_rejects_nonintegrable_input():
    y1 = RationalFn.var("y1")
    pi = MultivectorField(CHART4, 2, {(0, 3): y1, (1, 2): RationalFn.const(1)})
    fol = Foliation(CHART4, (0, 1), (2, 3))
    with pytest.raises(ValueError):
        poisson_to_data(pi, fol)


def test_fiberwise_bracket():
    gd = _flat_gd()
    y1 = RationalFn.var("y1")
    y2 = RationalFn.var("y2")
    assert gd.p_bracket(y1, y2) == RationalFn.const(1)
    assert gd.p_bracket(y2, y1) == RationalFn.const(-1)
    assert gd.p_bracket(y1, RationalFn.var("x1")).is_zero()


def test_dirac_frame_of_data_is_involutive_and_matches_the_graph():
    gd = _verified(load("rotating_lift").geometric_data())
    frame = data_to_dirac(gd)
    pts = sample_box(gd.conn.chart, default_box(gd.conn.chart), 6, 72)
    assert frame.validate_rank(pts).passed
    assert involutivity_check(frame, pts).passed
    graph = gauge_transform(frame, DifferentialForm.zero(gd.conn.chart, 2))
    cp = data_to_poisson(gd)
    from diracavg.dirac import graph_of_bivector

    g2 = graph_of_bivector(cp.pi)
    for p in pts[:4]:
        assert same_span_at(frame, g2, p)


def test_horizontal_form_predicate():
    gd = _flat_gd()
    assert is_horizontal_one_form(one_form(CHART4, {0: RationalFn.var("y1")}), gd.conn)
    assert not is_horizontal_one_form(one_form(CHART4, {2: RationalFn.const(1)}), gd.conn)


def test_q_gauge_preserves_structure_and_frame_span():
    gd = _verified(load("rotating_lift").geometric_data())
    rng = random.Random(73)
    chart = gd.conn.chart
    q = one_form(
        chart,
        {
            0: RationalFn.from_poly(rand_poly(rng, chart.coords, 1)),
            1: RationalFn.from_poly(rand_poly(rng, chart.coords, 1)),
        },
    )
    out = q_gauge(gd, q)
    _, checks = structure_eq_check(out)
    assert all(c.passed for c in checks)
    # the new frame spans the gauge transform of the old one by -dQ
    before = data_to_dirac(gd)
    after = data_to_dirac(out)
    moved = gauge_transform(before, -exterior_derivative(q))
    pts = sample_box(chart, default_box(chart), 8, 74)
    for p in pts:
        assert same_span_at(after, moved, p)


def test_q_gauge_rejects_vertical_legs():
    gd = _verified(_flat_gd())
    q = one_form(CHART4, {2: RationalFn.const(1)})
    with pytest.raises(ValueError):
        q_gauge(gd, q)


def test_bundled_models_derive_reduced_bivectors():
    sympy = pytest.importorskip("sympy")
    specs = {name: load(name) for name in FIXTURES}
    specs["torus"] = parse_spec(str(TORUS))
    sizes = {}
    for name, spec in specs.items():
        if "pi" in spec.tensors:
            continue
        gd, checks = structure_eq_check(spec.geometric_data())
        if not all(c.passed for c in checks):
            continue
        for v in data_to_poisson(gd).pi.comps.values():
            if v.is_poly():
                continue
            sizes.setdefault(name, []).append((len(v.num.terms), len(v.den.terms)))
            names = sorted(set(v.num.vars) | set(v.den.vars))
            ring = sympy.ring([sympy.Symbol(n) for n in names], sympy.QQ)[0]
            num, den = (to_sympy_poly(ring, p) for p in (v.num, v.den))
            assert num.gcd(den).is_ground
    # numerator and denominator terms of each non-polynomial entry
    assert sizes == {"rotating_lift": [(1, 2)] * 2, "torus": [(1, 3)] * 4}


def _ranks_agree(frame, points):
    """Assert the frame's kept rank equals the rank elimination finds in its
    rows, point by point; returns the number of points with finite rows."""
    finite = 0
    for p in points:
        try:
            rows = frame.matrix_at(p)
        except ZeroDivisionError:
            continue
        assert frame.rank_at(p) == linalg.rank(rows), p
        finite += 1
    return finite


@pytest.mark.parametrize("name", [n for n in FIXTURES if load(n).connection is not None] + ["torus"])
def test_coupling_frames_and_gt1_gauge_keep_the_rank_elimination_finds(name):
    spec = parse_spec(str(TORUS)) if name == "torus" else load(name)
    d = Derivation()
    gd, _checks = structure_eq_check(spec.geometric_data())
    # the block argument reads no structure equation, so failing data counts too
    frame = d.dirac(replace(gd, integrable="verified"))
    assert frame.poles == ()
    points = sample_box(spec.chart, spec.get_box(), 50, spec.seed)
    assert _ranks_agree(frame, points) >= 40
    if gd.integrable != "verified" or spec.action is None:
        return
    cert, _failures = cli._certificate(spec, d)
    res = average_coupling(gd, cert, derivation=d)
    # GT1: the averaged frame against the gauge transform of the source frame
    after = d.dirac(res.data)
    gauged = gauge_transform(frame, -exterior_derivative(res.q))
    assert after.poles == () and gauged.poles is not None
    assert _ranks_agree(after, points) >= 40 and _ranks_agree(gauged, points) >= 40


def test_a_coupling_frame_with_a_non_vertical_p_is_ranked_by_elimination(monkeypatch):
    fol = Foliation(CHART4, (0, 1), (2, 3))
    vertical = MultivectorField(CHART4, 2, {(2, 3): RationalFn.const(1)})
    gd = _verified(GeometricData(Connection(fol, [[0, 0], [0, 0]]),
                                 DifferentialForm.zero(CHART4, 2), vertical))
    assert data_to_dirac(gd).poles == ()
    # a base leg, set past the constructor's check, gives P# eta_1 a base component
    gd.p = vertical + MultivectorField(CHART4, 2, {(0, 2): RationalFn.var("y2")})
    frame = data_to_dirac(gd)
    assert frame.poles is None
    points = sample_box(CHART4, default_box(CHART4), 50, 73)
    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda a: calls.append(a) or real(a))
    ranks = [frame.rank_at(p) for p in points]
    assert len(calls) == len(points) and ranks == [4] * len(points)
    monkeypatch.undo()
    assert _ranks_agree(frame, points) == len(points)


# -- the coupling probe: one determinant per frame ---------------------------


def _outcomes(probe, points):
    """The probe's verdict at each point, "skip" where the sweep skips it."""
    out = []
    for p in points:
        try:
            out.append(probe(p))
        except ArithmeticError:
            out.append("skip")
    return out


def _probe_outcomes(frame, conn, points):
    """``coupling_test``'s own probe, point by point."""
    probes = []
    real = dirac.sweep
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dirac, "sweep", lambda pts, probe: probes.append(probe) or real(pts, probe))
        coupling_test(frame, conn, points)
    probe, = probes
    return _outcomes(probe, points)


def _rank_outcomes(frame, conn, points):
    """The elimination the probe replaced: H's rows at the point stacked on
    the fiber fields' have rank n, H being the vectors of the sections whose
    covectors annihilate the verticals."""
    n = frame.chart.dim
    rows = [[s.covector.comps.get((fi,), RationalFn.zero()) for s in frame.sections]
            for fi in conn.fol.fiber]
    h_fields = [sum((s.vector.scale(c) for s, c in zip(frame.sections, combo) if c),
                    MultivectorField.zero(frame.chart, 1)) for combo in linalg.kernel_basis(rows)]
    assert len(h_fields) == conn.fol.b
    h_rows = [[h.comps.get((i,), RationalFn.zero()) for i in range(n)] for h in h_fields]
    v_rows = [[Fraction(int(i == j)) for i in range(n)] for j in conn.fol.fiber]
    return _outcomes(
        lambda p: linalg.rank([[x.value_at(p) for x in row] for row in h_rows] + v_rows) == n,
        points)


@pytest.mark.parametrize("name", [n for n in FIXTURES if load(n).connection is not None] + ["torus"])
def test_the_coupling_probe_decides_each_point_as_the_rank_of_h_plus_v(name):
    spec = parse_spec(str(TORUS)) if name == "torus" else load(name)
    d = Derivation()
    gd, _checks = structure_eq_check(spec.geometric_data())
    gd = replace(gd, integrable="verified")
    points = sample_box(spec.chart, spec.get_box(), 50, spec.seed)
    cases = [(d.dirac(gd), gd.conn)]
    if spec.action is not None:
        cert, _failures = cli._certificate(spec, d)
        data = average_coupling(gd, cert, derivation=d).data
        cases.append((d.dirac(data), data.conn))
    for frame, conn in cases:
        got = _probe_outcomes(frame, conn, points)
        assert got == _rank_outcomes(frame, conn, points)
        assert got.count(True) >= 40


def _two_field_frame(x1, x2):
    """On CHART4 with fiber (y1, y2): sections (X_i, 0) and (0, dy_j), so H
    is spanned by the X_i, which must have no fiber components."""
    fol = Foliation(CHART4, (0, 1), (2, 3))
    frame = DiracFrame(
        [DiracSection(vector_field(CHART4, x), DifferentialForm.zero(CHART4, 1)) for x in (x1, x2)]
        + [DiracSection(MultivectorField.zero(CHART4, 1), one_form(CHART4, {j: 1})) for j in (2, 3)]
    )
    return frame, Connection(fol, [[0, 0], [0, 0]])


def _points_at_x1(*values):
    return [{"x1": Fraction(v), "x2": Fraction(1, 2), "y1": Fraction(-1, 3), "y2": Fraction(2)}
            for v in values]


def test_a_pole_of_h_that_the_determinant_cancels_still_skips_the_point():
    x1, one = RationalFn.var("x1"), RationalFn.const(1)
    # det [[1 + 1/x1, 1/x1], [1, 1]] = 1, finite at x1 = 0
    frame, conn = _two_field_frame({0: one + one / x1, 1: one / x1}, {0: one, 1: one})
    assert linalg.det([[one + one / x1, one / x1], [one, one]]) == one
    points = _points_at_x1(1, 0, Fraction(-1, 2))
    want = [True, "skip", True]
    assert _probe_outcomes(frame, conn, points) == _rank_outcomes(frame, conn, points) == want
    check, h = coupling_test(frame, conn, points)
    assert check.passed is False and check.info == {"usable": 2, "total": 3}
    assert check.witness is not None and h is None


def test_the_coupling_probe_decides_rows_that_keep_pi():
    x1, pi, one = RationalFn.var("x1"), RationalFn.var(PI), RationalFn.const(1)
    points = _points_at_x1(1, 0, Fraction(-1, 2), Fraction(3, 7))
    # det = @pi x1, zero only at x1 = 0
    frame, conn = _two_field_frame({0: pi * x1, 1: one}, {1: one})
    want = [True, False, True, True]
    assert _probe_outcomes(frame, conn, points) == _rank_outcomes(frame, conn, points) == want
    # det = @pi, with a pole in Q(@pi) at x1 = 1
    frame, conn = _two_field_frame({0: one, 1: x1 / (pi * x1 - pi)}, {1: pi})
    want = ["skip", True, True, True]
    assert _probe_outcomes(frame, conn, points) == _rank_outcomes(frame, conn, points) == want
