"""Circle and torus averaging: flow pullbacks, Haar means, homotopy kernel."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracavg.actions import CircleAction, TorusAction, angle_vars, lie_vv1
from diracavg.config import PI
from diracavg.rings import Poly, RationalFn, TrigPoly
from diracavg.tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    VectorValued1Form,
    apply_vector,
    lie_derivative,
    one_form,
    sort_with_sign,
    vector_field,
)

from conftest import CHART2, CHART4, lie_along, rand_poly


def _rot2():
    return CircleAction(CHART2, [(0, 1, 1)])


def _rot4():
    # rotate the second plane of the 4-chart, weight 1
    return CircleAction(CHART4, [(2, 3, 1)])


def _at_time(p: Poly, t: float, point, weight: int = 1) -> float:
    """A pulled-back polynomial at a point, with the angle variables of the
    weight bound to cos(wt) and sin(wt)."""
    c, s = angle_vars(weight)
    return p.eval_float({**point, c: math.cos(weight * t), s: math.sin(weight * t)})


def test_plane_validation():
    with pytest.raises(ValueError):
        CircleAction(CHART2, [(0, 0, 1)])
    with pytest.raises(ValueError):
        CircleAction(CHART2, [(0, 5, 1)])
    with pytest.raises(ValueError):
        CircleAction(CHART4, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError):
        CircleAction(CHART2, [(0, 1, 0)])
    # the empty action is the identity flow
    triv = CircleAction(CHART2, [])
    f = RationalFn.var("x")
    assert triv.average(f) == f
    assert triv.generator().is_zero()


def test_coordinate_pullback_matches_a_rotation_matrix():
    circ = _rot2()
    rng = random.Random(51)
    px = circ.pullback_poly(Poly.var("x"))
    py = circ.pullback_poly(Poly.var("y"))
    for _ in range(10):
        t = rng.uniform(0, 2 * math.pi)
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        pt = {"x": x, "y": y}
        assert _at_time(px, t, pt) == pytest.approx(x * math.cos(t) - y * math.sin(t), abs=1e-12)
        assert _at_time(py, t, pt) == pytest.approx(x * math.sin(t) + y * math.cos(t), abs=1e-12)


def test_weighted_plane_spins_faster():
    circ = CircleAction(CHART2, [(0, 1, 3)])
    px = circ.pullback_poly(Poly.var("x"))
    assert _at_time(px, 0.5, {"x": 1.0, "y": 0.0}, 3) == pytest.approx(math.cos(1.5), abs=1e-12)


def test_generator_is_the_flow_derivative_at_zero():
    circ = CircleAction(CHART4, [(2, 3, 2)])
    gen = circ.generator()
    assert circ.generator() is gen
    rng = random.Random(52)
    f = RationalFn.from_poly(rand_poly(rng, CHART4.coords, 2))
    pulled, den = circ.pullback_flow(f)
    assert den == Poly.const(1)
    pt = {n: rng.uniform(-1, 1) for n in CHART4.coords}
    eps = 1e-6
    num = (_at_time(pulled, eps, pt, 2) - _at_time(pulled, -eps, pt, 2)) / (2 * eps)
    assert apply_vector(gen, f).eval_float(pt) == pytest.approx(num, abs=1e-5)


def test_invariant_scalars_are_fixed_by_averaging():
    circ = _rot2()
    r2 = RationalFn.var("x") * RationalFn.var("x") + RationalFn.var("y") * RationalFn.var("y")
    assert circ.is_invariant_scalar(r2)
    assert circ.average(r2) == r2
    assert not circ.is_invariant_scalar(RationalFn.var("x"))
    assert circ.average(RationalFn.var("x")).is_zero()


def test_average_of_a_squared_coordinate():
    # <x^2> under a plane rotation is (x^2 + y^2)/2
    circ = _rot2()
    x2 = RationalFn.var("x") * RationalFn.var("x")
    y2 = RationalFn.var("y") * RationalFn.var("y")
    assert circ.average(x2) == (x2 + y2).scale(Fraction(1, 2))


def test_average_is_idempotent_and_invariant():
    rng = random.Random(53)
    circ = _rot4()
    for _ in range(6):
        f = RationalFn.from_poly(rand_poly(rng, CHART4.coords, 2))
        avg = circ.average(f)
        assert circ.average(avg) == avg
        assert lie_along(circ, avg).is_zero()
    w = DifferentialForm(
        CHART4,
        2,
        {(0, 2): RationalFn.from_poly(rand_poly(rng, CHART4.coords, 2))},
    )
    avg_w = circ.average(w)
    assert circ.average(avg_w) == avg_w
    assert lie_along(circ, avg_w).is_zero()


def test_homotopy_kernel_on_invariant_input_scales_by_pi():
    circ = _rot2()
    r2 = RationalFn.var("x") * RationalFn.var("x") + RationalFn.var("y") * RationalFn.var("y")
    got = circ.delta_g(r2)
    assert got == r2 * RationalFn.var(PI)


def test_averaging_representation_identity_on_random_tensors():
    # <T> = T + delta(L_a T) for scalars, forms and multivectors
    import itertools

    rng = random.Random(54)
    circ = _rot4()
    for _ in range(8):
        kind = rng.choice(("scalar", "form1", "form2", "mv1", "mv2", "vv1"))
        if kind == "scalar":
            t = RationalFn.from_poly(rand_poly(rng, CHART4.coords, 2))
        elif kind == "vv1":
            t = VectorValued1Form(
                CHART4,
                [[RationalFn.from_poly(rand_poly(rng, CHART4.coords, 1)) for _ in range(4)] for _ in range(4)],
            )
        else:
            cls = DifferentialForm if kind.startswith("form") else MultivectorField
            deg = int(kind[-1])
            comps = {
                idx: RationalFn.from_poly(rand_poly(rng, CHART4.coords, 2))
                for idx in itertools.combinations(range(4), deg)
                if rng.random() < 0.7
            }
            t = cls(CHART4, deg, comps)
        lhs = circ.average(t)
        rhs = t + circ.delta_g(lie_along(circ, t))
        if isinstance(t, RationalFn):
            assert (lhs - rhs).is_zero()
        else:
            assert lhs == rhs


def test_noninvariant_denominator_is_rejected():
    circ = _rot2()
    bad = RationalFn(Poly.const(1), Poly.const(1) + Poly.var("x"))
    with pytest.raises(ValueError):
        circ.average(bad)
    # an invariant denominator is fine
    den = Poly.const(1) + Poly.var("x") ** 2 + Poly.var("y") ** 2
    ok = RationalFn(Poly.var("x"), den)
    assert circ.average(ok).is_zero()


def test_form_average_known_value():
    # <dx> under rotation: pull back dx = cos t dx - sin t dy, mean 0
    circ = _rot2()
    dx = DifferentialForm.basis(CHART2, (0,))
    assert circ.average(dx).is_zero()
    # x dx + y dy is invariant
    a = one_form(CHART2, {0: RationalFn.var("x"), 1: RationalFn.var("y")})
    assert circ.average(a) == a


def test_vector_average_known_value():
    circ = _rot2()
    gen = circ.generator()
    assert circ.average(gen) == gen
    ex = vector_field(CHART2, {0: 1})
    assert circ.average(ex).is_zero()


def test_torus_action_generators_and_average():
    c1 = CircleAction(CHART4, [(0, 1, 1)])
    c2 = CircleAction(CHART4, [(2, 3, 1)])
    torus = TorusAction([c1, c2])
    assert torus.circles == (c1, c2)
    rng = random.Random(55)
    f = RationalFn.from_poly(rand_poly(rng, CHART4.coords, 2))
    avg = torus.average(f)
    # the iterated average is invariant under both circles and order-free
    assert c1.average(avg) == avg
    assert c2.average(avg) == avg
    assert torus.average(avg) == avg
    assert c2.average(c1.average(f)) == c1.average(c2.average(f))


def test_torus_requires_common_chart():
    c1 = CircleAction(CHART4, [(0, 1, 1)])
    c2 = CircleAction(CHART2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        TorusAction([c1, c2])
    with pytest.raises(ValueError):
        TorusAction([])


def test_lie_vv1_matches_columnwise_commutators():
    # L_a K on the identity vanishes for any generator
    circ = _rot4()
    gen = circ.generator()
    ident = VectorValued1Form(CHART4, [[int(i == j) for j in range(4)] for i in range(4)])
    assert all(x.is_zero() for row in lie_vv1(gen, ident).matrix for x in row)


# -- the trig-polynomial route, kept as the oracle -------------------------
#
# The route the package took before angle variables: every component a
# TrigPoly in the flow time, averaged by its mode-0 cosine coefficient and
# its weighted moment.  The new route must give the same tensors, with
# the same components in the same order.


def _trig_scaled(g: TrigPoly, p: Poly) -> TrigPoly:
    return TrigPoly({m: q * p for m, q in g.terms.items()})


def _trig_entry_add(a, b):
    (na, da), (nb, db) = a, b
    if da == db:
        return na + nb, da
    return _trig_scaled(na, db) + _trig_scaled(nb, da), da * db


def _trig_rows(circ: CircleAction):
    one = Poly.const(1)
    rows = {k: [(k, TrigPoly.const_poly(one))] for k in range(circ.chart.dim)}
    for (i, j, w) in circ.planes:
        cos_w, sin_w = TrigPoly.cosine(w, one), TrigPoly.sine(w, one)
        rows[i] = [(i, cos_w), (j, _trig_scaled(sin_w, Poly.const(-1)))]
        rows[j] = [(i, sin_w), (j, cos_w)]
    return rows


def _trig_pullback_poly(circ: CircleAction, rows, p: Poly) -> TrigPoly:
    coords = circ.chart.coords

    def pull(name: str) -> TrigPoly:
        if name == PI:
            return TrigPoly.const_poly(Poly.var(PI))
        acc = TrigPoly.zero()
        for (m, trig) in rows[coords.index(name)]:
            acc = acc + _trig_scaled(trig, Poly.var(coords[m]))
        return acc

    total = TrigPoly.zero()
    for exps, coeff in p.terms.items():
        term = TrigPoly.const_poly(Poly.const(coeff))
        for name, e in zip(p.vars, exps):
            if e:
                term = term * pull(name) ** e
        total = total + term
    return total


def _trig_integral(entry, delta: bool) -> RationalFn:
    g, den = entry
    if delta:
        return RationalFn(g.weighted_moment() + Poly.var(PI) * g.mean(), den)
    return RationalFn(g.mean(), den)


def _trig_integrate(circ: CircleAction, t, delta: bool):
    """The mean or delta of t by the trig-polynomial route."""
    rows = _trig_rows(circ)
    n = circ.chart.dim

    def pull(f: RationalFn):
        return _trig_pullback_poly(circ, rows, f.num), f.den

    if isinstance(t, RationalFn):
        return _trig_integral(pull(t), delta)
    if isinstance(t, VectorValued1Form):
        # R(t)^{-1} (K o Fl^t) R(t); R^{-1} entries are R(-t) entries
        one = TrigPoly.const_poly(Poly.const(1))
        zero = TrigPoly.zero()
        rot = [[one if i == j else zero for j in range(n)] for i in range(n)]
        inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for (i, j, w) in circ.planes:
            c, s = TrigPoly.cosine(w, Poly.const(1)), TrigPoly.sine(w, Poly.const(1))
            neg_s = _trig_scaled(s, Poly.const(-1))
            rot[i][i], rot[i][j], rot[j][i], rot[j][j] = c, neg_s, s, c
            inv[i][i], inv[i][j], inv[j][i], inv[j][j] = c, s, neg_s, c
        pulled = [[pull(t.matrix[a][b]) for b in range(n)] for a in range(n)]
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = (TrigPoly.zero(), Poly.const(1))
                for a in range(n):
                    for b in range(n):
                        g, d = pulled[a][b]
                        if inv[i][a].terms and rot[b][j].terms and g.terms:
                            acc = _trig_entry_add(acc, (inv[i][a] * g * rot[b][j], d))
                out[i][j] = _trig_integral(acc, delta)
        return VectorValued1Form(circ.chart, out)
    out = {}
    for idx, val in t.comps.items():
        coeff = pull(val)
        legs = {(): TrigPoly.const_poly(Poly.const(1))}
        for k in idx:
            nxt = {}
            for part, tp in legs.items():
                for (m, row_tp) in rows[k]:
                    srt, sign = sort_with_sign(part + (m,))
                    if srt is None:
                        continue
                    term = tp * row_tp
                    if sign == -1:
                        term = _trig_scaled(term, Poly.const(-1))
                    cur = nxt.get(srt)
                    nxt[srt] = term if cur is None else cur + term
            legs = {i: v for i, v in nxt.items() if v.terms}
        for part, tp in legs.items():
            entry = (tp * coeff[0], coeff[1])
            cur = out.get(part)
            out[part] = entry if cur is None else _trig_entry_add(cur, entry)
    comps = {idx: _trig_integral(e, delta) for idx, e in out.items() if e[0].terms}
    return type(t)(circ.chart, t.degree, comps)


CHART6 = Chart(("x1", "x2", "y1", "y2", "y3", "y4"))

# (chart, planes of one circle): single planes of several weights, in both
# orientations, one circle with two weights, and the torus model's circles
ACTIONS = (
    [(CHART4, [(2, 3, w)]) for w in (1, 2, 3, 40, 2 ** 40)]
    + [(CHART4, [(3, 2, 2)]), (CHART4, [(1, 0, 1), (2, 3, 2)]), (CHART4, [(0, 2, 1), (3, 1, 2)])]
    + [(CHART6, [(2, 3, 1)]), (CHART6, [(4, 5, 1)])]
)

coeffs_st = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def polys_st(draw, names, max_degree: int = 2):
    """A polynomial of a few terms in the names, sometimes with @pi."""
    p = Poly.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = Poly.const(draw(coeffs_st))
        for _ in range(draw(st.integers(0, max_degree))):
            term = term * Poly.var(draw(st.sampled_from(names)))
        if draw(st.integers(0, 5)) == 0:
            term = term * Poly.var(PI)
        p = p + term
    return p


@st.composite
def averaged_st(draw):
    """An action and a tensor of any supported kind, whose entries have
    denominators invariant under the action."""
    chart, planes = draw(st.sampled_from(ACTIONS))
    circ = CircleAction(chart, planes)
    names = chart.coords
    radii = [Poly.var(names[i]) ** 2 + Poly.var(names[j]) ** 2 for (i, j, _w) in planes]
    dens = [Poly.const(1), radii[0], radii[-1] + Poly.const(1), radii[0] * radii[-1]]

    def entry(max_degree: int) -> RationalFn:
        return RationalFn(draw(polys_st(names, max_degree)), draw(st.sampled_from(dens)))

    kind = draw(st.sampled_from(("scalar", "form1", "form2", "mv1", "mv2", "vv1")))
    n = chart.dim
    if kind == "scalar":
        t = entry(3)
    elif kind == "vv1":
        t = VectorValued1Form(chart, [[entry(1) for _ in range(n)] for _ in range(n)])
    else:
        cls = DifferentialForm if kind.startswith("form") else MultivectorField
        deg = int(kind[-1])
        idxs = list(itertools.combinations(range(n), deg))
        chosen = draw(st.lists(st.sampled_from(idxs), min_size=1, max_size=4, unique=True))
        t = cls(chart, deg, {idx: entry(2) for idx in chosen})
    return circ, t


def _assert_same(got, want) -> None:
    if isinstance(want, VectorValued1Form):
        assert got.matrix == want.matrix
    elif isinstance(want, RationalFn):
        assert got == want
    else:
        assert type(got) is type(want) and got.degree == want.degree
        assert list(got.comps.items()) == list(want.comps.items())


@settings(max_examples=120, deadline=None, derandomize=True)
@given(averaged_st())
def test_average_and_delta_match_the_trig_polynomial_route(case):
    circ, t = case
    for delta in (False, True):
        got = circ.delta_g(t) if delta else circ.average(t)
        _assert_same(got, _trig_integrate(circ, t, delta))


def test_torus_average_matches_the_trig_polynomial_route():
    circles = [CircleAction(CHART6, [(2, 3, 1)]), CircleAction(CHART6, [(4, 5, 1)])]
    torus = TorusAction(circles)
    rng = random.Random(56)
    for _ in range(4):
        comps = {
            idx: RationalFn.from_poly(rand_poly(rng, CHART6.coords, 2))
            for idx in itertools.combinations(range(6), 2)
            if rng.random() < 0.3
        }
        w = DifferentialForm(CHART6, 2, comps)
        want = w
        for c in circles:
            want = _trig_integrate(c, want, False)
        _assert_same(torus.average(w), want)


def _angle_shape(circ: CircleAction, weight: int, t):
    """(term count, degree in the weight's angle variables) per pulled-back entry."""
    names = set(angle_vars(weight))
    pulled = circ.pullback_flow(t)
    entries = [pulled] if isinstance(t, RationalFn) else list(pulled.values())
    return [
        (len(num.terms), max(sum(e for v, e in zip(num.vars, exps) if v in names) for exps in num.terms))
        for num, _den in entries
    ]


def test_a_large_weight_pulls_back_to_the_same_shape_as_weight_one():
    # cos(wt) and sin(wt) are variables of their own, so the pullback does
    # not grow with the weight
    rng = random.Random(57)
    f = RationalFn.from_poly(rand_poly(rng, CHART4.coords, 3, 5))
    w = DifferentialForm(
        CHART4,
        2,
        {idx: RationalFn.from_poly(rand_poly(rng, CHART4.coords, 2)) for idx in ((0, 2), (1, 3), (2, 3))},
    )
    for t in (f, w):
        one = _angle_shape(CircleAction(CHART4, [(2, 3, 1)]), 1, t)
        big = _angle_shape(CircleAction(CHART4, [(2, 3, 2 ** 40)]), 2 ** 40, t)
        assert one == big
        assert all(degree > 0 for _count, degree in one)
