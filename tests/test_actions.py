"""Circle and torus averaging: flow pullbacks, Haar means, homotopy kernel."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from diracavg.actions import CircleAction, TorusAction, lie_vv1
from diracavg.config import PI
from diracavg.rings import Poly, RationalFn
from diracavg.tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    VectorValued1Form,
    apply_vector,
    lie_derivative,
    one_form,
    vector_field,
)

from conftest import CHART2, CHART4, lie_along, rand_poly


def _rot2():
    return CircleAction(CHART2, [(0, 1, 1)])


def _rot4():
    # rotate the second plane of the 4-chart, weight 1
    return CircleAction(CHART4, [(2, 3, 1)])


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
        assert px.eval_float(t, pt) == pytest.approx(x * math.cos(t) - y * math.sin(t), abs=1e-12)
        assert py.eval_float(t, pt) == pytest.approx(x * math.sin(t) + y * math.cos(t), abs=1e-12)


def test_weighted_plane_spins_faster():
    circ = CircleAction(CHART2, [(0, 1, 3)])
    px = circ.pullback_poly(Poly.var("x"))
    assert px.eval_float(0.5, {"x": 1.0, "y": 0.0}) == pytest.approx(math.cos(1.5), abs=1e-12)


def test_generator_is_the_flow_derivative_at_zero():
    circ = CircleAction(CHART4, [(2, 3, 2)])
    gen = circ.generator()
    rng = random.Random(52)
    f = RationalFn.from_poly(rand_poly(rng, CHART4.coords, 2))
    pulled = circ.pullback_flow(f)
    pt = {n: rng.uniform(-1, 1) for n in CHART4.coords}
    eps = 1e-6
    num = (pulled.eval_float(eps, pt)[()] - pulled.eval_float(-eps, pt)[()]) / (2 * eps)
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
