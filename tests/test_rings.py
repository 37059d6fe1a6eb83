"""Exact polynomial, rational-function and Fourier-coefficient arithmetic."""

from __future__ import annotations

import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracavg.config import PI
from diracavg.rings import (
    Poly,
    QPi,
    RationalFn,
    TrigPoly,
    parse_fraction,
    poly_divmod_exact,
    qpi,
)

from conftest import eval_frac, rand_poly, rand_rational, to_sympy_poly


fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def polys(draw, max_terms=4, max_exp=3):
    terms = draw(
        st.lists(
            st.tuples(fractions_st, st.integers(0, max_exp), st.integers(0, max_exp)),
            max_size=max_terms,
        )
    )
    p = Poly.zero()
    for c, ex, ey in terms:
        p = p + (Poly.var("x") ** ex) * (Poly.var("y") ** ey).scale(c)
    return p


POINT = {"x": Fraction(1, 2), "y": Fraction(-2, 3)}


def _value(p: Poly) -> Fraction:
    v = eval_frac(p, POINT)
    assert v.is_const()
    return v.const_value()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys(), polys(), polys())
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    assert a + Poly.zero() == a
    assert a * Poly.const(1) == a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys(), polys())
def test_poly_evaluation_is_a_homomorphism(a, b):
    assert _value(a * b) == _value(a) * _value(b)
    assert _value(a + b) == _value(a) + _value(b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys(), polys())
def test_poly_diff_product_rule(a, b):
    assert (a * b).diff("x") == a.diff("x") * b + a * b.diff("x")
    assert (a + b).diff("y") == a.diff("y") + b.diff("y")


def test_poly_basics():
    x, y = Poly.var("x"), Poly.var("y")
    assert (x + y) ** 2 == x * x + x * y.scale(2) + y * y
    assert x ** 0 == Poly.const(1)
    assert Poly.const(0).is_zero()
    assert Poly.const(Fraction(3, 4)).const_value() == Fraction(3, 4)
    assert x.diff("x") == Poly.const(1)
    assert x.diff("y").is_zero()


def test_poly_partial_evaluation_keeps_remaining_variables():
    x, y = Poly.var("x"), Poly.var("y")
    p = x * y + y ** 2
    got = eval_frac(p, {"x": Fraction(2)})
    assert got == y.scale(2) + y ** 2


def test_pi_symbol_is_formal_until_float_evaluation():
    p = Poly.var(PI) * Poly.var("x")
    kept = eval_frac(p, {"x": Fraction(3)})
    assert kept == Poly.var(PI).scale(3)
    assert p.eval_float({"x": 1.0}) == pytest.approx(math.pi)


def test_rational_equality_uses_cross_multiplication():
    x = Poly.var("x")
    a = RationalFn(x ** 2 - Poly.const(1), x - Poly.const(1))
    b = RationalFn(x + Poly.const(1), Poly.const(1))
    assert a == b
    assert a.den.is_const()


def test_rational_arithmetic_and_inverse():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_rational(rng, ("x", "y"))
        b = rand_rational(rng, ("x", "y"))
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a / b) * b == a
            assert b * b.inverse() == RationalFn.const(1)
    with pytest.raises(ZeroDivisionError):
        RationalFn.const(1) / RationalFn.zero()
    with pytest.raises(ZeroDivisionError):
        RationalFn.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        RationalFn(Poly.const(1), Poly.zero())


def test_rational_diff_quotient_rule():
    rng = random.Random(12)
    for _ in range(15):
        a = rand_rational(rng, ("x", "y"))
        b = rand_rational(rng, ("x", "y"))
        assert (a * b).diff("x") == a.diff("x") * b + a * b.diff("x")


def test_rational_evaluation():
    x = Poly.var("x")
    f = RationalFn(x + Poly.const(1), x - Poly.const(2))
    got = eval_frac(f, {"x": Fraction(1, 2)})
    assert got.const_value() == Fraction(-1)
    assert f.eval_float({"x": 0.5}) == pytest.approx(-1.0)


def test_parse_fraction():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-2") == Fraction(-2)
    assert parse_fraction("+5/1") == Fraction(5)
    for bad in ("1.5", "a", "1/2/3", "", "2/", "--3"):
        with pytest.raises(ValueError):
            parse_fraction(bad)


# -- Fourier-coefficient polynomials --------------------------------------


def _one() -> Poly:
    return Poly.const(1)


def test_trig_products_match_float_samples():
    rng = random.Random(13)
    cases = [
        (TrigPoly.cosine(2, _one()), TrigPoly.cosine(3, _one()), lambda t: math.cos(2 * t) * math.cos(3 * t)),
        (TrigPoly.sine(1, _one()), TrigPoly.sine(4, _one()), lambda t: math.sin(t) * math.sin(4 * t)),
        (TrigPoly.cosine(2, _one()), TrigPoly.sine(2, _one()), lambda t: math.cos(2 * t) * math.sin(2 * t)),
    ]
    for a, b, ref in cases:
        prod = a * b
        for _ in range(12):
            t = rng.uniform(0.0, 2.0 * math.pi)
            assert prod.eval_float(t, {}) == pytest.approx(ref(t), abs=1e-12)


def test_trig_powers_and_periodicity():
    g = TrigPoly.cosine(1, _one()) + TrigPoly.sine(2, Poly.var("x"))
    cube = g ** 3
    t = 1.234
    pt = {"x": 0.7}
    assert cube.eval_float(t, pt) == pytest.approx(g.eval_float(t, pt) ** 3, abs=1e-12)
    assert cube.eval_float(2 * math.pi, pt) == pytest.approx(cube.eval_float(0.0, pt), abs=1e-12)


def test_trig_mean_closed_forms():
    x = Poly.var("x")
    g = TrigPoly.const_poly(x) + TrigPoly.cosine(3, _one()) + TrigPoly.sine(2, _one())
    assert g.mean() == x
    # cos(kt)**2 has mean 1/2
    sq = TrigPoly.cosine(4, _one()) * TrigPoly.cosine(4, _one())
    assert sq.mean() == Poly.const(Fraction(1, 2))


def test_trig_weighted_moment_closed_forms():
    # the weight kills cosines and keeps sin(kt) with coefficient 1/k
    g = TrigPoly.sine(3, Poly.const(6)) + TrigPoly.cosine(2, Poly.var("x")) + TrigPoly.const_poly(Poly.var("y"))
    assert g.weighted_moment() == Poly.const(2)


def test_trig_weighted_moment_matches_quadrature():
    rng = random.Random(14)
    for _ in range(10):
        g = TrigPoly.zero()
        for _ in range(4):
            k = rng.randint(0, 4)
            coeff = rand_poly(rng, ("x",), 1, 2)
            g = g + (TrigPoly.cosine(k, coeff) if rng.random() < 0.5 else TrigPoly.sine(k, coeff))
        pt = {"x": rng.uniform(-1, 1)}
        n = 4096
        h = 2.0 * math.pi / n
        ts = [h * i for i in range(n + 1)]
        vals = [g.eval_float(t, pt) for t in ts]
        wvals = [(t - math.pi) * v for t, v in zip(ts, vals)]
        mean_num = (sum(vals) - 0.5 * (vals[0] + vals[-1])) * h / (2.0 * math.pi)
        # the sawtooth weight is not periodic: subtract the trapezoid rule's
        # endpoint-slope term so the error drops from O(n^-2) to O(n^-4)
        wtrap = (sum(wvals) - 0.5 * (wvals[0] + wvals[-1])) * h
        slope0 = (vals[1] - vals[n - 1]) / (2.0 * h)
        wtrap -= (h * h / 12.0) * 2.0 * math.pi * slope0
        wm_num = -wtrap / (2.0 * math.pi)
        assert g.mean().eval_float(pt) == pytest.approx(mean_num, abs=1e-9)
        assert g.weighted_moment().eval_float(pt) == pytest.approx(wm_num, abs=1e-9)


points_st = st.fixed_dictionaries({"x": fractions_st, "y": fractions_st})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(), polys(), points_st)
def test_value_at_equals_eval_frac(num, den, point):
    if den.is_zero():
        den = Poly.const(1)
    f = RationalFn(num, den)
    if eval_frac(f.den, point).is_zero():
        with pytest.raises(ZeroDivisionError):
            eval_frac(f, point)
        with pytest.raises(ZeroDivisionError):
            f.value_at(point)
        return
    v = f.value_at(point)
    assert isinstance(v, Fraction)
    assert v == eval_frac(f, point).const_value()


def test_value_at_raises_on_a_vanishing_denominator_and_keeps_pi():
    x = Poly.var("x")
    f = RationalFn(Poly.const(1), x - Poly.const(Fraction(1, 3)))
    with pytest.raises(ZeroDivisionError):
        f.value_at({"x": Fraction(1, 3), "y": Fraction(0)})
    g = RationalFn(Poly.var(PI) * x, Poly.const(1) + x * x)
    point = {"x": Fraction(1, 2)}
    # (1/2) @pi / (5/4): a value in Q(@pi), equal to the substituted function
    assert g.value_at(point) == qpi([0, Fraction(2, 5)])
    assert _as_ratfn(g.value_at(point)) == eval_frac(g, point)
    # pi with a zero exponent does not force the function-field fallback
    h = RationalFn(Poly((PI, "x"), {(0, 2): Fraction(3)}), Poly.const(1))
    assert h.value_at(point) == Fraction(3, 4)
    # a point that maps pi to a value binds it
    assert g.value_at({"x": Fraction(1, 2), PI: Fraction(3)}) == Fraction(6, 5)


# -- Q(@pi) --------------------------------------------------------------------

def _upoly(coeffs) -> Poly:
    return sum((Poly.const(c) * Poly.var(PI) ** k for k, c in enumerate(coeffs)), Poly.zero())


def _as_ratfn(v) -> RationalFn:
    """A value in Q or Q(@pi) as a rational function of @pi."""
    if isinstance(v, QPi):
        return RationalFn(_upoly(v.num), _upoly(v.den))
    return RationalFn.const(v)


upolys_st = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4), max_size=4)
nonzero_upolys_st = upolys_st.filter(any)


@st.composite
def qpi_values(draw):
    """A Fraction or QPi built from a random numerator and denominator."""
    return qpi(draw(upolys_st), draw(nonzero_upolys_st))


def _convolve(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(upolys_st, nonzero_upolys_st, nonzero_upolys_st)
def test_qpi_is_canonical_so_equal_values_hash_alike(num, den, factor):
    sympy = pytest.importorskip("sympy")
    a = qpi(num, den)
    # the same value with a common factor multiplied in
    b = qpi(_convolve(num, factor), _convolve(den, factor))
    assert a == b and hash(a) == hash(b)
    pi_sym = sympy.Symbol("pi")

    def expand(c):
        return sympy.Poly([sympy.Rational(x.numerator, x.denominator) for x in reversed(c)] or [0],
                          pi_sym)

    if not isinstance(a, QPi):
        # a rational value is a plain Fraction
        assert type(a) is Fraction
        assert sympy.cancel(expand(num).as_expr() / expand(den).as_expr()).is_Rational
        return
    # stored reduced: no trailing zero, a monic denominator, coprime parts
    assert a.num[-1] != 0 and a.den[-1] == 1
    assert len(a.num) > 1 or len(a.den) > 1
    assert sympy.gcd(expand(a.num), expand(a.den)).degree() == 0
    assert a != Fraction(0) and a != 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(qpi_values(), qpi_values())
def test_qpi_field_operations_agree_with_rational_functions(a, b):
    ra, rb = _as_ratfn(a), _as_ratfn(b)
    assert _as_ratfn(a + b) == ra + rb
    assert _as_ratfn(a - b) == ra - rb
    assert _as_ratfn(a * b) == ra * rb
    assert _as_ratfn(-a) == -ra
    if b != 0:
        assert _as_ratfn(a / b) == ra / rb
    # equality is exact: equal values are equal objects, and only those
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)


def test_qpi_mixes_with_fractions_and_ints():
    p = qpi([0, 1])
    assert isinstance(p, QPi) and repr(p) == "(@pi)"
    assert p * 0 == 0 and type(p * 0) is Fraction
    assert p - p == 0 and p / p == 1
    assert 1 / p == qpi([1], [0, 1])
    assert Fraction(1, 2) + p == p + Fraction(1, 2) == qpi([Fraction(1, 2), 1])
    assert 3 - p == -(p - 3)
    assert repr(qpi([-1, 0, -3], [1, -1])) == "(3*@pi^2 + 1)/(@pi - 1)"
    with pytest.raises(ZeroDivisionError):
        p / Fraction(0)
    with pytest.raises(ValueError):
        Poly.var("x")._value_at({"y": Fraction(1)})


# -- shared constants, the equality shortcut and integer-pair values -----------

def _snapshot():
    one, zero, rzero = Poly.const(1), Poly.zero(), RationalFn.zero()
    return [
        (one.vars, dict(one.terms)),
        (zero.vars, dict(zero.terms)),
        (rzero.num.vars, dict(rzero.num.terms), rzero.den.vars, dict(rzero.den.terms)),
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys(), polys(), fractions_st)
def test_shared_constants_survive_every_operation(a, b, c):
    before = _snapshot()
    one, zero = Poly.const(1), Poly.zero()
    assert Poly.const(Fraction(1)) is one and RationalFn.zero() is RationalFn.zero()
    for p in (a, b, one, zero):
        for q in (a, b, one, zero):
            p + q, p - q, p * q, -p
        p.scale(c), p.scale(0), p.diff("x"), p ** 0, p ** 2, eval_frac(p, POINT)
    fns = [RationalFn.zero(), RationalFn.const(1), RationalFn.from_poly(a), RationalFn.of(zero)]
    if not b.is_zero():
        fns.append(RationalFn(a, b))
    for f in fns:
        for g in fns:
            f + g, f - g, f * g, f == g, -f
            if not g.is_zero():
                f / g, g.inverse()
        f.scale(c), f.diff("y"), hash(f)
    assert _snapshot() == before
    assert Poly.const(1) is one and one.terms == {(): Fraction(1)} and not zero.terms
    assert RationalFn.const(3).den is one and RationalFn.zero().num.is_zero()


def test_float_constants_still_raise_type_error():
    with pytest.raises(TypeError):
        Poly.const(1.0)
    with pytest.raises(TypeError):
        RationalFn.const(1.0)
    with pytest.raises(TypeError):
        Poly.const(0.0)


@st.composite
def pi_polys(draw, max_terms=3, max_exp=2):
    """Polynomials in x, y and @pi."""
    terms = draw(
        st.lists(
            st.tuples(fractions_st, *[st.integers(0, max_exp)] * 3),
            max_size=max_terms,
        )
    )
    p = Poly.zero()
    for c, ex, ey, ep in terms:
        p = p + (Poly.var("x") ** ex * Poly.var("y") ** ey * Poly.var(PI) ** ep).scale(c)
    return p


_nonzero_pi_polys = pi_polys().filter(lambda p: not p.is_zero())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pi_polys(), _nonzero_pi_polys, _nonzero_pi_polys)
def test_equal_rational_functions_hash_alike(a, b, c):
    f, g = RationalFn(a * c, b * c), RationalFn(a, b)
    assert f == g and hash(f) == hash(g)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pi_polys(), _nonzero_pi_polys, _nonzero_pi_polys)
def test_a_common_factor_cancels_to_the_same_terms(a, b, c):
    from sympy import QQ, Symbol
    from sympy.polys.rings import ring

    f, g = RationalFn(a * c, b * c), RationalFn(a, b)
    assert (f.num, f.den) == (g.num, g.den) and hash(f) == hash(g)
    if f.is_poly():
        return
    # the normal form: a denominator over Z of content 1 with a positive
    # leading coefficient in lex order, coprime to the numerator
    coeffs = list(f.den.terms.values())
    assert all(type(x) is int for x in coeffs) and math.gcd(*coeffs) == 1
    assert f.den.terms[max(f.den.terms)] > 0
    sym, *_gens = ring([Symbol("x"), Symbol("y"), Symbol(PI)], QQ)
    num, den = to_sympy_poly(sym, f.num), to_sympy_poly(sym, f.den)
    assert num.gcd(den).is_ground


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pi_polys(), _nonzero_pi_polys, points_st)
def test_value_at_with_pi_on_both_sides_is_the_substituted_function(num, den, point):
    f = RationalFn(num, den)
    if eval_frac(f.den, point).is_zero():
        assert f.den.vanishes_at(point)
        with pytest.raises(ZeroDivisionError):
            f.value_at(point)
        return
    assert not f.den.vanishes_at(point)
    assert f.num.vanishes_at(point) == eval_frac(f.num, point).is_zero()
    assert _as_ratfn(f.value_at(point)) == eval_frac(f, point)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fractions_st, pi_polys())
def test_constant_rational_functions_hash_as_their_number(c, p):
    values = [c, Fraction(c.numerator), c.numerator]
    for v in values:
        fns = [RationalFn.const(v)]
        if not p.is_zero():
            fns.append(RationalFn(p.scale(v), p))
        for f in fns:
            assert f == v and hash(f) == hash(v)


def _cross_equal(f: RationalFn, g: RationalFn) -> bool:
    return f.num * g.den == g.num * f.den


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(), polys(), polys(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_rational_equality_shortcut_agrees_with_cross_multiplication(a, b, d, c):
    d = d * d + Poly.const(Fraction(1, 2))
    e = Poly.var("x") * Poly.var("x") + Poly.const(1)
    pairs = [
        # one denominator object on both sides
        (RationalFn(a, d), RationalFn(b, d)),
        (RationalFn(a, d), RationalFn(a, d)),
        (RationalFn.from_poly(a), RationalFn.from_poly(b)),
        # equal numerators over different denominators
        (RationalFn(a, d), RationalFn(a, e)),
        (RationalFn(a, d), RationalFn.from_poly(a)),
        # one value over different denominators
        (RationalFn(a * e, d * e), RationalFn(a, d)),
        (RationalFn(a * d, d), RationalFn.from_poly(a)),
    ]
    if c:
        # a constant denominator other than 1
        pairs += [
            (RationalFn(a, Poly.const(c)), RationalFn.from_poly(a.scale(1 / c))),
            (RationalFn(a, Poly.const(c)), RationalFn(b, Poly.const(c))),
            (RationalFn(a, Poly.const(c)), RationalFn.from_poly(a)),
        ]
    for f, g in pairs:
        assert (f == g) == _cross_equal(f, g) == (g == f)


fraction_coords_st = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
unreduced_points_st = st.fixed_dictionaries({"x": fraction_coords_st, "y": fraction_coords_st})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(), polys(), unreduced_points_st, st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_integer_pair_value_equals_eval_frac(num, den, point, c):
    for d in (den, den - Poly.const(1), Poly.const(c)):
        if d.is_zero():
            continue
        f = RationalFn(num, d)
        if eval_frac(f.den, point).is_zero():
            with pytest.raises(ZeroDivisionError):
                f.value_at(point)
            continue
        v = f.value_at(point)
        # one canonical Fraction: lowest terms over a positive denominator
        assert type(v) is Fraction and v.denominator > 0
        assert math.gcd(v.numerator, v.denominator) == 1
        assert v == eval_frac(f, point).const_value()


def test_value_at_reports_an_unbound_numerator_before_a_vanishing_denominator():
    x, z = Poly.var("x"), Poly.var("z")
    vanishing = x - Poly.const(Fraction(1, 3))
    at = {"x": Fraction(1, 3)}
    with pytest.raises(ValueError, match="'z'"):
        RationalFn(z, vanishing).value_at(at)
    # the numerator is evaluated first
    with pytest.raises(ValueError, match="'z'"):
        RationalFn(z, vanishing * Poly.var("w")).value_at(at)
    with pytest.raises(ZeroDivisionError):
        RationalFn(x, vanishing).value_at(at)
    with pytest.raises(ValueError):
        RationalFn(x, vanishing + z).value_at(at)
    # @pi in the numerator keeps the old order too
    with pytest.raises(ZeroDivisionError):
        RationalFn(Poly.var(PI) * x, vanishing).value_at(at)


# -- coefficient types and the in-place exact division ------------------------

def _normal(c) -> bool:
    # an int where integral, a Fraction otherwise, never a float
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _assert_normal(*objs):
    for x in objs:
        if isinstance(x, RationalFn):
            _assert_normal(x.num, x.den)
        else:
            assert all(_normal(c) for c in x.terms.values()), x


coeffs_st = st.one_of(st.integers(-6, 6), fractions_st)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(polys(), polys(), polys(), coeffs_st)
def test_coefficients_are_ints_where_integral(a, b, d, c):
    x = Poly.var("x")
    _assert_normal(a, b, Poly.const(c), Poly.var("x"), Poly.const(1), Poly.zero())
    _assert_normal(a + b, a - b, a * b, -a, a ** 0, a ** 3, a.scale(c), a.scale(Fraction(4, 2)))
    _assert_normal(a.diff("x"), (a * x * x).diff("x"), eval_frac(a, POINT), eval_frac(a, {"x": Fraction(2)}))
    if not b.is_zero():
        _assert_normal(poly_divmod_exact(a * b, b))
        q = poly_divmod_exact(a, b)
        if q is not None:
            _assert_normal(q)
    d = d * d + Poly.const(Fraction(1, 2))
    fns = [RationalFn(a, d), RationalFn.from_poly(b), RationalFn.const(c), RationalFn(a * d, d)]
    if c:
        fns.append(RationalFn(a, Poly.const(c)))
    if not b.is_zero():
        fns.append(RationalFn(d, b))
    for f in fns:
        _assert_normal(f, f.scale(c), f.diff("x"), -f)
        for g in fns:
            _assert_normal(f + g, f - g, f * g)
            if not g.is_zero():
                _assert_normal(f / g, g.inverse())


def test_constant_values_are_exact_and_floats_are_refused():
    assert RationalFn(Poly.const(1), Poly.const(2)).const_value() == Fraction(1, 2)
    assert type(RationalFn(Poly.const(1), Poly.const(2)).const_value()) is Fraction
    assert type(RationalFn(Poly.const(4), Poly.const(2)).const_value()) is Fraction
    assert RationalFn(Poly.const(3), Poly.const(6)).num.terms == {(): Fraction(1, 2)}
    assert type(Poly.const(Fraction(6, 3)).const_value()) is int
    x = Poly.var("x")
    q = poly_divmod_exact(x.scale(3), Poly.const(2))
    assert q == x.scale(Fraction(3, 2)) and _normal(q.terms[(1,)])
    with pytest.raises(TypeError):
        Poly.const(1.0)
    with pytest.raises(TypeError):
        x.scale(0.5)


def _polys_in(obj, seen):
    """Every Poly reachable from obj through containers, attributes and slots."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Poly):
        yield obj
        return
    if isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = obj
    elif type(obj).__module__.startswith("diracavg."):
        slots = [s for k in type(obj).__mro__ for s in getattr(k, "__slots__", ())]
        items = [getattr(obj, s) for s in slots if hasattr(obj, s)]
        items += list(getattr(obj, "__dict__", {}).values())
    else:
        return
    for x in items:
        yield from _polys_in(x, seen)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 6), st.integers(0, 3)), min_size=1, max_size=4))
def test_parsed_coefficients_are_ints_where_integral(monos):
    from diracavg.modelspec import parse_spec_dict

    # the monomial y keeps the component nonzero
    lit = [[f"{n}/{m}", {"x": e} if e else {}] for n, m, e in monos] + [["1", {"y": 1}]]
    doc = {
        "coordinates": ["x", "y"],
        "tensors": {"pi": {"kind": "multivector", "degree": 2, "components": {"0,1": lit}}},
    }
    polys = list(_polys_in(parse_spec_dict(doc), set()))
    assert polys
    _assert_normal(*polys)


def test_bundled_models_hold_normal_coefficients():
    from diracavg.fixtures import FIXTURES, fixture_path
    from diracavg.modelspec import parse_spec

    torus = pathlib.Path(__file__).resolve().parents[1] / "bench" / "torus.json"
    for path in [fixture_path(name) for name in FIXTURES] + [torus]:
        polys = list(_polys_in(parse_spec(str(path)), set()))
        assert polys, path
        _assert_normal(*polys)


def _divmod_reference(num: Poly, den: Poly):
    """poly_divmod_exact as it was before the in-place remainder: a new
    product and a new remainder per quotient term (its quotient goes
    through Fraction, as it did when every coefficient was one)."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return Poly.zero()
    vs = Poly._merge_vars(num, den)
    a, b = num.aligned_to(vs), den.aligned_to(vs)

    def key(e):
        return (sum(e), e)

    lead_b = max(b.terms, key=key)
    cb = b.terms[lead_b]
    q = {}
    r = a
    steps = 0
    limit = 4 * (len(a.terms) + 1) * (len(b.terms) + 1) + 64
    while not r.is_zero():
        steps += 1
        if steps > limit:
            return None
        lead_r = max(r.terms, key=key)
        diff = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(d < 0 for d in diff):
            return None
        coeff = Fraction(r.terms[lead_r]) / cb
        s = q.get(diff)
        q[diff] = coeff if s is None else s + coeff
        r = r - Poly(vs, {diff: coeff}) * b
    return Poly(vs, {e: c for e, c in q.items() if c != 0})


def _same_division(num: Poly, den: Poly):
    before = (dict(num.terms), dict(den.terms))
    got, ref = poly_divmod_exact(num, den), _divmod_reference(num, den)
    assert (dict(num.terms), dict(den.terms)) == before
    if ref is None:
        assert got is None
        return None
    # the same quotient; no reader sees the order of its terms
    assert got.vars == ref.vars and got == ref
    return got


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(max_terms=5), polys(max_terms=4), polys(max_terms=2))
def test_in_place_division_matches_the_reference(a, b, c):
    z = Poly.var("z")
    if b.is_zero():
        return
    for divisor in (b, b * z + Poly.const(3), b.scale(Fraction(2, 3))):
        assert _same_division(a * divisor, divisor) == a
        # pairs that do not divide, or do only by chance
        _same_division(a * divisor + c + z, divisor)
        _same_division(a + z * z, divisor)
        _same_division(a, divisor * z)


def test_exact_division_takes_no_step_limit():
    x, one = Poly.var("x"), Poly.const(1)
    # x^n - 1 = (x - 1)(x^(n-1) + ... + 1) takes n steps; the reference
    # division stops at a limit of 100
    assert _same_division(x ** 100 - one, x - one) is not None
    assert _divmod_reference(x ** 101 - one, x - one) is None
    q = poly_divmod_exact(x ** 101 - one, x - one)
    assert len(q.terms) == 101 and q * (x - one) == x ** 101 - one
    assert (x ** 101 - one) // (x - one) == q
    # a remainder that never clears stops at a degree bound, not at a
    # negative exponent
    assert _same_division(x ** 120, x - one) is None
    assert _same_division(x ** 3, x - one) is None


def test_torus_gauge_determinant_matches_the_reference_division(monkeypatch):
    from diracavg import cli, linalg, rings

    seen = []
    bareiss = linalg._bareiss

    def record(rows):
        # det's rows are polynomials, cleared of denominators; rank's are ints
        if rows and isinstance(rows[0][0], Poly):
            seen.append([list(row) for row in rows])
        return bareiss(rows)

    torus = pathlib.Path(__file__).resolve().parents[1] / "bench" / "torus.json"
    monkeypatch.setattr(linalg, "_bareiss", record)
    assert cli.main(["gauge", "--spec", str(torus), "--samples", "3"]) == 0
    monkeypatch.undo()
    # the gauge matrix is the largest matrix linalg.det sees
    n = max(map(len, seen))
    gauge = [rows for rows in seen if len(rows) == n]
    assert gauge and n >= 4

    def dets():
        out = []
        for rows in gauge:
            cols, d = linalg._bareiss([list(row) for row in rows])
            assert cols == list(range(n))
            out.append(d)
        return out

    got = dets()
    monkeypatch.setattr(rings, "poly_divmod_exact", _divmod_reference)
    assert got == dets()
    assert all(not d.is_zero() for d in got)
