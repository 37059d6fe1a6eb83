"""Shared builders for the test suite: charts, random polynomials, points."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from diracavg.actions import CircleAction, lie_vv1
from diracavg.config import PI
from diracavg.rings import Poly, RationalFn
from diracavg.tensors import Chart, VectorValued1Form, lie_derivative

CHART2 = Chart(("x", "y"))
CHART4 = Chart(("x1", "x2", "y1", "y2"))


def rand_fraction(rng: random.Random, span: int = 4, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_poly(
    rng: random.Random,
    names: Sequence[str],
    degree: int = 2,
    terms: int = 3,
) -> Poly:
    """A random polynomial with small rational coefficients."""
    p = Poly.zero()
    for _ in range(terms):
        mono = Poly.const(rand_fraction(rng))
        for _ in range(rng.randint(0, degree)):
            mono = mono * Poly.var(rng.choice(list(names)))
        p = p + mono
    return p


def rand_rational(rng: random.Random, names: Sequence[str], degree: int = 2) -> RationalFn:
    # denominator 1 + v**2 never vanishes on rational sample points
    num = rand_poly(rng, names, degree)
    den = Poly.const(1) + Poly.var(rng.choice(list(names))) ** 2
    if rng.random() < 0.5:
        den = Poly.const(1)
    return RationalFn(num, den)


def eval_frac(f, point: Dict[str, Fraction]):
    """A Poly or a RationalFn with its coordinates substituted by exact
    values term by term, ``@pi`` and unbound variables kept: the reference
    the pointwise evaluators are checked against.  A RationalFn whose
    denominator vanishes raises ZeroDivisionError."""
    if isinstance(f, RationalFn):
        den = eval_frac(f.den, point)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes at sample point")
        return RationalFn(eval_frac(f.num, point), den)
    keep = [i for i, v in enumerate(f.vars) if v not in point or v == PI]
    out = {}
    for e, c in f.terms.items():
        val = c
        for i, v in enumerate(f.vars):
            if v in point and v != PI and e[i]:
                val *= Fraction(point[v]) ** e[i]
        key = tuple(e[i] for i in keep)
        s = out.get(key, 0) + val
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
    return Poly(tuple(f.vars[i] for i in keep), out)


def default_box(chart: Chart) -> Dict[str, Tuple[Fraction, Fraction]]:
    """The box [-1/2, 1/2] on every coordinate."""
    half = Fraction(1, 2)
    return {name: (-half, half) for name in chart.coords}


def frac_point(rng: random.Random, names: Sequence[str], span: int = 3) -> Dict[str, Fraction]:
    return {n: Fraction(rng.randint(-span, span), rng.randint(1, 4)) for n in names}


def to_sympy_poly(ring, p: Poly):
    """p as an element of a sympy ``PolyRing`` whose generators carry p's variable names."""
    names = [str(g) for g in ring.gens]
    terms = {}
    for e, c in p.terms.items():
        exp = [0] * len(names)
        for v, k in zip(p.vars, e):
            exp[names.index(v)] = k
        c = Fraction(c)
        terms[tuple(exp)] = ring.domain(c.numerator, c.denominator)
    return ring.from_dict(terms)


def lie_along(circ: CircleAction, t):
    """The Lie derivative of t along the generator of a circle action."""
    if isinstance(t, VectorValued1Form):
        return lie_vv1(circ.generator(), t)
    return lie_derivative(circ.generator(), t)
