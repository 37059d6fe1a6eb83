"""Exact scalar arithmetic: sparse polynomials, rational functions and
trigonometric polynomials over Q.

Representation choices:

* ``Poly`` stores a sorted tuple of variable names and a dict mapping exponent
  tuples to nonzero coefficients: an ``int`` where the coefficient is
  integral, a ``Fraction`` otherwise (never one with denominator 1, never a
  float), so integral arithmetic takes no gcd.  Variables are kept in sorted
  order so structural equality is canonical; arithmetic on polynomials with
  different variable sets aligns them to the union first.
* ``RationalFn`` is a numerator/denominator pair of ``Poly`` in lowest
  terms, reduced on construction by a heuristic gcd over Z[x] (GCDHEU,
  Char, Geddes and Gonnet, 1989), so that equality compares terms.  A
  polynomial skips the gcd: its denominator is the shared unit.  Exact
  division of polynomials (``//``) is GCDHEU's trial division of the
  primitive parts, by Gauss's lemma.
* ``QPi`` is an element of Q(@pi), the value at a rational point of an entry
  that keeps ``@pi``: univariate numerator and denominator over ``Fraction``
  in lowest terms (Euclid's gcd, Geddes, Czapor and Labahn, *Algorithms for
  Computer Algebra*, ch. 7) with a monic denominator, so it is canonical.
* ``ZPi`` is a polynomial in ``@pi`` over Z, a tuple of ``int``
  coefficients: an entry of a row of values that keeps ``@pi``, cleared of
  denominators by one element of Q(@pi) (``cleared_row``), so that a row
  pairs with another by sums of integer products and no gcd.
* ``TrigPoly`` stores Fourier modes of one flow parameter: a dict mapping
  ``(k, part)`` with ``part`` in ``{"cos", "sin"}`` to ``Poly`` coefficients.
  It is kept for the two kernel integrals, the mean over a period and the
  weighted moment of the homotopy operator, in closed form: the flow
  pullback itself (``actions``) runs on ``Poly``, with cos(wt) and sin(wt)
  as the reserved variables ``@c<w>`` and ``@s<w>``, and takes each
  monomial's two integrals from a ``TrigPoly`` product.  No complex
  exponentials are used anywhere.

The reserved variable ``@pi`` (``config.PI``) represents the circle constant
as a formal transcendental, so objects produced by the homotopy operator stay
exact.  Spatial differentiation treats it as a constant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add, mul, sub
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .config import LIMITS, PI, CapacityError

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]

COS = "cos"
SIN = "sin"


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def _coeff(c: Scalar) -> Scalar:
    """c as a coefficient: an int where integral, else a Fraction."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def _canon(c: Scalar) -> Scalar:
    """An exact result as a coefficient: a Fraction with denominator 1 becomes an int."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Tuple[str, ...], terms: Dict[Exponent, Scalar]):
        # Internal constructor; assumes sorted vars and pruned nonzero
        # coefficients, each an int or a non-integral Fraction.
        self.vars = variables
        self.terms = terms

    # -- construction ---------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def const(c: Scalar) -> "Poly":
        if c == 1 and isinstance(c, (int, Fraction)):
            return _UNIT
        c = _coeff(c)
        if c == 0:
            return _ZERO
        return Poly((), {(): c})

    @staticmethod
    def var(name: str) -> "Poly":
        if not name or name.startswith("@") and name != PI:
            raise ValueError(f"invalid variable name {name!r}")
        return Poly((name,), {(1,): 1})

    # -- alignment -------------------------------------------------------

    def aligned_to(self, variables: Tuple[str, ...]) -> "Poly":
        """Reindex onto a sorted superset of this polynomial's variables."""
        if variables == self.vars:
            return self
        pos = {v: i for i, v in enumerate(variables)}
        n = len(variables)
        terms: Dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            new = [0] * n
            for v, exp in zip(self.vars, e):
                new[pos[v]] = exp
            terms[tuple(new)] = c
        return Poly(variables, terms)

    @staticmethod
    def _merge_vars(a: "Poly", b: "Poly") -> Tuple[str, ...]:
        if a.vars == b.vars:
            return a.vars
        return tuple(sorted(set(a.vars) | set(b.vars)))

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        vs = Poly._merge_vars(self, other)
        a, b = self.aligned_to(vs), other.aligned_to(vs)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = _canon(s)
        return Poly(vs, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        # a product by the shared unit is the other factor, within the cap
        if other is _UNIT and len(self.terms) <= LIMITS.max_terms:
            return self
        if self is _UNIT and len(other.terms) <= LIMITS.max_terms:
            return other
        vs = Poly._merge_vars(self, other)
        a, b = self.aligned_to(vs), other.aligned_to(vs)
        if len(a.terms) > len(b.terms):
            a, b = b, a
        terms: Dict[Exponent, Scalar] = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                e = tuple(map(add, ea, eb))
                s = terms.get(e)
                s = ca * cb if s is None else s + ca * cb
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
            if len(terms) > LIMITS.max_terms:
                raise CapacityError("polynomial term count exceeded max_terms")
        # int products and sums stay ints; only Fraction ones may turn integral
        for e, c in terms.items():
            if type(c) is Fraction and c.denominator == 1:
                terms[e] = c.numerator
        return Poly(vs, terms)

    def __floordiv__(self, other: Union["Poly", int]) -> "Poly":
        """The exact quotient self / other; raises ArithmeticError where
        ``other`` does not divide self.  A unit divisor returns self."""
        if not isinstance(other, Poly):
            other = Poly.const(other)
        if other is _UNIT:
            return self
        q = poly_divmod_exact(self, other)
        if q is None:
            raise ArithmeticError("polynomial division is not exact")
        return q

    def scale(self, c: Scalar) -> "Poly":
        c = _coeff(c)
        if c == 0:
            return Poly.zero()
        return Poly(self.vars, {e: _canon(c * v) for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base_needed = n > 1
            n >>= 1
            if base_needed and n:
                base = base * base
        return out

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_const(self) -> bool:
        return not any(any(e) for e in self.terms)

    def const_value(self) -> Scalar:
        if self.is_zero():
            return 0
        if not self.is_const():
            raise ValueError("polynomial is not constant")
        # a constant has one term, the all-zero exponent
        return next(iter(self.terms.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        vs = Poly._merge_vars(self, other)
        return self.aligned_to(vs).terms == other.aligned_to(vs).terms

    def __hash__(self) -> int:
        # Hash over a variable-pruned canonical form.
        used = [i for i, v in enumerate(self.vars) if any(e[i] for e in self.terms)]
        vs = tuple(self.vars[i] for i in used)
        items = tuple(
            sorted((tuple(e[i] for i in used), c) for e, c in self.terms.items())
        )
        return hash((vs, items))

    # -- calculus --------------------------------------------------------

    def diff(self, name: str) -> "Poly":
        if name == PI:
            raise ValueError("differentiation against the pi symbol is undefined")
        if name not in self.vars:
            return Poly.zero()
        i = self.vars.index(name)
        terms: Dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            new = list(e)
            new[i] -= 1
            terms[tuple(new)] = c if e[i] == 1 else _canon(c * e[i])
        return Poly(self.vars, terms)

    def _value_at(self, point: Mapping[str, Fraction]) -> Union[Tuple[int, int], Tuple["ZPi", int]]:
        """The exact value at a point, unreduced over a positive integer
        denominator: its numerator is an integer, or a ``ZPi`` where ``@pi``
        survives.

        ``@pi`` is bound only where the point maps it to a value.  Any other
        variable that occurs with a nonzero exponent must be bound.
        """
        xs = []
        free = -1
        for i, v in enumerate(self.vars):
            x = point.get(v)
            if x is None:
                if any(e[i] for e in self.terms):
                    if v != PI:
                        raise ValueError(f"the point does not bind {v!r}")
                    free = i
                xs.append((1, 1))
            else:
                xs.append((x.numerator, x.denominator))
        if free < 0:
            return _sum_at(self.terms.items(), xs)
        by_power: Dict[int, list] = {}
        for e, c in self.terms.items():
            by_power.setdefault(e[free], []).append((e, c))
        sums = [_sum_at(by_power.get(k, ()), xs) for k in range(max(by_power) + 1)]
        lcm = math.lcm(*[d for _, d in sums])
        return _utrim([c * (lcm // d) for c, d in sums]), lcm

    def vanishes_at(self, point: Mapping[str, Fraction]) -> bool:
        """Whether the value at a point is zero, read from the unreduced
        numerator of ``_value_at`` with no Fraction built."""
        return not self._value_at(point)[0]

    def eval_float(self, point: Mapping[str, float]) -> float:
        total = 0.0
        for e, c in self.terms.items():
            val = float(c)
            for i, v in enumerate(self.vars):
                if e[i]:
                    x = math.pi if v == PI else point[v]
                    val *= x ** e[i]
            total += val
        return total

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e)
                if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


def _sum_at(terms: Iterable[Tuple[Exponent, Scalar]], xs: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """The sum of the terms with variable i at xs[i] = (numerator, denominator),
    unreduced: an integer numerator over a positive running common denominator."""
    num, den = 0, 1
    for e, c in terms:
        tn, td = c.numerator, c.denominator
        for (xn, xd), k in zip(xs, e):
            if k:
                tn *= xn ** k
                td *= xd ** k
        if td == den:
            num += tn
        else:
            g = math.gcd(den, td)
            num = num * (td // g) + tn * (den // g)
            den = den // g * td
    return num, den


def _primitive(p: Poly) -> Tuple[Dict[Exponent, int], Fraction]:
    """p as c q: a positive rational c and q over Z with content 1."""
    g, lcm = 0, 1
    for c in p.terms.values():
        g = math.gcd(g, c.numerator)
        lcm = math.lcm(lcm, c.denominator)
    return {e: c.numerator * (lcm // c.denominator) // g for e, c in p.terms.items()}, Fraction(g, lcm)


# GCDHEU gives up after this many evaluation points: each failure grows the
# point, and only finitely many points fail, so the cap stops runaway sizes
_HEU_TRIES = 12

ZPoly = Dict[Exponent, int]


def _heugcd(f: ZPoly, g: ZPoly) -> Tuple[ZPoly, ZPoly, ZPoly]:
    """The gcd h of two nonzero polynomials over Z, and the cofactors f / h
    and g / h.

    GCDHEU (Char, Geddes and Gonnet, 1989, as in sympy's heuristicgcd): the
    last variable is set to an integer x, the gcd of the images is found
    one variable down, and a candidate is read back from the symmetric
    base-x digits of its coefficients.  A candidate counts only once exact
    division proves it, so a wrong guess costs a larger x, never a wrong gcd.
    A monomial, and a last variable that neither polynomial reads, take no
    evaluation.
    """
    if len(f) == 1 or len(g) == 1:
        # the gcd of the coefficients times the shared monomial
        h = dict([(tuple(map(min, *f, *g)), math.gcd(*f.values(), *g.values()))])
        return h, _quotient(f, h), _quotient(g, h)
    if not any(e[-1] for e in f) and not any(e[-1] for e in g):
        h, cff, cfg = _heugcd(*({e[:-1]: v for e, v in p.items()} for p in (f, g)))
        return tuple({e + (0,): v for e, v in p.items()} for p in (h, cff, cfg))
    c = math.gcd(*f.values(), *g.values())
    if c > 1:
        f = {e: v // c for e, v in f.items()}
        g = {e: v // c for e, v in g.items()}
    f_norm, g_norm = max(map(abs, f.values())), max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(
        min(bound, 99 * math.isqrt(bound)),
        2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4,
    )
    for _ in range(_HEU_TRIES):
        ff, gg = _at_last(f, x), _at_last(g, x)
        if ff and gg:
            images = _heugcd(ff, gg)
            h = _digits(images[0], x)
            content = math.gcd(*h.values())
            primitive = {e: v // content for e, v in h.items()}
            # the gcd read back, else f or g over a cofactor read back
            for h in (primitive if i == 0 else _quotient((f, g)[i - 1], _digits(images[i], x))
                      for i in range(3)):
                cff, cfg = (None, None) if h is None else (_quotient(f, h), _quotient(g, h))
                if cff is not None and cfg is not None:
                    return _times(h, c), cff, cfg
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    raise CapacityError("heuristic gcd found no evaluation point")


def _at_last(f: ZPoly, x: int) -> ZPoly:
    """f with its last variable set to x."""
    out: ZPoly = {}
    for e, c in f.items():
        k = e[:-1]
        out[k] = out.get(k, 0) + c * x ** e[-1]
    return {k: c for k, c in out.items() if c}


def _digits(h: ZPoly, x: int) -> ZPoly:
    """The polynomial whose coefficients in a new last variable are the
    symmetric base-x digits of h's coefficients, with a positive leading
    coefficient."""
    out: ZPoly = {}
    half = x // 2
    for e, c in h.items():
        i = 0
        while c:
            r = c % x
            if r > half:
                r -= x
            if r:
                out[e + (i,)] = r
            c = (c - r) // x
            i += 1
    return _times(out, -1) if out[max(out)] < 0 else out


def _quotient(f: ZPoly, h: ZPoly) -> Union[ZPoly, None]:
    """f / h where h divides f over Z, else None.

    GCDHEU's trial division, its hottest step, and every exact division of
    polynomials: over Z, in lex order, which compares exponent tuples as
    they are, and stopping at the first remainder of a coefficient.  A
    quotient's degree in each variable is f's less h's, which bounds the
    steps where h does not divide f.
    """
    lead = max(h)
    ch = h[lead]
    if len(h) == 1:
        q = {tuple(map(sub, e, lead)): divmod(v, ch) for e, v in f.items()}
        if any(m or any(d < 0 for d in e) for e, (_v, m) in q.items()):
            return None
        return {e: v for e, (v, _m) in q.items()}
    rest = [(e, c) for e, c in h.items() if e != lead]
    room = [max(col) - k for col, k in zip(zip(*f), map(max, zip(*h)))]
    r = dict(f)
    q: ZPoly = {}
    while r:
        top = max(r)
        diff = tuple(map(sub, top, lead))
        if any(d < 0 or d > m for d, m in zip(diff, room)):
            return None
        c, m = divmod(r.pop(top), ch)
        if m:
            return None
        q[diff] = c
        for e, v in rest:
            e = tuple(map(add, diff, e))
            s = r.get(e, 0) - c * v
            if s:
                r[e] = s
            else:
                del r[e]
    return q


def _times(f: ZPoly, c: int) -> ZPoly:
    return f if c == 1 else {e: v * c for e, v in f.items()}


def _coprime(a: Poly, b: Poly) -> bool:
    """Whether two denominators in normal form share no factor."""
    vs = Poly._merge_vars(a, b)
    h = _heugcd(a.aligned_to(vs).terms, b.aligned_to(vs).terms)[0]
    return len(h) == 1 and not any(next(iter(h)))


def _lowest_terms(num: Poly, den: Poly) -> Tuple[Poly, Poly]:
    """num / den with a non-constant den, in the normal form of RationalFn."""
    vs = Poly._merge_vars(num, den)
    a, ca = _primitive(num.aligned_to(vs))
    b, cb = _primitive(den.aligned_to(vs))
    if len(a) > 1 or any(next(iter(a))):
        _h, a, b = _heugcd(a, b)
    scale = ca / cb
    if b[max(b)] < 0:
        scale = -scale
        b = _times(b, -1)
    num = Poly(vs, {e: _canon(c * scale) for e, c in a.items()})
    if len(b) == 1 and not any(next(iter(b))):
        return num, _UNIT
    return num, Poly(vs, b)


def poly_divmod_exact(num: Poly, den: Poly) -> Union[Poly, None]:
    """num / den where den divides num, else None.

    By Gauss's lemma den divides num over Q exactly where den's primitive
    part divides num's over Z, so GCDHEU's trial division of the primitive
    parts, scaled by the ratio of their contents, gives the quotient.
    """
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return Poly.zero()
    vs = Poly._merge_vars(num, den)
    a, ca = _primitive(num.aligned_to(vs))
    b, cb = _primitive(den.aligned_to(vs))
    q = _quotient(a, b)
    if q is None:
        return None
    scale = _canon(ca / cb)
    return Poly(vs, {e: _canon(c * scale) for e, c in q.items()})


class RationalFn:
    """Exact rational function num/den, held in one normal form.

    A polynomial has ``den`` the shared unit ``_UNIT``.  Any other value
    has num and den coprime, found by GCDHEU, with den over Z, of content
    1 and with a positive leading coefficient in lex order (the order of
    the exponent tuples); num carries the rational scale.  So ``==``
    compares terms and ``hash`` agrees with it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        # every constant denominator becomes the shared unit
        if den is not _UNIT:
            if den.is_zero():
                raise ZeroDivisionError("rational function with zero denominator")
            if num.is_zero():
                den = _UNIT
            elif den.is_const():
                c = den.const_value()
                if c != 1:
                    num = num.scale(Fraction(1) / c)
                den = _UNIT
            else:
                num, den = _lowest_terms(num, den)
        self.num = num
        self.den = den

    # -- construction ----------------------------------------------------

    @staticmethod
    def zero() -> "RationalFn":
        return _RZERO

    @staticmethod
    def const(c: Scalar) -> "RationalFn":
        return RationalFn(Poly.const(c), _UNIT)

    @staticmethod
    def var(name: str) -> "RationalFn":
        return RationalFn(Poly.var(name), _UNIT)

    @staticmethod
    def from_poly(p: Poly) -> "RationalFn":
        return RationalFn(p, _UNIT)

    @staticmethod
    def of(x: Union["RationalFn", Poly, int, Fraction]) -> "RationalFn":
        if isinstance(x, RationalFn):
            return x
        if isinstance(x, Poly):
            return RationalFn.from_poly(x)
        return RationalFn.const(x)

    # -- field operations -------------------------------------------------

    def __add__(self, other: "RationalFn") -> "RationalFn":
        other = RationalFn.of(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return other if not a else self
        if b is d or b == d:
            return RationalFn(a + c, b)
        num = a * d + c * b
        # the sum of two reduced fractions over coprime denominators is
        # reduced (Henrici); the unit is coprime to every denominator
        if b is _UNIT or d is _UNIT or _coprime(b, d):
            return _reduced(num, b * d) if num else _RZERO
        return RationalFn(num, b * d)

    def __neg__(self) -> "RationalFn":
        return _reduced(-self.num, self.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-RationalFn.of(other))

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        other = RationalFn.of(other)
        if self.den is _UNIT and other.den is _UNIT:
            return RationalFn(self.num * other.num, _UNIT)
        # a constant factor scales
        for x, y in ((self, other), (other, self)):
            if x.den is _UNIT and x.num.is_const():
                return y.scale(x.num.const_value())
        # each numerator is coprime to its own denominator, so reducing it
        # against the other one leaves a reduced product (Henrici)
        x, y = RationalFn(self.num, other.den), RationalFn(other.num, self.den)
        num = x.num * y.num
        return _reduced(num, x.den * y.den) if num else _RZERO

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        other = RationalFn.of(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * other.inverse()

    def scale(self, c: Scalar) -> "RationalFn":
        return _reduced(self.num.scale(c), self.den) if c else _RZERO

    def inverse(self) -> "RationalFn":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.num.is_const():
            return RationalFn(self.den, self.num)
        # num and den are coprime already: only the scale moves
        b, c = _primitive(self.num)
        if b[max(b)] < 0:
            b, c = _times(b, -1), -c
        return _reduced(self.den.scale(1 / c), Poly(self.num.vars, b))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_poly(self) -> bool:
        return self.den is _UNIT

    def as_poly(self) -> Poly:
        if not self.is_poly():
            raise ValueError("rational function is not polynomial")
        return self.num

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFn.const(other)
        elif isinstance(other, Poly):
            other = RationalFn.from_poly(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        # both sides are in normal form
        return self.num == other.num and (self.den is other.den or self.den == other.den)

    def __hash__(self) -> int:
        # a constant c hashes as hash(c)
        if self.den is _UNIT and self.num.is_const():
            return hash(self.num.const_value())
        return hash((self.num, self.den))

    # -- calculus ---------------------------------------------------------

    def diff(self, name: str) -> "RationalFn":
        if self.is_poly():
            return RationalFn.from_poly(self.num.diff(name))
        n = self.num.diff(name) * self.den - self.num * self.den.diff(name)
        return RationalFn(n, self.den * self.den)

    def value_at(self, point: Mapping[str, Fraction]) -> Union[Fraction, "QPi"]:
        """The exact value at a rational point: a Fraction, or a ``QPi``
        where ``@pi`` survives.

        ``@pi`` is bound only where the point maps it to a value.  Raises
        ZeroDivisionError where the denominator vanishes.
        """
        num = self.num._value_at(point)
        den = (1, 1) if self.den is _UNIT else self.den._value_at(point)
        if not den[0]:
            raise ZeroDivisionError("denominator vanishes at sample point")
        if type(num[0]) is type(den[0]) is int:
            # neither side keeps @pi: one reduction for the value
            return Fraction(num[0] * den[1], num[1] * den[0])
        # (cn / ln) / (cd / ld) = (cn ld) / (cd ln), reduced once
        (cn, ln), (cd, ld) = _zpi_pair(num), _zpi_pair(den)
        return _lowest(tuple(Fraction(c * ld) for c in cn), tuple(Fraction(c * ln) for c in cd))

    def eval_float(self, point: Mapping[str, float]) -> float:
        d = self.den.eval_float(point)
        if d == 0.0:
            raise ZeroDivisionError("denominator vanishes at sample point")
        return self.num.eval_float(point) / d

    def const_value(self) -> Fraction:
        return Fraction(self.num.const_value()) / self.den.const_value()

    def __repr__(self) -> str:
        if self.is_poly():
            return f"RationalFn({self.num!r})"
        return f"RationalFn({self.num!r} / {self.den!r})"


# -- Q(@pi): values at points that keep @pi ------------------------------------

# a univariate polynomial in @pi: coefficients from the constant term up,
# with no trailing zero
UPoly = Tuple[Fraction, ...]

_ONE: UPoly = (Fraction(1),)


def _utrim(c: list) -> UPoly:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _uadd(a: UPoly, b: UPoly) -> UPoly:
    """The sum of two UPoly, or of two ZPi."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return _utrim(out)


def _uscale(a: UPoly, c: Scalar) -> UPoly:
    return tuple(x * c for x in a) if c else ()


def _umul(a: UPoly, b: UPoly) -> UPoly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _udivmod(a: UPoly, b: UPoly) -> Tuple[UPoly, UPoly]:
    """Quotient and remainder of a by a nonzero b."""
    nb = len(b)
    r = list(a)
    q = [Fraction(0)] * max(len(a) - nb + 1, 0)
    inv = 1 / b[-1]
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + nb - 1] * inv
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    return _utrim(q), _utrim(r[: nb - 1])


def _ugcd(a: UPoly, b: UPoly) -> UPoly:
    """The monic gcd of two univariate polynomials, by Euclid's algorithm."""
    while b:
        a, b = b, _udivmod(a, b)[1]
    return _uscale(a, 1 / a[-1])


def _lowest(num: UPoly, den: UPoly) -> Union[Fraction, "QPi"]:
    """num/den in lowest terms with a monic denominator; a Fraction when rational."""
    if not num:
        return Fraction(0)
    if len(den) > 1:
        g = _ugcd(num, den)
        if len(g) > 1:
            num, den = _udivmod(num, g)[0], _udivmod(den, g)[0]
    lead = den[-1]
    if lead != 1:
        num, den = _uscale(num, 1 / lead), _uscale(den, 1 / lead)
    if len(num) == 1 and len(den) == 1:
        return num[0]
    return QPi(num, den)


# -- Z[@pi]: rows of values at points that keep @pi, cleared of denominators ----

# a polynomial in @pi over Z: coefficients from the constant term up, with no
# trailing zero; () is zero
ZPi = Tuple[int, ...]


def _zpi(x: Union[int, ZPi]) -> ZPi:
    """An int or a ZPi as a ZPi."""
    return ((x,) if x else ()) if type(x) is int else x


def _zpi_pair(x: tuple) -> Tuple[ZPi, int]:
    """A pair of ``Poly._value_at`` as a ZPi over a positive integer."""
    return _zpi(x[0]), x[1]


def _zmul(a: ZPi, b: ZPi) -> ZPi:
    """The product of two ZPi."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def dot(u: Sequence, v: Sequence) -> Union[int, ZPi]:
    """The sum of the products u[k] v[k]: of ints, or of ZPi."""
    if type(u[0]) is int:
        return sum(map(mul, u, v))
    return reduce(_uadd, map(_zmul, u, v), ())


def equal_products(a: Sequence, b: Sequence) -> bool:
    """Whether the product of the ints and ZPi in a equals that in b: in Z,
    or over Z[@pi] where a factor is a ZPi."""
    if tuple not in map(type, (*a, *b)):
        return math.prod(a) == math.prod(b)
    return reduce(_zmul, map(_zpi, a), (1,)) == reduce(_zmul, map(_zpi, b), (1,))


def over_one(pairs: Sequence[tuple]) -> Tuple[list, Union[int, ZPi]]:
    """Unreduced values (num, den), all over integers or all over ZPi, as
    numerators over one denominator: the lcm of the integer denominators of
    the nonzero values, or the product of their distinct ZPi ones."""
    if type(pairs[0][1]) is int:
        lcm = math.lcm(*[d for n, d in pairs if n])
        return [n * (lcm // d) for n, d in pairs], lcm
    dens = list(dict.fromkeys(d for n, d in pairs if n))
    # each numerator times every denominator but its own
    return [reduce(_zmul, [e for e in dens if e != d], n) for n, d in pairs], reduce(_zmul, dens, (1,))


# a place in a row, and a value's numerator and denominator there: each a
# Poly, or its pair of ``Poly._value_at`` at the point
RowEntry = Tuple[int, object, object]


def cleared_row(size: int, entries: Sequence[RowEntry], point: Mapping[str, Fraction]) -> list:
    """A row of values num/den at places k, zero elsewhere, times one
    nonzero scalar that clears it: to ``int``s by a positive integer where
    no value keeps ``@pi``, else to ``ZPi``s by an element of Q(@pi).

    Each entry is a ``RowEntry`` (k, num, den); a zero den raises
    ZeroDivisionError.  Over Q the scalar is the lcm of the values'
    denominators, from the unreduced pairs with no Fraction built.  Over
    Q(@pi) it is the product of the distinct denominators, each a ZPi
    (``over_one``).  A zero value keeps its denominator out, so the row
    stays small.
    """
    vals, dens = [], []
    for k, num, den in entries:
        num = num if type(num) is tuple else num._value_at(point)
        den = den if type(den) is tuple else den._value_at(point)
        vals.append((k, num, den))
        if type(num[0]) is not int or type(den[0]) is not int:
            return _zpi_row(size, vals + list(entries[len(vals):]), point)
        if not den[0]:
            raise ZeroDivisionError("denominator vanishes at sample point")
        dens.append(num[1] * den[0] if num[0] else 1)
    lcm, row = math.lcm(*dens), [0] * size
    for (k, num, den), q in zip(vals, dens):
        row[k] = num[0] * den[1] * (lcm // q)
    return row


def _zpi_row(size: int, entries: Sequence[RowEntry], point: Mapping[str, Fraction]) -> List[ZPi]:
    """``cleared_row`` where some value keeps ``@pi``: each value
    (cn / ln) / (cd / ld) as the ZPi pair (cn ld, cd ln), ``over_one``."""
    places, pairs = [], []
    for k, num, den in entries:
        num, den = (x if type(x) is tuple else x._value_at(point) for x in (num, den))
        (cn, ln), (cd, ld) = _zpi_pair(num), _zpi_pair(den)
        if not cd:
            raise ZeroDivisionError("denominator vanishes at sample point")
        places.append(k)
        pairs.append((_zmul(cn, (ld,)), _zmul(cd, (ln,))))
    zrow: List[ZPi] = [()] * size
    for k, x in zip(places, over_one(pairs)[0]):
        zrow[k] = x
    return zrow


def pi_powers(row: Sequence) -> List[Sequence[int]]:
    """A row of ints, or of ZPi, as integer rows r_k with row = sum_k @pi^k r_k."""
    if type(row[0]) is int:
        return [row]
    return [[c[k] if k < len(c) else 0 for c in row] for k in range(max(map(len, row)))]


def qpi(num: Sequence[Scalar], den: Sequence[Scalar] = (1,)) -> Union[Fraction, "QPi"]:
    """The value num(@pi)/den(@pi), coefficients from the constant term up."""
    d = _utrim([_as_fraction(c) for c in den])
    if not d:
        raise ZeroDivisionError("zero denominator in Q(@pi)")
    return _lowest(_utrim([_as_fraction(c) for c in num]), d)


# Poly and RationalFn are never changed after construction, so every caller
# shares these; a RationalFn with a constant denominator holds _UNIT there
_ZERO = Poly((), {})
_UNIT = Poly((), {(): 1})
_RZERO = RationalFn(_ZERO, _UNIT)


def _reduced(num: Poly, den: Poly) -> RationalFn:
    """The RationalFn num / den, where that pair is already in normal form."""
    fn = object.__new__(RationalFn)
    fn.num, fn.den = num, den
    return fn


class QPi:
    """An element of Q(@pi) outside Q: the value at a point of an entry
    that keeps ``@pi``.

    ``num`` and ``den`` are ``UPoly`` coefficient tuples.  ``qpi`` and the
    arithmetic build every instance in lowest terms (Euclid's gcd) with a
    monic ``den``, and give a Fraction where the value is rational.  So a
    value has one representation: ``==`` compares coefficients, ``hash``
    agrees with it, and a QPi never equals a Fraction.  Operands may be
    Fractions or ints.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly):
        # internal: callers pass a canonical, non-rational pair
        self.num = num
        self.den = den

    def __add__(self, other: object) -> Union[Fraction, "QPi"]:
        if isinstance(other, (int, Fraction)):
            # num + c den stays coprime to den
            return QPi(_uadd(self.num, _uscale(self.den, other)), self.den) if other else self
        if type(other) is not QPi:
            return NotImplemented
        if self.den == other.den:
            return _lowest(_uadd(self.num, other.num), self.den)
        return _lowest(
            _uadd(_umul(self.num, other.den), _umul(other.num, self.den)),
            _umul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self) -> "QPi":
        return QPi(tuple(-x for x in self.num), self.den)

    def __sub__(self, other: object) -> Union[Fraction, "QPi"]:
        if not isinstance(other, (int, Fraction, QPi)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> Union[Fraction, "QPi"]:
        return -self + other

    def __mul__(self, other: object) -> Union[Fraction, "QPi"]:
        if isinstance(other, (int, Fraction)):
            return QPi(_uscale(self.num, other), self.den) if other else Fraction(0)
        if type(other) is not QPi:
            return NotImplemented
        return _lowest(_umul(self.num, other.num), _umul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self) -> "QPi":
        lead = 1 / self.num[-1]
        return QPi(_uscale(self.den, lead), _uscale(self.num, lead))

    def __truediv__(self, other: object) -> Union[Fraction, "QPi"]:
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if type(other) is not QPi:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: object) -> Union[Fraction, "QPi"]:
        return self.inverse() if other == 1 else self.inverse() * other

    def __bool__(self) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        if type(other) is QPi:
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        def text(c: UPoly) -> str:
            terms = []
            for k, x in reversed(list(enumerate(c))):
                if x:
                    mono = "" if k == 0 else PI if k == 1 else f"{PI}^{k}"
                    coeff = "" if mono and abs(x) == 1 else f"{abs(x)}" + ("*" if mono else "")
                    terms.append(("- " if x < 0 else "+ ") + coeff + mono)
            line = " ".join(terms)
            return line[2:] if line[0] == "+" else "-" + line[2:]

        if self.den == _ONE:
            return f"({text(self.num)})"
        return f"({text(self.num)})/({text(self.den)})"


Mode = Tuple[int, str]


class TrigPoly:
    """Finite Fourier series in the flow parameter with Poly coefficients.

    ``terms[(k, "cos")]`` and ``terms[(k, "sin")]`` hold the coefficient of
    cos(k t) and sin(k t).  Mode 0 only carries a cos entry.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Mode, Poly]):
        clean: Dict[Mode, Poly] = {}
        for (k, part), p in terms.items():
            if p.is_zero():
                continue
            if k < 0 or (k == 0 and part == SIN):
                raise ValueError("modes must be normalized (k >= 0, no sin 0)")
            clean[(k, part)] = p
        self.terms = clean

    # -- construction ----------------------------------------------------

    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly({})

    @staticmethod
    def const_poly(p: Poly) -> "TrigPoly":
        return TrigPoly({(0, COS): p})

    @staticmethod
    def cosine(k: int, coeff: Poly) -> "TrigPoly":
        k = abs(k)
        return TrigPoly({(k, COS): coeff})

    @staticmethod
    def sine(k: int, coeff: Poly) -> "TrigPoly":
        if k == 0:
            return TrigPoly.zero()
        if k < 0:
            return TrigPoly({(-k, SIN): -coeff})
        return TrigPoly({(k, SIN): coeff})

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        terms = dict(self.terms)
        for m, p in other.terms.items():
            s = terms.get(m)
            terms[m] = p if s is None else s + p
        return TrigPoly(terms)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly({m: -p for m, p in self.terms.items()})

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        out: Dict[Mode, Poly] = {}

        def bump(k: int, part: str, p: Poly) -> None:
            if p.is_zero():
                return
            if part == SIN:
                if k == 0:
                    return
                if k < 0:
                    k, p = -k, -p
            else:
                k = abs(k)
            cur = out.get((k, part))
            s = p if cur is None else cur + p
            if s.is_zero():
                out.pop((k, part), None)
            else:
                out[(k, part)] = s

        half = Fraction(1, 2)
        for (k1, p1), c1 in self.terms.items():
            for (k2, p2), c2 in other.terms.items():
                c = (c1 * c2).scale(half)
                if p1 == COS and p2 == COS:
                    bump(k1 - k2, COS, c)
                    bump(k1 + k2, COS, c)
                elif p1 == SIN and p2 == SIN:
                    bump(k1 - k2, COS, c)
                    bump(k1 + k2, COS, -c)
                elif p1 == SIN and p2 == COS:
                    bump(k1 + k2, SIN, c)
                    bump(k1 - k2, SIN, c)
                else:  # cos * sin
                    bump(k1 + k2, SIN, c)
                    bump(k2 - k1, SIN, c)
        return TrigPoly(out)

    def __pow__(self, n: int) -> "TrigPoly":
        out = TrigPoly.const_poly(Poly.const(1))
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted((m, hash(p)) for m, p in self.terms.items())))

    # -- evaluation and integrals -----------------------------------------

    def eval_float(self, t: float, point: Mapping[str, float]) -> float:
        total = 0.0
        for (k, part), p in self.terms.items():
            w = math.cos(k * t) if part == COS else math.sin(k * t)
            total += p.eval_float(point) * w
        return total

    def mean(self) -> Poly:
        """Normalized average over one period: the mode-0 cosine coefficient."""
        return self.terms.get((0, COS), Poly.zero())

    def weighted_moment(self) -> Poly:
        """Closed form of ``-(1/2pi) * int_0^{2pi} (t - pi) g(t) dt``.

        Uses: the weight (t - pi) integrates cos(kt) to 0 for all k and
        sin(kt) to -2*pi/k for k >= 1, so the result is
        ``sum_k sin_coeff(k) / k``.
        """
        out = Poly.zero()
        for (k, part), p in self.terms.items():
            if part == SIN and k >= 1:
                out = out + p.scale(Fraction(1, k))
        return out


def parse_fraction(text: str) -> Fraction:
    """Parse a decimal-free rational literal "p", "-p" or "p/q"."""
    s = text.strip()
    body = s[1:] if s[:1] in "+-" else s
    if not body or not all(part.isdigit() for part in body.split("/", 1)) or body.count("/") > 1:
        raise ValueError(f"invalid rational literal {text!r}")
    return Fraction(s)


def format_fraction(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"
