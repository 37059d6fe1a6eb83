"""Exact scalar arithmetic: sparse polynomials, rational functions and
trigonometric polynomials over Q.

Representation choices:

* ``Poly`` stores a sorted tuple of variable names and a dict mapping exponent
  tuples to nonzero coefficients: an ``int`` where the coefficient is
  integral, a ``Fraction`` otherwise (never one with denominator 1, never a
  float), so integral arithmetic takes no gcd.  Variables are kept in sorted
  order so structural equality is canonical; arithmetic on polynomials with
  different variable sets aligns them to the union first.
* ``RationalFn`` is a numerator/denominator pair of ``Poly``.  No gcd
  normalization is performed; equality is decided by cross-multiplication
  (``a*d == c*b``), and the hash by the ratio of the leading terms in lex
  order, which a common factor does not change.  A cheap ``simplify`` pass
  (content, monomial factors, exact trial division) keeps sizes reasonable.
* ``QPi`` is an element of Q(@pi), the value at a rational point of an entry
  that keeps ``@pi``: univariate numerator and denominator over ``Fraction``
  in lowest terms (Euclid's gcd, Geddes, Czapor and Labahn, *Algorithms for
  Computer Algebra*, ch. 7) with a monic denominator, so it is canonical.
* ``TrigPoly`` stores Fourier modes of one flow parameter: a dict mapping
  ``(k, part)`` with ``part`` in ``{"cos", "sin"}`` to ``Poly`` coefficients.
  No complex exponentials are used anywhere.

The reserved variable ``@pi`` (``config.PI``) represents the circle constant
as a formal transcendental, so objects produced by the homotopy operator stay
exact.  Spatial differentiation treats it as a constant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

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


def _quo(x: Scalar, y: Scalar) -> Scalar:
    """The exact coefficient x / y, for a nonzero y."""
    if type(x) is int and type(y) is int:
        q, m = divmod(x, y)
        if not m:
            return q
    return _canon(Fraction(x) / y)


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

    def eval_frac(self, point: Mapping[str, Fraction]) -> "Poly":
        """Substitute coordinates by exact values.

        The pi symbol is never substituted here, so the result is a polynomial
        in whatever variables were left unassigned (usually none or ``@pi``).
        """
        keep = [i for i, v in enumerate(self.vars) if v not in point or v == PI]
        vs = tuple(self.vars[i] for i in keep)
        out: Dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            val = c
            for i, v in enumerate(self.vars):
                if v in point and v != PI and e[i]:
                    val *= _as_fraction(point[v]) ** e[i]
            key = tuple(e[i] for i in keep)
            s = out.get(key)
            s = val if s is None else s + val
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = _canon(s)
        return Poly(vs, out)

    def _value_at(
        self, point: Mapping[str, Fraction], pair: bool = False
    ) -> Union[Fraction, "QPi", Tuple[int, int]]:
        """The exact value at a point: a Fraction, or a ``QPi`` where ``@pi``
        survives.

        ``@pi`` is bound only where the point maps it to a value.  Any other
        variable that occurs with a nonzero exponent must be bound.  With
        ``pair``, a value free of ``@pi`` comes back unreduced, as an integer
        numerator and a positive integer denominator.
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
            num, den = _sum_at(self.terms.items(), xs)
            return (num, den) if pair else Fraction(num, den)
        by_power: Dict[int, list] = {}
        for e, c in self.terms.items():
            by_power.setdefault(e[free], []).append((e, c))
        coeffs = [Fraction(*_sum_at(by_power.get(k, ()), xs)) for k in range(max(by_power) + 1)]
        return _lowest(_utrim(coeffs), _ONE)

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


def poly_gcd_content(p: Poly) -> Fraction:
    """Positive rational content (gcd of numerators / lcm of denominators)."""
    if p.is_zero():
        return Fraction(1)
    num = 0
    den = 1
    for c in p.terms.values():
        num = math.gcd(num, abs(c.numerator))
        den = den * c.denominator // math.gcd(den, c.denominator)
    return Fraction(num, den) if num else Fraction(1)


def _common_monomial(p: Poly) -> Exponent:
    if p.is_zero():
        return ()
    mins = None
    for e in p.terms:
        mins = e if mins is None else tuple(min(a, b) for a, b in zip(mins, e))
    return mins or ()


def _shift_down(p: Poly, mono: Exponent) -> Poly:
    if not any(mono):
        return p
    return Poly(p.vars, {tuple(a - b for a, b in zip(e, mono)): c for e, c in p.terms.items()})


def poly_divmod_exact(num: Poly, den: Poly) -> Union[Poly, None]:
    """Exact multivariate division: returns num/den if remainder-free else None."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return Poly.zero()
    vs = Poly._merge_vars(num, den)
    a, b = num.aligned_to(vs), den.aligned_to(vs)
    # Leading term of b under graded-lex order.
    def key(e: Exponent) -> Tuple:
        return (sum(e), e)

    lead_b = max(b.terms, key=key)
    cb = b.terms[lead_b]
    rest = [(e, c) for e, c in b.terms.items() if e != lead_b]
    # the remainder, updated in place: each step cancels its leading term
    # and subtracts the quotient term times the rest of b
    r = dict(a.terms)
    q: Dict[Exponent, Scalar] = {}
    steps = 0
    limit = 4 * (len(a.terms) + 1) * (len(b.terms) + 1) + 64
    while r:
        steps += 1
        if steps > limit:
            return None
        lead_r = max(r, key=key)
        diff = tuple(map(sub, lead_r, lead_b))
        if any(d < 0 for d in diff):
            return None
        # graded lex is a monomial order, so each leading term, and with it
        # each quotient term, is smaller than the last: none repeats
        coeff = q[diff] = _quo(r.pop(lead_r), cb)
        for e, c in rest:
            e = tuple(map(add, diff, e))
            s = r.get(e, 0) - coeff * c
            if s == 0:
                r.pop(e, None)
            else:
                r[e] = _canon(s)
    return Poly(vs, q)


class RationalFn:
    """Exact rational function num/den with cross-multiplication equality."""

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
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-RationalFn.of(other))

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        other = RationalFn.of(other)
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        other = RationalFn.of(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def scale(self, c: Scalar) -> "RationalFn":
        return RationalFn(self.num.scale(c), self.den)

    def inverse(self) -> "RationalFn":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFn(self.den, self.num)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den is _UNIT

    def as_poly(self) -> Poly:
        if not self.is_poly():
            q = poly_divmod_exact(self.num, self.den)
            if q is None:
                raise ValueError("rational function is not polynomial")
            return q
        return self.num

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFn.const(other)
        elif isinstance(other, Poly):
            other = RationalFn.from_poly(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        if self.den is other.den:
            return self.num == other.num
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self) -> int:
        # leading terms in lex order (the order of the exponent tuples, as
        # the variables are sorted) multiply, so the ratio of num's to den's
        # is one value for every num/den that == calls equal; a constant c
        # hashes as hash(c)
        num, den = self.num, self.den
        if num.is_zero():
            return 0
        en, ed = max(num.terms), max(den.terms)
        shift = dict(zip(num.vars, en))
        for v, k in zip(den.vars, ed):
            shift[v] = shift.get(v, 0) - k
        moved = frozenset((v, k) for v, k in shift.items() if k)
        ratio = Fraction(num.terms[en]) / den.terms[ed]
        return hash((ratio, moved)) if moved else hash(ratio)

    # -- calculus ---------------------------------------------------------

    def diff(self, name: str) -> "RationalFn":
        if self.is_poly():
            return RationalFn.from_poly(self.num.diff(name))
        n = self.num.diff(name) * self.den - self.num * self.den.diff(name)
        return RationalFn(n, self.den * self.den).simplified()

    def eval_frac(self, point: Mapping[str, Fraction]) -> "RationalFn":
        den = self.den.eval_frac(point)
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes at sample point")
        return RationalFn(self.num.eval_frac(point), den)

    def value_at(self, point: Mapping[str, Fraction]) -> Union[Fraction, "QPi"]:
        """The exact value at a rational point: a Fraction, or a ``QPi``
        where ``@pi`` survives.

        ``@pi`` is bound only where the point maps it to a value.  Raises
        ZeroDivisionError where the denominator vanishes, as ``eval_frac``
        does.
        """
        num = self.num._value_at(point, True)
        den = (1, 1) if self.den is _UNIT else self.den._value_at(point, True)
        if type(num) is type(den) is tuple and den[0]:
            # neither side keeps @pi: one reduction for the value
            return Fraction(num[0] * den[1], num[1] * den[0])
        num, den = (Fraction(*x) if type(x) is tuple else x for x in (num, den))
        if not den:
            raise ZeroDivisionError("denominator vanishes at sample point")
        return num / den

    def eval_float(self, point: Mapping[str, float]) -> float:
        d = self.den.eval_float(point)
        if d == 0.0:
            raise ZeroDivisionError("denominator vanishes at sample point")
        return self.num.eval_float(point) / d

    def const_value(self) -> Fraction:
        return Fraction(self.num.const_value()) / self.den.const_value()

    def simplified(self) -> "RationalFn":
        """Cheap normalization: content, shared monomials, trial division."""
        num, den = self.num, self.den
        if num.is_zero():
            return RationalFn.zero()
        if den.is_const():
            return RationalFn(num, den)
        if len(num.terms) * len(den.terms) <= 20_000:
            q = poly_divmod_exact(num, den)
            if q is not None:
                return RationalFn(q, _UNIT)
        vs = Poly._merge_vars(num, den)
        num, den = num.aligned_to(vs), den.aligned_to(vs)
        mn, md = _common_monomial(num), _common_monomial(den)
        shared = tuple(min(a, b) for a, b in zip(mn, md)) if mn and md else ()
        if any(shared):
            num, den = _shift_down(num, shared), _shift_down(den, shared)
        cn, cd = poly_gcd_content(num), poly_gcd_content(den)
        c = cn / cd
        num = num.scale(Fraction(1) / cn)
        den = den.scale(Fraction(1) / cd)
        return RationalFn(num.scale(c), den)

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

    def scale_poly(self, p: Poly) -> "TrigPoly":
        return TrigPoly({m: q * p for m, q in self.terms.items()})

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

    def eval_at_zero(self) -> Poly:
        """Value at t = 0: sum of cosine coefficients."""
        out = Poly.zero()
        for (k, part), p in self.terms.items():
            if part == COS:
                out = out + p
        return out

    def eval_at_two_pi(self) -> Poly:
        """Value at t = 2*pi; equals the t = 0 value (period check)."""
        return self.eval_at_zero()

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
