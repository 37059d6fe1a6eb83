"""Linear circle and torus actions: exact flow pullback and averaging.

A circle action rotates disjoint coordinate planes with integer weights.
Orientation is fixed once: the generator of a weight-1 plane (i, j) is
``u_i d_j - u_j d_i`` and the flow is the counterclockwise rotation

    u_i(t) = u_i cos(wt) - u_j sin(wt),   u_j(t) = u_i sin(wt) + u_j cos(wt).

The flow pullback writes cos(wt) and sin(wt) as two reserved polynomial
variables, ``@c<w>`` and ``@s<w>``, one pair per distinct weight w of the
circle, so a pulled-back component is an ordinary ``Poly`` and the pullback
runs on ``Poly`` products alone.  The mean over one period and the homotopy
operator

    delta(F) = -(1/2pi) Int_0^{2pi} (t - pi) (Fl^t)* F dt + pi <F>

are linear in those variables' monomials: each exponent pattern of
cos(w t)^a sin(w t)^b ... contributes its mean and its weighted moment, taken
once per circle from ``TrigPoly.mean`` and ``TrigPoly.weighted_moment``.  The
symbol pi stays formal (the reserved ring variable), keeping every identity
coefficient-exact.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import add
from typing import Dict, List, Sequence, Tuple, Union

from .config import PI
from .rings import Poly, RationalFn, Scalar, TrigPoly, _canon
from . import tensors as tn
from .tensors import (
    Chart,
    MultivectorField,
    VectorValued1Form,
    _Tensor,
    sort_with_sign,
    vector_field,
    vf_bracket,
)

Idx = Tuple[int, ...]

# (pulled-back numerator, invariant denominator)
Entry = Tuple[Poly, Poly]

AnyTensor = Union[_Tensor, VectorValued1Form, RationalFn]

_ONE = Poly.const(1)


def angle_vars(w: int) -> Tuple[str, str]:
    """The reserved variables that stand for cos(wt) and sin(wt)."""
    return f"@c{w}", f"@s{w}"


def _entry_add(a: Entry, b: Entry) -> Entry:
    na, da = a
    nb, db = b
    if da == db:
        return na + nb, da
    return na * db + nb * da, da * db


class CircleAction:
    """A linear circle action rotating disjoint coordinate planes."""

    def __init__(self, chart: Chart, planes: Sequence[Tuple[int, int, int]]):
        self.chart = chart
        used: set = set()
        norm: List[Tuple[int, int, int]] = []
        for (i, j, w) in planes:
            if not (isinstance(w, int) and w >= 1):
                raise ValueError("plane weight must be an integer >= 1")
            if i == j:
                raise ValueError("plane indices must differ")
            for k in (i, j):
                if k < 0 or k >= chart.dim:
                    raise ValueError("plane index out of range")
                if k in used:
                    raise ValueError("planes must use disjoint coordinates")
                used.add(k)
            norm.append((i, j, w))
        # no planes is allowed: the trivial action with zero generator
        self.planes: Tuple[Tuple[int, int, int], ...] = tuple(norm)
        # rows[k] = [(m, R[k][m])] and cols[k] = [(m, R[m][k])] over the
        # nonzero entries of the rotation matrix R(t), in the plane's order
        coords = chart.coords
        self._rows: List[List[Tuple[int, Poly]]] = [[(k, _ONE)] for k in range(chart.dim)]
        self._cols: List[List[Tuple[int, Poly]]] = [[(k, _ONE)] for k in range(chart.dim)]
        # angle variable -> the powers of cos(wt) or sin(wt) as TrigPolys,
        # from the first; higher ones are appended on first use
        self._angles: Dict[str, List[TrigPoly]] = {}
        comps: Dict[int, RationalFn] = {}
        for (i, j, w) in self.planes:
            c_name, s_name = angle_vars(w)
            self._angles[c_name] = [TrigPoly.cosine(w, _ONE)]
            self._angles[s_name] = [TrigPoly.sine(w, _ONE)]
            # built directly: Poly.var refuses reserved '@' names
            c, s = Poly((c_name,), {(1,): 1}), Poly((s_name,), {(1,): 1})
            self._rows[i], self._rows[j] = [(i, c), (j, -s)], [(i, s), (j, c)]
            self._cols[i], self._cols[j] = [(i, c), (j, s)], [(i, -s), (j, c)]
            comps[j] = RationalFn.var(coords[i]).scale(w)
            comps[i] = RationalFn.var(coords[j]).scale(-w)
        self._generator = vector_field(chart, comps)
        self._moving = {coords[k] for (i, j, _w) in self.planes for k in (i, j)}
        self._coord_pull = [
            reduce(add, [r * Poly.var(coords[m]) for (m, r) in row]) for row in self._rows
        ]
        # (angle variables, their exponents) -> (mean, weighted moment)
        self._moments: Dict[Tuple[Tuple[str, ...], Tuple[int, ...]], Tuple[Scalar, Scalar]] = {}

    # -- generator and invariance ----------------------------------------

    def generator(self) -> MultivectorField:
        return self._generator

    def is_invariant_scalar(self, f: Union[Poly, RationalFn]) -> bool:
        f = RationalFn.of(f)
        return tn.apply_vector(self._generator, f).is_zero()

    # -- scalar pullback --------------------------------------------------

    def pullback_poly(self, p: Poly) -> Poly:
        """p composed with the flow, in the coordinates and angle variables."""
        if not any(v in self._moving for v in p.vars):
            return p
        cache: Dict[Tuple[int, int], Poly] = {}

        def power(vi: int, e: int) -> Poly:
            key = (vi, e)
            got = cache.get(key)
            if got is None:
                got = self._var_pull(p.vars[vi]) ** e
                cache[key] = got
            return got

        total = Poly.zero()
        for exps, coeff in p.terms.items():
            term = Poly.const(coeff)
            for vi, e in enumerate(exps):
                if e:
                    term = term * power(vi, e)
            total = total + term
        return total

    def _var_pull(self, name: str) -> Poly:
        if name == PI:
            return Poly.var(PI)
        return self._coord_pull[self.chart.index(name)]

    def pullback_rational(self, f: RationalFn) -> Entry:
        if not f.den.is_const() and not self.is_invariant_scalar(RationalFn.from_poly(f.den)):
            raise ValueError(
                "denominator is not invariant under the circle action; "
                "the flow pullback leaves the supported function ring"
            )
        return self.pullback_poly(f.num), f.den

    # -- tensor pullback --------------------------------------------------

    def pullback_flow(self, t: AnyTensor) -> Union[Entry, Dict[Idx, Entry], List[List[Entry]]]:
        """Pullback along the flow: an entry for a scalar, entries per
        component for a tensor, an entry matrix for a (1,1)-tensor.

        Covariant and contravariant basis legs both transform by the row of
        the rotation matrix attached to their index (the inverse-transpose
        rule coincides with the direct rule for rotations).
        """
        if isinstance(t, RationalFn):
            return self.pullback_rational(t)
        if isinstance(t, VectorValued1Form):
            return self._pullback_vv1(t)
        if not isinstance(t, _Tensor):
            raise TypeError(f"unsupported tensor type {type(t).__name__}")
        out: Dict[Idx, Entry] = {}
        for idx, val in t.comps.items():
            num, den = self.pullback_rational(val)
            legs: Dict[Idx, Poly] = {(): _ONE}
            for k in idx:
                nxt: Dict[Idx, Poly] = {}
                for part, leg in legs.items():
                    for (m, r) in self._rows[k]:
                        srt, sign = sort_with_sign(part + (m,))
                        if srt is None:
                            continue
                        term = leg * r if sign == 1 else -(leg * r)
                        cur = nxt.get(srt)
                        nxt[srt] = term if cur is None else cur + term
                legs = {i: v for i, v in nxt.items() if v.terms}
            for part, leg in legs.items():
                entry = (leg * num, den)
                cur = out.get(part)
                out[part] = entry if cur is None else _entry_add(cur, entry)
        return out

    def _pullback_vv1(self, k: VectorValued1Form) -> List[List[Entry]]:
        # R(t)^T (K o Fl^t) R(t): entry (i, j) meets only the a and b of
        # the planes of i and j
        n = self.chart.dim
        pulled = [[self.pullback_rational(k.matrix[a][b]) for b in range(n)] for a in range(n)]
        cols = self._cols
        out: List[List[Entry]] = []
        for i in range(n):
            out_row: List[Entry] = []
            for j in range(n):
                acc: Entry = (Poly.zero(), _ONE)
                for (a, r_ai) in cols[i]:
                    for (b, r_bj) in cols[j]:
                        g, d = pulled[a][b]
                        if g.terms:
                            acc = _entry_add(acc, ((r_ai * r_bj) * g, d))
                out_row.append(acc)
            out.append(out_row)
        return out

    # -- averaging operators ----------------------------------------------

    def average(self, t: AnyTensor) -> AnyTensor:
        return self._integrate(t, delta=False)

    def delta_g(self, t: AnyTensor) -> AnyTensor:
        return self._integrate(t, delta=True)

    def _integrate(self, t: AnyTensor, delta: bool) -> AnyTensor:
        pulled = self.pullback_flow(t)
        if isinstance(t, RationalFn):
            return self._integral(pulled, delta)
        if isinstance(t, VectorValued1Form):
            return VectorValued1Form(
                self.chart, [[self._integral(e, delta) for e in row] for row in pulled]
            )
        comps = {idx: self._integral(e, delta) for idx, e in pulled.items()}
        return type(t)(self.chart, t.degree, comps)

    def _integral(self, entry: Entry, delta: bool) -> RationalFn:
        """The mean of an entry over one period, or its homotopy operator delta."""
        g, den = entry
        if delta:
            return RationalFn(self._kernel(g, 1) + Poly.var(PI) * self._kernel(g, 0), den)
        return RationalFn(self._kernel(g, 0), den)

    def _kernel(self, p: Poly, which: int) -> Poly:
        """p with each monomial in the angle variables replaced by its mean
        (``which`` 0) or its weighted moment (``which`` 1)."""
        at = [i for i, v in enumerate(p.vars) if v in self._angles]
        if not at:
            return p if which == 0 else Poly.zero()
        keep = [i for i, v in enumerate(p.vars) if v not in self._angles]
        names = tuple(p.vars[i] for i in at)
        terms: Dict[Tuple[int, ...], Scalar] = {}
        for e, c in p.terms.items():
            m = self._moments_of(names, tuple(e[i] for i in at))[which]
            if m:
                key = tuple(e[i] for i in keep)
                s = terms.get(key)
                s = c * m if s is None else s + c * m
                if s == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = _canon(s)
        return Poly(tuple(p.vars[i] for i in keep), terms)

    def _moments_of(self, names: Tuple[str, ...], exps: Tuple[int, ...]) -> Tuple[Scalar, Scalar]:
        """The mean and weighted moment of a product of powers of the named
        angle variables' cos(wt) and sin(wt)."""
        key = (names, exps)
        got = self._moments.get(key)
        if got is None:
            g = None
            for name, e in zip(names, exps):
                if e:
                    powers = self._angles[name]
                    while len(powers) < e:
                        powers.append(powers[-1] * powers[0])
                    g = powers[e - 1] if g is None else g * powers[e - 1]
            if g is None:
                g = TrigPoly.const_poly(_ONE)
            got = (g.mean().const_value(), g.weighted_moment().const_value())
            self._moments[key] = got
        return got


class TorusAction:
    """A torus action given by circle factors on pairwise disjoint planes."""

    def __init__(self, circles: Sequence[CircleAction]):
        if not circles:
            raise ValueError("a torus action needs at least one circle")
        chart = circles[0].chart
        used: set = set()
        for c in circles:
            if c.chart != chart:
                raise ValueError("circle factors live on different charts")
            for (i, j, _w) in c.planes:
                if i in used or j in used:
                    raise ValueError("torus circle planes must be pairwise disjoint")
                used.add(i)
                used.add(j)
        self.chart = chart
        self.circles: Tuple[CircleAction, ...] = tuple(circles)
        for a, b in itertools.combinations(self.circles, 2):
            if not vf_bracket(a.generator(), b.generator()).is_zero():
                raise AssertionError("torus generators do not commute")

    def average(self, t: AnyTensor) -> AnyTensor:
        cur = t
        for c in self.circles:
            cur = c.average(cur)
        return cur


Action = Union[CircleAction, TorusAction]


def lie_vv1(a: MultivectorField, k: VectorValued1Form) -> VectorValued1Form:
    """Lie derivative of a (1,1)-tensor along a vector field, columnwise."""
    chart = k.chart
    n = chart.dim
    cols = [k.column(j) for j in range(n)]
    da: Dict[Tuple[int, int], RationalFn] = {}
    for (l,), al in a.comps.items():
        for j, name in enumerate(chart.coords):
            d = al.diff(name)
            if not d.is_zero():
                da[(j, l)] = d
    out = [[RationalFn.zero() for _ in range(n)] for _ in range(n)]
    for j in range(n):
        # [a, K e_j] - K([a, e_j]);  [a, e_j] = -(d_j a^l) e_l
        parts = [vf_bracket(a, cols[j])]
        parts += [cols[l].scale(d) for (jj, l), d in da.items() if jj == j]
        for (i,), v in MultivectorField.sum_of(chart, 1, parts).comps.items():
            out[i][j] = v
    return VectorValued1Form(chart, out)

