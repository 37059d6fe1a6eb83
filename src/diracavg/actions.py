"""Linear circle and torus actions: exact flow pullback and averaging.

A circle action rotates disjoint coordinate planes with integer weights.  The
flow pullback of a tensor with polynomial components is again polynomial with
trigonometric coefficients in the flow time, so the averaging operator (mean
over one period) and the homotopy operator delta are evaluated in closed form.

Orientation is fixed once: the generator of a weight-1 plane (i, j) is
``u_i d_j - u_j d_i`` and the flow is the counterclockwise rotation

    u_i(t) = u_i cos(wt) - u_j sin(wt),   u_j(t) = u_i sin(wt) + u_j cos(wt).

The homotopy operator is

    delta(F) = -(1/2pi) Int_0^{2pi} (t - pi) (Fl^t)* F dt + pi <F>

whose closed form, per trig mode, is ``sum_k s_k / k + pi * c_0`` with s_k the
sine and c_0 the constant cosine coefficient.  The symbol pi stays formal (the
reserved ring variable), keeping every identity coefficient-exact.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .config import PI
from .rings import Poly, RationalFn, TrigPoly
from . import tensors as tn
from .tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    VectorValued1Form,
    _Tensor,
    sort_with_sign,
    vector_field,
    vf_bracket,
)

Idx = Tuple[int, ...]

# (numerator trig polynomial, invariant denominator)
TrigEntry = Tuple[TrigPoly, Poly]


def _entry_add(a: TrigEntry, b: TrigEntry) -> TrigEntry:
    na, da = a
    nb, db = b
    if da == db:
        return na + nb, da
    return na.scale_poly(db) + nb.scale_poly(da), da * db


def _entry_zero() -> TrigEntry:
    return TrigPoly.zero(), Poly.const(1)


def _integral(entry: TrigEntry, delta: bool) -> RationalFn:
    """The mean of an entry over one period, or its homotopy operator delta."""
    g, den = entry
    if delta:
        return RationalFn(g.weighted_moment() + Poly.var(PI) * g.mean(), den)
    return RationalFn(g.mean(), den)


class TrigTensor:
    """A tensor whose components are trig polynomials in the flow time."""

    def __init__(self, chart: Chart, kind: str, degree: int, comps: Dict[Idx, TrigEntry]):
        self.chart = chart
        self.kind = kind
        self.degree = degree
        self.comps = {i: e for i, e in comps.items() if e[0].terms}

    def integrate(self, delta: bool) -> _Tensor:
        """Every component's mean over a period, or its delta (``_integral``)."""
        cls = MultivectorField if self.kind == "multivector" else DifferentialForm
        comps = {idx: _integral(e, delta) for idx, e in self.comps.items()}
        return cls(self.chart, self.degree, comps)

    def eval_float(self, t: float, point: Mapping[str, float]) -> Dict[Idx, float]:
        out: Dict[Idx, float] = {}
        for idx, (g, den) in self.comps.items():
            out[idx] = g.eval_float(t, point) / den.eval_float(point)
        return out


class TrigMatrix:
    """A square matrix of trig-polynomial entries (for (1,1)-tensor pullback)."""

    def __init__(self, chart: Chart, entries: List[List[TrigEntry]]):
        self.chart = chart
        self.entries = entries

    def integrate(self, delta: bool) -> VectorValued1Form:
        """Every entry's mean over a period, or its delta (``_integral``)."""
        return VectorValued1Form(
            self.chart, [[_integral(e, delta) for e in row] for row in self.entries]
        )


AnyTensor = Union[_Tensor, VectorValued1Form, RationalFn]


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
        self._rows = self._basis_rows()
        self._coord_pull = self._coordinate_pullbacks()
        # one full turn is the identity on every coordinate
        for k, name in enumerate(chart.coords):
            if self._coord_pull[k].eval_at_two_pi() != Poly.var(name):
                raise AssertionError("flow is not 2pi-periodic")

    # -- construction helpers --------------------------------------------

    def _basis_rows(self) -> Dict[int, List[Tuple[int, TrigPoly]]]:
        rows: Dict[int, List[Tuple[int, TrigPoly]]] = {}
        one = Poly.const(1)
        for k in range(self.chart.dim):
            rows[k] = [(k, TrigPoly.const_poly(one))]
        for (i, j, w) in self.planes:
            cos_w = TrigPoly.cosine(w, one)
            sin_w = TrigPoly.sine(w, one)
            rows[i] = [(i, cos_w), (j, sin_w.scale_poly(Poly.const(-1)))]
            rows[j] = [(i, sin_w), (j, cos_w)]
        return rows

    def _coordinate_pullbacks(self) -> List[TrigPoly]:
        out: List[TrigPoly] = []
        for k, name in enumerate(self.chart.coords):
            acc = TrigPoly.zero()
            for (m, trig) in self._rows[k]:
                acc = acc + trig.scale_poly(Poly.var(self.chart.coords[m]))
            out.append(acc)
        return out

    # -- generator and invariance ----------------------------------------

    def generator(self) -> MultivectorField:
        comps: Dict[int, RationalFn] = {}
        for (i, j, w) in self.planes:
            ui = RationalFn.var(self.chart.coords[i])
            uj = RationalFn.var(self.chart.coords[j])
            wf = RationalFn.const(w)
            comps[j] = comps.get(j, RationalFn.zero()) + wf * ui
            comps[i] = comps.get(i, RationalFn.zero()) - wf * uj
        return vector_field(self.chart, comps)

    def is_invariant_scalar(self, f: Union[Poly, RationalFn]) -> bool:
        f = RationalFn.of(f)
        return tn.apply_vector(self.generator(), f).is_zero()

    # -- scalar pullback --------------------------------------------------

    def pullback_poly(self, p: Poly) -> TrigPoly:
        cache: Dict[Tuple[int, int], TrigPoly] = {}

        def power(vi: int, e: int) -> TrigPoly:
            key = (vi, e)
            got = cache.get(key)
            if got is None:
                got = self._var_pull(p.vars[vi]) ** e
                cache[key] = got
            return got

        total = TrigPoly.zero()
        for exps, coeff in p.terms.items():
            term = TrigPoly.const_poly(Poly.const(coeff))
            for vi, e in enumerate(exps):
                if e:
                    term = term * power(vi, e)
            total = total + term
        return total

    def _var_pull(self, name: str) -> TrigPoly:
        if name == PI:
            return TrigPoly.const_poly(Poly.var(PI))
        k = self.chart.index(name)
        return self._coord_pull[k]

    def pullback_rational(self, f: RationalFn) -> TrigEntry:
        if not f.den.is_const() and not self.is_invariant_scalar(RationalFn.from_poly(f.den)):
            raise ValueError(
                "denominator is not invariant under the circle action; "
                "the flow pullback leaves the supported function ring"
            )
        return self.pullback_poly(f.num), f.den

    # -- tensor pullback --------------------------------------------------

    def pullback_flow(self, t: AnyTensor) -> Union[TrigTensor, TrigMatrix]:
        """Pullback along the flow; components become trig polynomials.

        Covariant and contravariant basis legs both transform by the row of
        the rotation matrix attached to their index (the inverse-transpose
        rule coincides with the direct rule for rotations).
        """
        if isinstance(t, RationalFn):
            g, den = self.pullback_rational(t)
            return TrigTensor(self.chart, "form", 0, {(): (g, den)})
        if isinstance(t, VectorValued1Form):
            return self._pullback_vv1(t)
        if not isinstance(t, _Tensor):
            raise TypeError(f"unsupported tensor type {type(t).__name__}")
        out: Dict[Idx, TrigEntry] = {}
        for idx, val in t.comps.items():
            coeff = self.pullback_rational(val)
            legs: Dict[Idx, TrigPoly] = {(): TrigPoly.const_poly(Poly.const(1))}
            for k in idx:
                nxt: Dict[Idx, TrigPoly] = {}
                for part, tp in legs.items():
                    for (m, row_tp) in self._rows[k]:
                        srt, sign = sort_with_sign(part + (m,))
                        if srt is None:
                            continue
                        term = tp * row_tp
                        if sign == -1:
                            term = term.scale_poly(Poly.const(-1))
                        cur = nxt.get(srt)
                        nxt[srt] = term if cur is None else cur + term
                legs = {i: v for i, v in nxt.items() if v.terms}
            for part, tp in legs.items():
                entry = (tp * coeff[0], coeff[1])
                cur = out.get(part)
                out[part] = entry if cur is None else _entry_add(cur, entry)
        return TrigTensor(self.chart, t.kind, t.degree, out)

    def _pullback_vv1(self, k: VectorValued1Form) -> TrigMatrix:
        n = self.chart.dim
        pulled = [[self.pullback_rational(k.matrix[i][j]) for j in range(n)] for i in range(n)]
        # R(t)^{-1} (K o Fl^t) R(t); R^{-1} entries are R(-t) entries
        rot: List[List[TrigPoly]] = [
            [TrigPoly.const_poly(Poly.const(1 if i == j else 0)) for j in range(n)]
            for i in range(n)
        ]
        inv: List[List[TrigPoly]] = [
            [TrigPoly.const_poly(Poly.const(1 if i == j else 0)) for j in range(n)]
            for i in range(n)
        ]
        one = Poly.const(1)
        for (i, j, w) in self.planes:
            c = TrigPoly.cosine(w, one)
            s = TrigPoly.sine(w, one)
            neg_s = s.scale_poly(Poly.const(-1))
            rot[i][i], rot[i][j], rot[j][i], rot[j][j] = c, neg_s, s, c
            inv[i][i], inv[i][j], inv[j][i], inv[j][j] = c, s, neg_s, c
        out: List[List[TrigEntry]] = [[_entry_zero() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = _entry_zero()
                for a in range(n):
                    for b in range(n):
                        if not inv[i][a].terms or not rot[b][j].terms:
                            continue
                        g, d = pulled[a][b]
                        if not g.terms:
                            continue
                        acc = _entry_add(acc, (inv[i][a] * g * rot[b][j], d))
                out[i][j] = acc
        return TrigMatrix(self.chart, out)

    # -- averaging operators ----------------------------------------------

    def average(self, t: AnyTensor) -> AnyTensor:
        return self._integrate(t, delta=False)

    def delta_g(self, t: AnyTensor) -> AnyTensor:
        return self._integrate(t, delta=True)

    def _integrate(self, t: AnyTensor, delta: bool) -> AnyTensor:
        got = self.pullback_flow(t).integrate(delta)
        return got.scalar_value() if isinstance(t, RationalFn) else got


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

