"""Dirac structures as explicit frames of (vector, covector) sections.

A frame holds n sections on an n-chart, isotropic (checked symbolically)
and with its rank at a rational sample point kept beside its rows there;
each section evaluates its row from a plan it builds once.  Graphs, coupling
frames and their gauge transforms have rank n by construction off known
poles.  Where the rank is n the frame spans a Lagrangian L = L^perp: a
vector lies in L exactly when it pairs to zero with every section, which
decides spans of rank n (over Z[@pi] where @pi survives) and involutivity.
Other ranks and spans of lower rank take exact linear algebra at the points,
and the coupling position one determinant per frame.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .linalg import Value
from .reports import CheckResult, failed
from .rings import Poly, RationalFn, cleared_row, pi_powers
from .sampling import Point, PointwiseRun, format_point, sweep, verdict
from .tensors import (
    Chart, DifferentialForm, MultivectorField, d_scalar, exterior_derivative, interior_product,
    lie_derivative, one_form, sharp_bivector, vf_bracket,
)

if TYPE_CHECKING:
    from .coupling import Connection


@dataclass
class DiracSection:
    """A section (X, alpha) of TM + T*M."""

    vector: MultivectorField
    covector: DifferentialForm
    _plan: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.vector.degree != 1 or self.covector.degree != 1:
            raise ValueError("sections need a vector field and a 1-form")
        if self.vector.chart != self.covector.chart:
            raise ValueError("section parts live on different charts")

    @property
    def chart(self) -> Chart:
        return self.vector.chart

    def components_at(self, point: Point) -> List[Value]:
        """The 2n component values at a rational point, times one nonzero
        scalar that rank, span and solvability do not see: ``int``s, or
        ``ZPi``s where ``@pi`` survives (``cleared_row``), from the unreduced
        pairs of ``Poly._value_at`` with no ``Fraction`` built.  A vanishing
        denominator raises ZeroDivisionError.  The section's ``_row_plan`` is
        built on the first call and kept.
        """
        if self._plan is None:
            self._plan = _row_plan(self)
        size, plan, row = self._plan
        return list(row) if row is not None else cleared_row(size, plan, point)


def _row_plan(s: DiracSection) -> tuple:
    """The 2n entries (None where zero); (place, numerator, denominator) of
    each nonzero one, a constant as the integer pair ``_value_at`` gives it;
    and the row itself where every entry is constant."""
    comps = [f.comps.get((i,)) for f in (s.vector, s.covector) for i in range(s.chart.dim)]
    plan = [(k, *(p._value_at({}) if p.is_const() else p for p in (c.num, c.den)))
            for k, c in enumerate(comps) if c is not None]
    fixed = all(type(num) is type(den) is tuple for _, num, den in plan)
    return len(comps), plan, cleared_row(len(comps), plan, {}) if fixed else None


def pairing(s: DiracSection, t: DiracSection) -> RationalFn:
    """The symmetric pairing <(X, a), (Y, b)> = b(X) + a(Y)."""
    if s.chart != t.chart:
        raise ValueError("charts differ")
    return t.covector.evaluate(s.vector) + s.covector.evaluate(t.vector)


class DiracFrame:
    """n sections spanning an almost Dirac structure on an n-chart."""

    def __init__(self, sections: Sequence[DiracSection], poles: Optional[Tuple[Poly, ...]] = None):
        if not sections:
            raise ValueError("empty frame")
        chart = sections[0].chart
        if any(s.chart != chart for s in sections):
            raise ValueError("sections live on different charts")
        if len(sections) != chart.dim:
            raise ValueError(f"frame needs {chart.dim} sections, got {len(sections)}")
        self.chart = chart
        self.sections: Tuple[DiracSection, ...] = tuple(sections)
        # if given, the rank is n wherever the rows are finite and no pole vanishes
        self.poles = poles
        # id(point) -> (point, rows) and (point, rank), as in ``Derivation``:
        # the point is held so its id is not reused while the frame lives
        self._rows: Dict[int, Tuple[Point, Tuple[Tuple[Value, ...], ...]]] = {}
        self._ranks: Dict[int, Tuple[Point, int]] = {}
        # every pairing rule below rests on this
        for i, j in itertools.combinations_with_replacement(range(chart.dim), 2):
            p = pairing(self.sections[i], self.sections[j])
            if not p.is_zero():
                raise ValueError(f"frame is not isotropic: <s_{i}, s_{j}> = {p!r}")

    # -- pointwise data ----------------------------------------------------

    def matrix_at(self, point: Point) -> List[Sequence[Value]]:
        """One row per section, its ``components_at(point)``.

        The rows are evaluated once per point object and kept while the
        frame lives; each call returns a new list of immutable rows.
        """
        hit = self._rows.get(id(point))
        if hit is None:
            rows = tuple(tuple(s.components_at(point)) for s in self.sections)
            hit = self._rows[id(point)] = (point, rows)
        return list(hit[1])

    def rank_at(self, point: Point) -> int:
        """The rank of the rows at the point, kept beside them: n with no
        elimination where ``poles`` allows it."""
        hit = self._ranks.get(id(point))
        if hit is None:
            rows = self.matrix_at(point)
            known = self.poles is not None and not any(d.vanishes_at(point) for d in self.poles)
            hit = self._ranks[id(point)] = (point, self.chart.dim if known else linalg.rank(rows))
        return hit[1]

    def rank_ok_at(self, point: Point) -> bool:
        return self.rank_at(point) == self.chart.dim

    def validate_rank(self, points: List[Point]) -> CheckResult:
        return _verdict("frame-rank", *sweep(points, self.rank_ok_at))


def _verdict(
    check: str, run: PointwiseRun, first_fail: Optional[Point], **fail_info: object
) -> CheckResult:
    """A frame sweep's check by the sweep rule, with its failing point."""
    failure = None if first_fail is None else failed(
        check, point=format_point(first_fail), usable=run.usable, **fail_info)
    return verdict(check, run, failure, {"usable": run.usable, "total": run.total})


def graph_of_bivector(pi: MultivectorField) -> DiracFrame:
    """The frame {(Pi# du_i, du_i)} spanning the graph of a bivector; its
    covector block is the identity, so its rank is n wherever it is finite."""
    if pi.degree != 2:
        raise ValueError("expects a bivector")
    dus = [one_form(pi.chart, {i: RationalFn.const(1)}) for i in range(pi.chart.dim)]
    return DiracFrame([DiracSection(sharp_bivector(pi, du), du) for du in dus], poles=())


def gauge_transform(frame: DiracFrame, b: DifferentialForm) -> DiracFrame:
    """Shift the covector parts by the closed 2-form b: (X, a - i_X b).
    The shift is invertible where b is finite, so a rank known by
    construction stays known off the poles of b."""
    if b.degree != 2:
        raise ValueError("gauge form must be a 2-form")
    if not exterior_derivative(b).is_zero():
        raise ValueError("gauge form is not closed")
    out = [DiracSection(s.vector, s.covector - interior_product(s.vector, b))
           for s in frame.sections]
    dens = tuple({c.den for c in b.comps.values() if not c.is_poly()})
    return DiracFrame(out, poles=None if frame.poles is None else frame.poles + dens)


def courant_bracket(s: DiracSection, t: DiracSection) -> DiracSection:
    """[(X, a), (Y, b)] = ([X, Y], L_X b - L_Y a + d(a(Y) - b(X)) / 2)."""
    if s.chart != t.chart:
        raise ValueError("charts differ")
    (x, a), (y, b) = (s.vector, s.covector), (t.vector, t.covector)
    half = (a.evaluate(y) - b.evaluate(x)).scale(Fraction(1, 2))
    cov = lie_derivative(x, b) - lie_derivative(y, a) + d_scalar(half, s.chart)
    return DiracSection(vf_bracket(x, y), cov)


def same_span_at(f1: DiracFrame, f2: DiracFrame, point: Point) -> bool:
    """True when the two frames span the same subspace at the point.

    Two frames of rank n span Lagrangians, each its own orthogonal,
    so they agree exactly when every row of one pairs to zero with every row
    of the other.  Rows over Z[@pi] pair by their coefficients in @pi, each
    of which must vanish.  Equal ranks below n compare with the rows stacked.
    """
    m1, m2 = f1.matrix_at(point), f2.matrix_at(point)
    r = f1.rank_at(point)
    if r != f2.rank_at(point):
        return False
    n = f1.chart.dim
    if r < n:
        return linalg.rank(m1 + m2) == r
    mul = operator.mul
    # <u, v> is the dot product of u with v's halves swapped, taken per
    # pair of powers of @pi
    swapped = [pi_powers(v[n:] + v[:n]) for v in m2]
    for us in map(pi_powers, m1):
        for vs in swapped:
            if len(us) == len(vs) == 1:
                if sum(map(mul, us[0], vs[0])):
                    return False
                continue
            acc = [0] * (len(us) + len(vs))
            for a, u in enumerate(us):
                for b, v in enumerate(vs):
                    acc[a + b] += sum(map(mul, u, v))
            if any(acc):
                return False
    return True


def involutivity_check(frame: DiracFrame, points: List[Point]) -> CheckResult:
    """Closure of the frame under the Courant bracket, decided pointwise.

    Where the frame has rank n, [s_i, s_j] lies in its span exactly when the
    Courant tensor <[s_i, s_j], s_k> vanishes for every k.  The tensor is
    skew on an isotropic frame, so only k outside {i, j} are derived, once.
    A point with a pole in the frame or rank below n is skipped, and so is
    one with a pole in a bracket, unless an earlier pair already lies
    outside the span.  The first pair outside is the witness.
    """
    s, n = frame.sections, frame.chart.dim
    pairs = list(itertools.combinations(range(n), 2))
    # per pair: its bracket's denominators and its tensor's nonzero terms
    terms: List[Tuple[set, List[RationalFn]]] = []
    for i, j in pairs:
        br = courant_bracket(s[i], s[j])
        comps = [*br.vector.comps.values(), *br.covector.comps.values()]
        tensor = [pairing(br, s[k]) for k in range(n) if k not in (i, j)]
        terms.append(({c.den for c in comps if not c.is_poly()},
                      [t for t in tensor if not t.is_zero()]))
    dens = set().union(*(d for d, _ in terms))
    witness: Dict[str, object] = {}

    def probe(p: Point) -> bool:
        frame.matrix_at(p)
        poles = {d for d in dens if d.vanishes_at(p)}
        late = next((m for m, (d, _) in enumerate(terms) if d & poles), len(pairs))
        if frame.rank_at(p) != n:
            raise ArithmeticError("rank-deficient frame at sample point")
        outside = next((m for m in range(late) if not all(t.num.vanishes_at(p) for t in terms[m][1])), None)
        if outside is None:
            if late < len(pairs):
                raise ZeroDivisionError("denominator vanishes at sample point")
            return True
        witness.setdefault("pair", list(pairs[outside]))
        return False

    return _verdict("involutivity", *sweep(points, probe), witness=witness or None)


def coupling_test(frame: DiracFrame, conn: "Connection", points: List[Point]
                  ) -> Tuple[CheckResult, Optional[List[MultivectorField]]]:
    """Transversality of the frame's horizontal distribution.

    H = {Z : (Z, a) in D for some a annihilating the verticals} is computed
    as the symbolic kernel of the fiber-components of the covector parts.
    V is spanned by the fiber fields, so the coupling condition H + V = TM
    (direct sum) holds at a sample point exactly where the determinant of
    H's base block is nonzero.  Its denominator divides the product of the
    entries', so a point where no entry of H has a pole is one where it is
    finite; a point where one has is skipped, even where the determinant is
    finite there.  Returns the check result and a spanning set for H when it
    holds.
    """
    n, b = len(frame.sections), conn.fol.b
    # rows: fiber components of each section's covector; kernel combos have
    # covector parts annihilating the vertical distribution
    rows = [[frame.sections[k].covector.comps.get((fi,), RationalFn.zero()) for k in range(n)]
            for fi in conn.fol.fiber]
    combos = linalg.kernel_basis(rows)
    h_fields = [sum((frame.sections[k].vector.scale(ck) for k, ck in enumerate(c) if ck),
                    MultivectorField.zero(frame.chart, 1)) for c in combos]
    if len(h_fields) != b:
        return failed("coupling", witness={"horizontal_rank": len(h_fields), "expected": b}), None

    det = linalg.det([[h.comps.get((i,), RationalFn.zero()) for i in conn.fol.base]
                      for h in h_fields])
    dens = {c.den for h in h_fields for c in h.comps.values() if not c.is_poly()}

    def probe(p: Point) -> bool:
        if any(d.vanishes_at(p) for d in dens):
            raise ZeroDivisionError("denominator vanishes at sample point")
        return not det.num.vanishes_at(p)

    check = _verdict("coupling", *sweep(points, probe))
    return check, h_fields if check.passed else None
