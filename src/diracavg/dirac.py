"""Dirac structures as explicit frames of (vector, covector) sections.

A frame holds n sections on an n-dimensional chart; maximal isotropy is
verified symbolically at construction and full rank pointwise at rational
sample points.  Involutivity, coupling position against a vertical
distribution, and the induced leafwise 2-form are decided by exact linear
algebra at those points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .linalg import Value
from .reports import CheckResult, failed, passed
from .rings import RationalFn
from .sampling import Point, PointwiseRun, format_point, sweep
from .tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    d_scalar,
    exterior_derivative,
    interior_product,
    lie_derivative,
    one_form,
    sharp_bivector,
    vf_bracket,
)

if TYPE_CHECKING:
    from .coupling import Connection


@dataclass
class DiracSection:
    """A section (X, alpha) of TM + T*M."""

    vector: MultivectorField
    covector: DifferentialForm

    def __post_init__(self) -> None:
        if self.vector.degree != 1 or self.covector.degree != 1:
            raise ValueError("sections need a vector field and a 1-form")
        if self.vector.chart != self.covector.chart:
            raise ValueError("section parts live on different charts")

    @property
    def chart(self) -> Chart:
        return self.vector.chart

    def components_at(self, point: Point) -> List[Value]:
        """The 2n component values at a rational point, times one positive
        integer that rank, span and solvability do not see.

        Over Q the row is of ``int``s, cleared from the unreduced integer
        pairs of ``Poly._value_at`` with no ``Fraction`` built.  Where
        ``@pi`` survives it holds the exact values, in Q or Q(@pi) (``QPi``).
        A vanishing denominator raises ZeroDivisionError.
        """
        n = self.chart.dim
        comps = [self.vector.comps.get((i,)) for i in range(n)]
        comps += [self.covector.comps.get((i,)) for i in range(n)]
        nums, dens = [], []
        for c in comps:
            num = (0, 1) if c is None else c.num._value_at(point, True)
            den = (1, 1) if c is None or c.is_poly() else c.den._value_at(point, True)
            if type(num) is not tuple or type(den) is not tuple:
                return [Fraction(0) if c is None else c.value_at(point) for c in comps]
            if not den[0]:
                raise ZeroDivisionError("denominator vanishes at sample point")
            nums.append(num[0] * den[1])
            # a zero value keeps its denominator out of the lcm, so the row
            # stays small
            dens.append(num[1] * den[0] if num[0] else 1)
        lcm = math.lcm(*dens)
        return [p * (lcm // q) for p, q in zip(nums, dens)]


def pairing(s: DiracSection, t: DiracSection) -> RationalFn:
    """The symmetric pairing <(X, a), (Y, b)> = b(X) + a(Y)."""
    if s.chart != t.chart:
        raise ValueError("charts differ")
    return t.covector.evaluate(s.vector) + s.covector.evaluate(t.vector)


class DiracFrame:
    """n sections spanning an almost Dirac structure on an n-chart."""

    def __init__(self, sections: Sequence[DiracSection], check_isotropy: bool = True):
        if not sections:
            raise ValueError("empty frame")
        chart = sections[0].chart
        if any(s.chart != chart for s in sections):
            raise ValueError("sections live on different charts")
        if len(sections) != chart.dim:
            raise ValueError(
                f"frame needs {chart.dim} sections, got {len(sections)}"
            )
        self.chart = chart
        self.sections: Tuple[DiracSection, ...] = tuple(sections)
        # id(point) -> (point, rows), as in ``Derivation``: the point is held
        # so its id is not reused while the frame lives
        self._rows: Dict[int, Tuple[Point, Tuple[Tuple[Value, ...], ...]]] = {}
        if check_isotropy:
            for i, j in itertools.combinations_with_replacement(
                range(len(self.sections)), 2
            ):
                p = pairing(self.sections[i], self.sections[j])
                if not p.is_zero():
                    raise ValueError(
                        f"frame is not isotropic: <s_{i}, s_{j}> = {p!r}"
                    )

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

    def rank_ok_at(self, point: Point) -> bool:
        return linalg.rank(self.matrix_at(point)) == self.chart.dim

    def reduce_at(
        self, point: Point, targets: Sequence[DiracSection]
    ) -> Tuple[int, Optional[int]]:
        """Frame rank at the point and the first target outside its span.

        One elimination of [frame columns | target columns] decides both:
        the pivots in the first n columns give the rank, and the first
        target column holding a pivot is the first target outside the span
        (None when every target lies inside).  Targets are evaluated in
        order; one whose denominator vanishes re-raises ZeroDivisionError
        unless an earlier target already lies outside the span.
        """
        rows = self.matrix_at(point)
        vals: List[List[Value]] = []
        late: Optional[ZeroDivisionError] = None
        for t in targets:
            try:
                vals.append(t.components_at(point))
            except ZeroDivisionError as exc:
                late = exc
                break
        n = len(rows)
        m = [[r[c] for r in rows] + [v[c] for v in vals] for c in range(2 * self.chart.dim)]
        cols = linalg.pivot_columns(m)
        outside = next((c - n for c in cols if c >= n), None)
        if outside is None and late is not None:
            raise late
        return sum(c < n for c in cols), outside

    def validate_rank(self, points: List[Point]) -> CheckResult:
        return _verdict("frame-rank", *sweep(points, self.rank_ok_at))


def _verdict(
    check: str, run: PointwiseRun, first_fail: Optional[Point], **fail_info: object
) -> CheckResult:
    """A sweep's check: its failing point first, then the 80% rule."""
    if first_fail is not None:
        return failed(check, point=format_point(first_fail), usable=run.usable, **fail_info)
    counts = {"usable": run.usable, "total": run.total}
    short = run.shortfall()
    if short is not None:
        return failed(check, witness=short, **counts)
    return passed(check, **counts)


def graph_of_bivector(pi: MultivectorField) -> DiracFrame:
    """The frame {(Pi# du_i, du_i)} spanning the graph of a bivector."""
    if pi.degree != 2:
        raise ValueError("expects a bivector")
    chart = pi.chart
    sections = []
    for i in range(chart.dim):
        du = one_form(chart, {i: RationalFn.const(1)})
        sections.append(DiracSection(sharp_bivector(pi, du), du))
    return DiracFrame(sections)


def gauge_transform(frame: DiracFrame, b: DifferentialForm) -> DiracFrame:
    """Shift the covector parts by the closed 2-form b: (X, a - i_X b)."""
    if b.degree != 2:
        raise ValueError("gauge form must be a 2-form")
    if not exterior_derivative(b).is_zero():
        raise ValueError("gauge form is not closed")
    out = []
    for s in frame.sections:
        shift = interior_product(s.vector, b)
        out.append(DiracSection(s.vector, s.covector - shift))
    return DiracFrame(out)


def courant_bracket(s: DiracSection, t: DiracSection) -> DiracSection:
    """[(X, a), (Y, b)] = ([X, Y], L_X b - L_Y a + d(a(Y) - b(X)) / 2)."""
    if s.chart != t.chart:
        raise ValueError("charts differ")
    x, a = s.vector, s.covector
    y, b = t.vector, t.covector
    vec = vf_bracket(x, y)
    cov = lie_derivative(x, b) - lie_derivative(y, a)
    half = (a.evaluate(y) - b.evaluate(x)).scale(Fraction(1, 2))
    cov = cov + d_scalar(half, s.chart)
    return DiracSection(vec, cov)


def same_span_at(f1: DiracFrame, f2: DiracFrame, point: Point) -> bool:
    """True when the two frames span the same subspace at the point: each
    frame's rank equals the rank of their rows stacked."""
    m1 = f1.matrix_at(point)
    m2 = f2.matrix_at(point)
    return linalg.rank(m1) == linalg.rank(m2) == linalg.rank(m1 + m2)


def involutivity_check(frame: DiracFrame, points: List[Point]) -> CheckResult:
    """Closure of the frame under the Courant bracket, decided pointwise.

    The bracket of every section pair is computed symbolically once; at each
    usable sample point it must be a linear combination of the frame.  One
    elimination per point decides the frame rank and every pair; the first
    pair outside the span is the witness.
    """
    n = len(frame.sections)
    pairs = list(itertools.combinations(range(n), 2))
    brackets = [courant_bracket(frame.sections[i], frame.sections[j]) for i, j in pairs]

    witness: Dict[str, object] = {}

    def probe(p: Point) -> bool:
        rank, outside = frame.reduce_at(p, brackets)
        if rank != frame.chart.dim:
            raise ArithmeticError("rank-deficient frame at sample point")
        if outside is not None:
            if not witness:
                witness["pair"] = list(pairs[outside])
            return False
        return True

    run, first_fail = sweep(points, probe)
    return _verdict("involutivity", run, first_fail, witness=witness or None)


def coupling_test(
    frame: DiracFrame, conn: "Connection", points: List[Point]
) -> Tuple[CheckResult, Optional[List[MultivectorField]]]:
    """Transversality of the frame's horizontal distribution.

    H = {Z : (Z, a) in D for some a annihilating the verticals} is computed
    as the symbolic kernel of the fiber-components of the covector parts; the
    coupling condition H + V = TM (direct sum) is verified at sample points.
    Returns the check result and a spanning set for H when it holds.
    """
    n = len(frame.sections)
    b = conn.fol.b
    # rows: fiber components of each section's covector; kernel combos have
    # covector parts annihilating the vertical distribution
    rows = [
        [frame.sections[k].covector.comps.get((fi,), RationalFn.zero()) for k in range(n)]
        for fi in conn.fol.fiber
    ]
    combos = linalg.kernel_basis(rows)
    h_fields: List[MultivectorField] = []
    for c in combos:
        acc = MultivectorField.zero(frame.chart, 1)
        for k, ck in enumerate(c):
            if not ck.is_zero():
                acc = acc + frame.sections[k].vector.scale(ck)
        h_fields.append(acc)

    if len(h_fields) != b:
        return (
            failed("coupling", witness={"horizontal_rank": len(h_fields), "expected": b}),
            None,
        )

    h_rows = [
        [h.comps.get((i,), RationalFn.zero()) for i in range(frame.chart.dim)]
        for h in h_fields
    ]
    v_rows = [[Fraction(1 if i == j else 0) for i in range(frame.chart.dim)] for j in conn.fol.fiber]

    def probe(p: Point) -> bool:
        return linalg.rank(linalg.eval_at(h_rows, p) + v_rows) == frame.chart.dim

    check = _verdict("coupling", *sweep(points, probe))
    return check, h_fields if check.passed else None
