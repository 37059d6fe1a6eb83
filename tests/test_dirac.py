"""Frames of isotropic sections: spans, gauge moves, involutivity."""

from __future__ import annotations

import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracavg import cli, dirac, linalg
from diracavg.dirac import (
    DiracFrame,
    DiracSection,
    courant_bracket,
    gauge_transform,
    graph_of_bivector,
    involutivity_check,
    pairing,
    same_span_at,
)
from diracavg.config import PI
from diracavg.rings import Poly, RationalFn, qpi
from diracavg.sampling import _DENOM, sample_box, sweep
from diracavg.tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    one_form,
    vector_field,
)

from conftest import CHART2, CHART4, default_box, frac_point
from test_linalg import solve


def _standard_pi(chart=CHART4):
    return MultivectorField(
        chart, 2, {(0, 1): RationalFn.const(1), (2, 3): RationalFn.const(1)}
    )


def _points(chart, n=6, seed=61):
    return sample_box(chart, default_box(chart), n, seed)


def test_graph_frame_has_full_rank_and_isotropy():
    frame = graph_of_bivector(_standard_pi())
    pts = _points(CHART4)
    assert frame.validate_rank(pts).passed
    for s in frame.sections:
        for t in frame.sections:
            assert pairing(s, t).is_zero()


def test_pairing_is_symmetric():
    chart = CHART2
    s = DiracSection(vector_field(chart, {0: 1}), one_form(chart, {1: RationalFn.var("x")}))
    t = DiracSection(vector_field(chart, {1: 1}), one_form(chart, {0: 1}))
    assert pairing(s, t) == pairing(t, s)
    # <(X, a), (X, a)> = a(X)
    assert pairing(s, s) == RationalFn.var("x") * RationalFn.zero() + one_form(
        chart, {1: RationalFn.var("x")}
    ).evaluate(vector_field(chart, {0: 1}))


def test_frame_rejects_anisotropic_sections():
    chart = CHART2
    bad = [
        DiracSection(vector_field(chart, {0: 1}), one_form(chart, {0: 1})),
        DiracSection(vector_field(chart, {1: 1}), one_form(chart, {1: 1})),
    ]
    with pytest.raises(ValueError):
        DiracFrame(bad)


def test_cotangent_frame_is_involutive():
    frame = graph_of_bivector(MultivectorField.zero(CHART4, 2))
    pts = _points(CHART4)
    assert frame.validate_rank(pts).passed
    assert involutivity_check(frame, pts).passed


def test_graph_of_poisson_bivector_is_involutive():
    frame = graph_of_bivector(_standard_pi())
    assert involutivity_check(frame, _points(CHART4)).passed


def test_graph_of_nonintegrable_bivector_fails_involutivity():
    y1 = RationalFn.var("y1")
    pi = MultivectorField(CHART4, 2, {(0, 3): y1, (1, 2): RationalFn.const(1)})
    frame = graph_of_bivector(pi)
    res = involutivity_check(frame, _points(CHART4))
    assert not res.passed
    assert res.witness is not None
    assert res.point is not None


def test_courant_bracket_on_closed_sections():
    # for exact forms, ((X, df), (Y, dg)) brackets to ([X,Y], d(X g) + correction)
    chart = CHART2
    x = vector_field(chart, {0: 1})
    y = vector_field(chart, {1: RationalFn.var("x")})
    a = one_form(chart, {0: RationalFn.var("y")})
    b = one_form(chart, {1: 1})
    s = DiracSection(x, a)
    t = DiracSection(y, b)
    out = courant_bracket(s, t)
    from diracavg.tensors import vf_bracket

    assert out.vector == vf_bracket(x, y)


def test_same_span_accepts_recombinations():
    frame = graph_of_bivector(_standard_pi())
    rng = random.Random(62)
    # an invertible constant recombination of the sections spans the same space
    sections = list(frame.sections)
    mixed = [
        DiracSection(
            sections[0].vector + sections[1].vector.scale(2),
            sections[0].covector + sections[1].covector.scale(2),
        ),
        sections[1],
        sections[2],
        DiracSection(
            sections[3].vector - sections[2].vector,
            sections[3].covector - sections[2].covector,
        ),
    ]
    other = DiracFrame(mixed)
    for p in _points(CHART4, 4):
        assert same_span_at(frame, other, p)


def test_same_span_detects_different_structures():
    pi = _standard_pi()
    frame = graph_of_bivector(pi)
    cot = graph_of_bivector(MultivectorField.zero(CHART4, 2))
    for p in _points(CHART4, 3):
        assert not same_span_at(frame, cot, p)


def test_gauge_transform_shifts_the_covector_leg():
    chart = CHART2
    b = DifferentialForm(chart, 2, {(0, 1): RationalFn.const(1)})
    zero1 = DifferentialForm.zero(chart, 1)
    frame = DiracFrame(
        [
            DiracSection(vector_field(chart, {0: 1}), zero1),
            DiracSection(vector_field(chart, {1: 1}), zero1),
        ]
    )
    out = gauge_transform(frame, b)
    # each covector picks up -i_X B
    assert out.sections[0].vector == vector_field(chart, {0: 1})
    assert out.sections[0].covector == one_form(chart, {1: RationalFn.const(-1)})
    assert out.sections[1].covector == one_form(chart, {0: RationalFn.const(1)})


def test_gauge_transform_round_trip_preserves_span():
    frame = graph_of_bivector(_standard_pi())
    y1 = RationalFn.var("y1")
    b = DifferentialForm(
        CHART4, 2, {(0, 2): y1 * RationalFn.const(-2), (2, 3): RationalFn.const(2)}
    )
    back = gauge_transform(gauge_transform(frame, b), -b)
    for p in _points(CHART4, 4):
        assert same_span_at(frame, back, p)


def test_gauge_transform_preserves_isotropy_and_rank():
    frame = graph_of_bivector(_standard_pi())
    b = DifferentialForm(CHART4, 2, {(0, 2): RationalFn.var("x1")})
    out = gauge_transform(frame, b)
    for s in out.sections:
        for t in out.sections:
            assert pairing(s, t).is_zero()
    assert out.validate_rank(_points(CHART4, 4)).passed


def test_same_span_at_decides_frames_with_pi_entries_both_ways():
    pi_sym = RationalFn.var(PI)
    x1 = RationalFn.var("x1")
    one = RationalFn.const(1)
    frame = graph_of_bivector(MultivectorField(CHART4, 2, {(0, 1): pi_sym + x1, (2, 3): one}))
    # pi's nearest small-denominator approximation gives a different span
    near = graph_of_bivector(
        MultivectorField(CHART4, 2, {(0, 1): RationalFn.const(Fraction(22, 7)) + x1, (2, 3): one})
    )
    # without @pi: each cross pairing is a multiple of @pi, zero at @pi^0
    bare = graph_of_bivector(MultivectorField(CHART4, 2, {(0, 1): x1, (2, 3): one}))
    s = frame.sections
    mixed = DiracFrame([
        DiracSection(s[0].vector + s[1].vector.scale(2), s[0].covector + s[1].covector.scale(2)),
        s[1],
        s[2],
        DiracSection(s[3].vector - s[2].vector, s[3].covector - s[2].covector),
    ])
    for p in _points(CHART4, 4):
        row = s[0].components_at(p)
        assert any(len(v) > 1 for v in row)
        _assert_pi_multiple(row, _values(s[0], p))
        assert same_span_at(frame, mixed, p)
        assert not same_span_at(frame, near, p)
        assert not same_span_at(frame, bare, p) and not same_span_at(bare, frame, p)
    assert involutivity_check(frame, _points(CHART4)).passed


def test_involutivity_witness_is_the_first_pair_outside_the_span():
    y1 = RationalFn.var("y1")
    pi = MultivectorField(CHART4, 2, {(0, 3): y1, (1, 2): RationalFn.const(1)})
    frame = graph_of_bivector(pi)
    res = involutivity_check(frame, _points(CHART4))
    point = {k: Fraction(v) for k, v in res.point.items()}
    # reference: one solve per pair, in pair order
    cols = [list(c) for c in zip(*frame.matrix_at(point))]
    outside = [
        [i, j]
        for i, j in itertools.combinations(range(4), 2)
        if solve(cols, courant_bracket(frame.sections[i], frame.sections[j]).components_at(point))
        is None
    ]
    assert outside and res.witness == {"pair": outside[0]}


def _values(s, point):
    """The exact component values of a section, one by one."""
    comps = [s.vector.comps.get((i,)) for i in range(s.chart.dim)]
    comps += [s.covector.comps.get((i,)) for i in range(s.chart.dim)]
    return [0 if c is None else c.value_at(point) for c in comps]


def _assert_pi_multiple(row, vals):
    """row is over Z[@pi] and is vals times one nonzero element of Q(@pi):
    the same zero pattern, and every cross ratio equal in Q(@pi)."""
    assert all(type(v) is tuple and all(type(c) is int for c in v) and (not v or v[-1])
               for v in row)
    assert [bool(v) for v in row] == [bool(v) for v in vals]
    got = [qpi(v) for v in row]
    for k, l in itertools.combinations([k for k, v in enumerate(vals) if v], 2):
        assert got[k] * vals[l] == got[l] * vals[k]


def _rational_section():
    # denominators on both legs, a zero leg and a constant one
    x, y = RationalFn.var("x"), RationalFn.var("y")
    one = RationalFn.const(1)
    return DiracSection(
        vector_field(CHART2, {0: x / (one + y * y) * RationalFn.const(Fraction(3, 4)),
                              1: RationalFn.const(Fraction(-2, 9))}),
        one_form(CHART2, {1: (x * y - one) / (x + RationalFn.const(2))}),
    )


def test_components_at_over_q_is_an_int_row_times_a_positive_integer():
    s = _rational_section()
    rng = random.Random(64)
    for _ in range(30):
        p = frac_point(rng, CHART2.coords)
        if p["x"] == -2:
            continue
        row, vals = s.components_at(p), _values(s, p)
        assert all(type(v) is int for v in row)
        k = next(i for i, v in enumerate(vals) if v)
        scale = Fraction(row[k]) / vals[k]
        assert scale > 0 and scale.denominator == 1
        assert row == [scale * v for v in vals]


def test_components_at_raises_on_a_vanishing_denominator():
    with pytest.raises(ZeroDivisionError):
        _rational_section().components_at({"x": Fraction(-2), "y": Fraction(1, 3)})


def test_components_at_keeps_the_exact_values_where_pi_survives():
    s = _rational_section()
    x, pi = RationalFn.var("x"), RationalFn.var(PI)
    t = DiracSection(s.vector, s.covector + one_form(CHART2, {0: (pi + x) / (x + pi * pi)}))
    p = {"x": Fraction(1, 3), "y": Fraction(-5, 7)}
    row = t.components_at(p)
    # the row keeps @pi, cleared to Z[@pi]
    assert any(len(v) > 1 for v in row)
    _assert_pi_multiple(row, _values(t, p))


def test_full_pipeline_evaluates_the_averaged_frame_once_per_point(capsys, monkeypatch):
    calls = collections.Counter()
    kept = []
    real = DiracSection.components_at

    def counting(self, point):
        # holding each pair keeps its ids from being reused
        kept.append((self, point))
        calls[id(self), id(point)] += 1
        return real(self, point)

    frames = []
    real_rank = DiracFrame.validate_rank

    def validate_rank(self, points):
        frames.append((self, points))
        return real_rank(self, points)

    monkeypatch.setattr(DiracSection, "components_at", counting)
    monkeypatch.setattr(DiracFrame, "validate_rank", validate_rank)
    assert cli.main(["full-pipeline", "--spec", "shifted_lift", "--samples", "6"]) == 0
    capsys.readouterr()
    # frame-rank runs on the averaged frame, which GT1 and involutivity read too
    (frame, points), = frames
    counts = [calls[id(s), id(p)] for s in frame.sections for p in points]
    assert max(counts) == 1 and sum(counts) == len(frame.sections) * len(points)


def test_matrix_at_rows_cannot_change_what_it_keeps():
    x1 = RationalFn.var("x1")
    frame = graph_of_bivector(
        MultivectorField(CHART4, 2, {(0, 1): x1 / (x1 + RationalFn.const(3)), (2, 3): x1})
    )
    p = _points(CHART4, 1)[0]
    rows = frame.matrix_at(p)
    want = [list(r) for r in rows]
    rows[0] = [99] * 8
    rows.append(rows[1])
    with pytest.raises(TypeError):
        rows[1][0] = 99
    assert [list(r) for r in frame.matrix_at(p)] == want
    assert want == [s.components_at(p) for s in frame.sections]


# -- oracles: the stacked eliminations the pairing rules replace -----------


def _reduce_at(frame, point, targets):
    """The frame's rank at the point and the first target outside its span.

    One elimination of [frame columns | target columns] decides both.
    Targets are evaluated in order; one whose denominator vanishes re-raises
    ZeroDivisionError unless an earlier target already lies outside.
    """
    rows = frame.matrix_at(point)
    vals, late = [], None
    for t in targets:
        try:
            vals.append(t.components_at(point))
        except ZeroDivisionError as exc:
            late = exc
            break
    n = len(rows)
    m = [[r[c] for r in rows] + [v[c] for v in vals] for c in range(2 * frame.chart.dim)]
    cols = linalg.pivot_columns(m)
    outside = next((c - n for c in cols if c >= n), None)
    if outside is None and late is not None:
        raise late
    return sum(c < n for c in cols), outside


def _components_at(s, point):
    """``components_at`` entry by entry, with no plan: the oracle of the plan."""
    n = s.chart.dim
    comps = [s.vector.comps.get((i,)) for i in range(n)]
    comps += [s.covector.comps.get((i,)) for i in range(n)]
    nums, dens = [], []
    for c in comps:
        num = (0, 1) if c is None else c.num._value_at(point)
        den = (1, 1) if c is None or c.is_poly() else c.den._value_at(point)
        if type(num[0]) is not int or type(den[0]) is not int:
            return [Fraction(0) if c is None else c.value_at(point) for c in comps]
        if not den[0]:
            raise ZeroDivisionError("denominator vanishes at sample point")
        nums.append(num[0] * den[1])
        dens.append(num[1] * den[0] if num[0] else 1)
    lcm = math.lcm(*dens)
    return [p * (lcm // q) for p, q in zip(nums, dens)]


def _same_span(f1, f2, point):
    """Each frame's rank equals the rank of their rows stacked."""
    m1, m2 = f1.matrix_at(point), f2.matrix_at(point)
    return linalg.rank(m1) == linalg.rank(m2) == linalg.rank(m1 + m2)


def _involutivity(frame, points):
    """involutivity_check by one elimination per point."""
    pairs = list(itertools.combinations(range(len(frame.sections)), 2))
    brackets = [dirac.courant_bracket(frame.sections[i], frame.sections[j]) for i, j in pairs]
    witness = {}

    def probe(p):
        rank, outside = _reduce_at(frame, p, brackets)
        if rank != frame.chart.dim:
            raise ArithmeticError("rank-deficient frame at sample point")
        if outside is not None:
            witness.setdefault("pair", list(pairs[outside]))
            return False
        return True

    return dirac._verdict("involutivity", *sweep(points, probe), witness=witness or None)


def _outcomes(decide, points):
    out = []
    for p in points:
        try:
            out.append(decide(p))
        except ZeroDivisionError:
            out.append("skip")
    return out


# grid values, so that denominators x - c vanish at some points
_GRID = [Fraction(k, 2) for k in range(-2, 3)]


def _grid_root(draw, names):
    """x - g for a coordinate x and a grid value g."""
    x, g = draw(st.sampled_from(names)), draw(st.sampled_from(_GRID))
    return RationalFn.var(x) - RationalFn.const(g)


@st.composite
def _entries(draw, names, pi=True, pi_pole=False):
    """0-2 terms c, c x or c @pi x, over 1, over x - g for a grid value g, or
    (with ``pi_pole``) over x - g + @pi (y - h), which vanishes where x = g
    and y = h."""
    f = RationalFn.zero()
    for _ in range(draw(st.integers(0, 2))):
        term = RationalFn.const(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2))))
        if draw(st.booleans()):
            term = term * RationalFn.var(draw(st.sampled_from(names)))
        if pi and draw(st.integers(0, 3)) == 0:
            term = term * RationalFn.var(PI)
        f = f + term
    kind = draw(st.integers(0, 9))
    if pi_pole:
        f = f / (_grid_root(draw, names) + RationalFn.var(PI) * _grid_root(draw, names))
    elif kind < 3:
        f = f / _grid_root(draw, names)
    return f


@st.composite
def _frames(draw):
    """A chart, a graph of a random bivector (rarely Poisson), a closed 2-form
    with poles on grid points, a rank-deficient recombination of the graph,
    and points on the grid."""
    chart = draw(st.sampled_from([CHART2, Chart(("x", "y", "z")), CHART4]))
    names, n = chart.coords, chart.dim

    def tensor(cls, pi):
        comps = {}
        # with @pi, one frame in four has one entry with a pole in Q(@pi):
        # more make the test slow
        pairs = list(itertools.combinations(range(n), 2))
        pi_pole = draw(st.sampled_from(pairs)) if pi and draw(st.integers(0, 3)) == 0 else None
        for k, l in pairs:
            # a coefficient in x_k and x_l alone keeps a 2-form closed
            names_kl = [names[k], names[l]] if cls is DifferentialForm else names
            f = draw(_entries(names_kl, pi, pi_pole=(k, l) == pi_pole))
            if not f.is_zero():
                comps[(k, l)] = f
        return cls(chart, 2, comps)

    graph = graph_of_bivector(tensor(MultivectorField, True))
    b = tensor(DifferentialForm, False)
    # scale sections by functions that vanish on grid points, then mix them
    s = list(graph.sections)
    for k in range(n):
        if draw(st.booleans()):
            f = _grid_root(draw, names)
            s[k] = DiracSection(s[k].vector.scale(f), s[k].covector.scale(f))
    c = RationalFn.const(draw(st.integers(-2, 2)))
    s[0] = DiracSection(s[0].vector + s[-1].vector.scale(c),
                        s[0].covector + s[-1].covector.scale(c))
    points = draw(st.lists(
        st.fixed_dictionaries({x: st.sampled_from(_GRID) for x in names}), min_size=4, max_size=8))
    return chart, graph, b, DiracFrame(s), points


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_frames(), other=st.data())
def test_pairing_decisions_match_the_stacked_eliminations(case, other):
    chart, graph, b, mixed, points = case
    gauged = gauge_transform(graph, b)
    round_trip = gauge_transform(gauged, -b)
    _c, other_graph, other_b, other_mixed, _p = other.draw(
        _frames().filter(lambda c: c[0] == chart))
    spans = [(graph, round_trip), (graph, mixed), (mixed, other_mixed), (mixed, mixed),
             (gauged, gauge_transform(other_graph, other_b)), (other_graph, gauged)]
    for f1, f2 in spans:
        assert _outcomes(lambda p: same_span_at(f1, f2, p), points) == _outcomes(
            lambda p: _same_span(f1, f2, p), points)
    for frame in (graph, gauged, mixed):
        assert involutivity_check(frame, points) == _involutivity(frame, points)
        s = frame.sections
        for i, j in itertools.combinations(range(chart.dim), 2):
            br = courant_bracket(s[i], s[j])
            assert pairing(br, s[i]).is_zero() and pairing(br, s[j]).is_zero()
    # brackets with a pole the frame lacks, from the second section on: h s_i
    # stays in the span, so only the skipped points can change
    pole = _grid_root(other.draw, chart.coords)
    if other.draw(st.booleans()):
        pole = pole + RationalFn.var(PI) * _grid_root(other.draw, chart.coords)
    h = RationalFn.const(1) / pole
    real = dirac.courant_bracket

    def with_pole(s, t):
        br = real(s, t)
        if s is graph.sections[0]:
            return br
        return DiracSection(br.vector + s.vector.scale(h), br.covector + s.covector.scale(h))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dirac, "courant_bracket", with_pole)
        assert involutivity_check(graph, points) == _involutivity(graph, points)


@st.composite
def _sections(draw):
    """A section on 2 or 3 coordinates whose entries are zero, constant,
    polynomial, rational with a pole on grid points, or hold @pi in the
    numerator or in the denominator; and points on the grid.  Each section
    draws from the first 2, 4 or 6 kinds."""
    chart = draw(st.sampled_from([CHART2, Chart(("x", "y", "z"))]))
    names = chart.coords
    kinds = ["zero", "const", "poly", "rational", "pi", "pi-den"][:draw(st.sampled_from([2, 4, 6]))]

    def entry():
        kind = draw(st.sampled_from(kinds))
        c = RationalFn.const(Fraction(draw(st.sampled_from([-3, -1, 1, 2])), draw(st.integers(1, 3))))
        f = c * RationalFn.var(draw(st.sampled_from(names))) + RationalFn.const(draw(st.integers(-2, 2)))
        if draw(st.booleans()):
            f = f * RationalFn.var(draw(st.sampled_from(names)))
        return {
            "zero": RationalFn.zero(),
            "const": c,
            "poly": f,
            # a constant over a pole, or a numerator that vanishes with it
            "rational": draw(st.sampled_from([c, f, _grid_root(draw, names)])) / _grid_root(draw, names),
            "pi": (f + c * RationalFn.var(PI)) / (f if draw(st.booleans()) else RationalFn.const(1)),
            "pi-den": f / (_grid_root(draw, names) + RationalFn.var(PI) * _grid_root(draw, names)),
        }[kind]

    n = len(names)
    section = DiracSection(vector_field(chart, {i: entry() for i in range(n)}),
                           one_form(chart, {i: entry() for i in range(n)}))
    points = draw(st.lists(
        st.fixed_dictionaries({x: st.sampled_from(_GRID) for x in names}), min_size=1, max_size=6))
    return section, points


def _row_or_raise(evaluate, s, point):
    try:
        row = evaluate(s, point)
    except ZeroDivisionError:
        return ZeroDivisionError
    return row, [type(v) for v in row]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_sections())
def test_the_row_plan_gives_the_rows_of_entrywise_evaluation(case):
    s, points = case
    built = []
    real = dirac._row_plan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dirac, "_row_plan", lambda sec: built.append(sec) or real(sec))
        for p in points:
            got = _row_or_raise(DiracSection.components_at, s, p)
            want = _row_or_raise(_components_at, s, p)
            if want is ZeroDivisionError or all(t is int for t in want[1]):
                assert got == want
            else:
                # the oracle gives the exact values where @pi survives
                assert got is not ZeroDivisionError
                _assert_pi_multiple(got[0], want[0])
    # one plan per section, however many points it is evaluated at
    assert len(built) == 1 and built[0] is s


def test_the_row_plan_keeps_poles_under_constant_and_vanishing_numerators():
    x, y = RationalFn.var("x"), RationalFn.var("y")
    one = RationalFn.const(1)
    # every numerator constant, so only the pole is left to evaluate; and
    # 0/0 at (0, 1/2), whose zero value must not hide its pole
    consts = DiracSection(vector_field(CHART2, {0: one / x}), one_form(CHART2, {1: 3}))
    vanish = DiracSection(vector_field(CHART2, {1: 2}),
                          one_form(CHART2, {0: (y - RationalFn.const(Fraction(1, 2))) / x}))
    for s in (consts, vanish):
        for p in ({"x": Fraction(1, 3), "y": Fraction(1, 2)}, {"x": Fraction(0), "y": Fraction(1, 2)}):
            assert _row_or_raise(DiracSection.components_at, s, p) == _row_or_raise(
                _components_at, s, p)
        with pytest.raises(ZeroDivisionError):
            s.components_at({"x": Fraction(0), "y": Fraction(1, 2)})


def test_a_gauge_whose_pole_cancels_in_the_rows_is_ranked_by_elimination():
    # gauging the graph of x d/dx ^ d/dy by -dx ^ dy / x leaves only vectors:
    # the rows are finite at x = 0, where b has a pole and the rank drops
    x = RationalFn.var("x")
    graph = graph_of_bivector(MultivectorField(CHART2, 2, {(0, 1): x}))
    b = DifferentialForm(CHART2, 2, {(0, 1): -RationalFn.const(1) / x})
    gauged = gauge_transform(graph, b)
    assert all(s.covector.is_zero() for s in gauged.sections)
    p = {"x": Fraction(0), "y": Fraction(1, 2)}
    assert gauged.rank_at(p) == linalg.rank(gauged.matrix_at(p)) == 0
    assert same_span_at(gauged, graph, p) == _same_span(gauged, graph, p) is False
    q = {"x": Fraction(1, 3), "y": Fraction(1, 2)}
    assert gauged.rank_at(q) == 2 and not same_span_at(gauged, graph, q)


def test_equal_ranks_below_n_compare_the_stacked_rows():
    # both frames span {d/dx, dy} off x = 0, where each keeps one of its
    # sections: the remaining rows pair to zero but span different lines
    x = RationalFn.var("x")
    zero = DifferentialForm.zero(CHART2, 1)
    a = DiracFrame([DiracSection(vector_field(CHART2, {0: x}), zero),
                    DiracSection(MultivectorField.zero(CHART2, 1), one_form(CHART2, {1: 1}))])
    b = DiracFrame([DiracSection(vector_field(CHART2, {0: 1}), zero),
                    DiracSection(MultivectorField.zero(CHART2, 1), one_form(CHART2, {1: x}))])
    p, q = {"x": Fraction(0), "y": Fraction(1, 3)}, {"x": Fraction(1, 2), "y": Fraction(1, 3)}
    assert a.rank_at(p) == b.rank_at(p) == 1
    assert same_span_at(a, b, p) == _same_span(a, b, p) is False
    assert same_span_at(a, b, q) == _same_span(a, b, q) is True


def test_graph_and_gauge_spans_and_involutivity_run_no_elimination(monkeypatch):
    frame = graph_of_bivector(_standard_pi())
    b = DifferentialForm(CHART4, 2, {(0, 2): RationalFn.var("x1")})
    gauged, pts = gauge_transform(frame, b), _points(CHART4)
    back = gauge_transform(gauged, -b)
    calls = []
    for name in ("rank", "pivot_columns", "rref"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, real=real: calls.append(a) or real(*a))
    assert all(same_span_at(frame, back, p) for p in pts)
    assert not any(same_span_at(frame, gauged, p) for p in pts)
    assert involutivity_check(frame, pts).passed and involutivity_check(gauged, pts).passed
    assert frame.validate_rank(pts).passed
    assert calls == []


def test_full_pipeline_ranks_no_frame_by_elimination(capsys, monkeypatch):
    ranked = []
    real = linalg.rank

    def rank(a):
        ranked.append(a)
        return real(a)

    monkeypatch.setattr(linalg, "rank", rank)
    assert cli.main(["full-pipeline", "--spec", "shifted_lift", "--samples", "6"]) == 0
    capsys.readouterr()
    # GT1's averaged and gauged frames, frame-rank and involutivity all have
    # their rank by construction, and the coupling probe takes a determinant
    assert ranked == []


def test_sample_box_draws_the_grid_points_of_the_reference_formula():
    rng = random.Random(65)
    for seed in range(20):
        box = {}
        for name in CHART4.coords:
            lo = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            box[name] = (lo, lo + Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        draws = random.Random(seed)
        want = [{name: lo + (hi - lo) * Fraction(draws.randint(0, _DENOM), _DENOM)
                 for name, (lo, hi) in box.items()} for _ in range(7)]
        assert sample_box(CHART4, box, 7, seed) == want
