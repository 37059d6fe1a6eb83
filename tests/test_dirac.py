"""Frames of isotropic sections: spans, gauge moves, involutivity."""

from __future__ import annotations

import collections
import itertools
import random
from fractions import Fraction

import pytest

from diracavg import cli
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
from diracavg.rings import Poly, QPi, RationalFn
from diracavg.sampling import sample_box
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
    # the check can be bypassed explicitly
    DiracFrame(bad, check_isotropy=False)


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
    s = frame.sections
    mixed = DiracFrame([
        DiracSection(s[0].vector + s[1].vector.scale(2), s[0].covector + s[1].covector.scale(2)),
        s[1],
        s[2],
        DiracSection(s[3].vector - s[2].vector, s[3].covector - s[2].covector),
    ])
    for p in _points(CHART4, 4):
        assert any(isinstance(v, QPi) for v in s[0].components_at(p))
        assert same_span_at(frame, mixed, p)
        assert not same_span_at(frame, near, p)
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
    assert any(isinstance(v, QPi) for v in row)
    assert row == _values(t, p)


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
