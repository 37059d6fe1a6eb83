"""Frames of isotropic sections: spans, gauge moves, involutivity."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from diracavg.dirac import (
    DiracFrame,
    DiracSection,
    cotangent_frame,
    courant_bracket,
    gauge_transform,
    graph_of_bivector,
    involutivity_check,
    pairing,
    presymplectic_on_characteristic,
    same_span_at,
)
from diracavg.config import PI
from diracavg.linalg import solve
from diracavg.rings import Poly, QPi, RationalFn
from diracavg.sampling import default_box, sample_box
from diracavg.tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    one_form,
    vector_field,
)

from conftest import CHART2, CHART4, frac_point


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
    frame = cotangent_frame(CHART4)
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
    cot = cotangent_frame(CHART4)
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


def test_presymplectic_matrix_inverts_the_bivector():
    # on the graph of an invertible bivector the leaf 2-form is minus
    # the matrix inverse of the bivector components
    chart = CHART2
    pi = MultivectorField(chart, 2, {(0, 1): RationalFn.const(1)})
    frame = graph_of_bivector(pi)
    pt = {"x": Fraction(1, 3), "y": Fraction(-1, 2)}
    basis, mat = presymplectic_on_characteristic(frame, pt)
    assert len(basis) == 2
    # antisymmetric with a nonzero off-diagonal entry, exact over Q
    assert mat[0][0] == 0 and mat[1][1] == 0
    assert mat[0][1] == -mat[1][0]
    assert mat[0][1] != 0


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
