"""Floating-point verification of the deformation path and its flow."""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHART4, rand_poly
from diracavg.averaging import average_coupling, check_compatibility
from diracavg.config import PI
from diracavg.coupling import data_to_poisson, structure_eq_check
from diracavg.fixtures import build
from diracavg.moser import (
    BoxExit,
    FlowConfig,
    GuardError,
    NumericEvaluator,
    _CompiledEntries,
    flow_and_verify,
    flow_batch,
    flow_point,
    homotopy_residual,
    z_field,
)
from diracavg.rings import Poly, RationalFn
from diracavg.sampling import sample_box
from diracavg.tensors import Chart, MultivectorField, one_form, sharp_matrix


@functools.lru_cache(maxsize=None)
def _rotating_setup():
    spec = build("rotating_lift")
    gd, checks = structure_eq_check(spec.geometric_data())
    assert all(c.passed for c in checks)
    cert = check_compatibility(spec.action, gd.p, mode="hamiltonian", j=spec.certificate_j)
    res = average_coupling(gd, cert)
    pi = data_to_poisson(res.source).pi
    box = spec.get_box()
    probes = sample_box(gd.conn.chart, box, 4, 91)
    ev = NumericEvaluator(pi, res.theta, box, probes)
    return spec, res, pi, box, ev


def test_compiled_evaluator_matches_exact_components():
    spec, res, pi, box, ev = _rotating_setup()
    pt = {"x1": 0.21, "x2": -0.13, "y1": 0.34, "y2": -0.07}
    got = ev.pi_matrix(pt)
    sym = sharp_matrix(pi)
    for j in range(4):
        for i in range(4):
            assert got[j][i] == pytest.approx(sym[j][i].eval_float(pt), abs=1e-12)


def test_path_endpoints_are_the_two_bivectors():
    spec, res, pi, box, ev = _rotating_setup()
    assert ev.pi_t_exact(Fraction(0)) == pi
    assert res.poisson is not None
    assert ev.pi_t_exact(Fraction(1)) == res.poisson.pi


def test_interior_path_points_stay_poisson():
    from diracavg.tensors import schouten_bracket

    spec, res, pi, box, ev = _rotating_setup()
    for t in (Fraction(1, 4), Fraction(2, 3)):
        pit = ev.pi_t_exact(t)
        assert schouten_bracket(pit, pit).is_zero()
    # the transport field balances the time derivative, so it is nonzero
    assert not ev.bracket_exact(Fraction(1, 4)).is_zero()


def test_homotopy_residual_is_small_along_the_path():
    spec, res, pi, box, ev = _rotating_setup()
    pts = sample_box(ev.chart, box, 3, 92)
    for t in (0.25, 0.75):
        for p in pts:
            fp = {k: float(v) for k, v in p.items()}
            assert homotopy_residual(ev, t, fp) <= 1e-6


def test_deformation_field_vanishes_on_the_fixed_leaf():
    spec, res, pi, box, ev = _rotating_setup()
    leaf = {"x1": 0.2, "x2": -0.3, "y1": 0.0, "y2": 0.0}
    for t in (0.3, 1.0):
        assert float(np.max(np.abs(z_field(ev, t, leaf)))) <= 1e-12


def test_flow_intertwines_the_endpoint_bivectors():
    spec, res, pi, box, ev = _rotating_setup()
    # starts sit well inside the box so the reverse flow cannot escape it
    starts = [
        {"x1": 0.1, "x2": 0.05, "y1": 0.12, "y2": -0.08},
        {"x1": -0.15, "x2": 0.2, "y1": -0.1, "y2": 0.05},
        {"x1": 0.05, "x2": -0.12, "y1": 0.2, "y2": 0.1},
        {"x1": -0.02, "x2": 0.08, "y1": -0.15, "y2": -0.2},
    ]
    leaf = [{"x1": 0.15, "x2": -0.1, "y1": 0.0, "y2": 0.0}]
    rep = flow_and_verify(ev, FlowConfig(points=starts, steps=200, leaf_points=leaf))
    assert rep.ok, rep.notes
    assert rep.aborted == 0
    assert rep.max_deviation <= 1e-6
    assert rep.leaf_max_error is not None and rep.leaf_max_error <= 1e-9


def test_flow_rejects_starts_outside_the_box():
    spec, res, pi, box, ev = _rotating_setup()
    with pytest.raises(BoxExit):
        flow_point(ev, {"x1": 5.0, "x2": 0.0, "y1": 0.0, "y2": 0.0}, 100)


def test_degenerate_interpolation_trips_the_guard():
    chart = Chart(("x", "y"))
    pi = MultivectorField(chart, 2, {(0, 1): RationalFn.const(1)})
    theta = one_form(chart, {1: RationalFn.var("x")})  # d(theta) = dx ^ dy
    box = {"x": (Fraction(-1), Fraction(1)), "y": (Fraction(-1), Fraction(1))}
    ev = NumericEvaluator(pi, theta, box)
    # the interpolation collapses at t = 1: (1 - t) scales the whole matrix
    with pytest.raises(GuardError):
        z_field(ev, 1.0, {"x": 0.1, "y": 0.2})
    # away from the collapse the field is finite
    z_field(ev, 0.5, {"x": 0.1, "y": 0.2})


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(points=[], steps=50)


def test_rk4_error_drops_by_sixteen_per_halving():
    spec, res, pi, box, ev = _rotating_setup()
    start = {"x1": 0.1, "x2": -0.2, "y1": 0.25, "y2": 0.15}
    ref = flow_point(ev, start, 3200)
    e1 = float(np.max(np.abs(flow_point(ev, start, 100) - ref)))
    e2 = float(np.max(np.abs(flow_point(ev, start, 200) - ref)))
    assert e2 > 0
    ratio = e1 / e2
    assert 8.0 < ratio < 32.0


def _loop_eval(fn: RationalFn, names, vec) -> float:
    """Reference: each monomial a product over every coordinate, terms added in order.

    Powers come from numpy, whose float pow may differ from Python's in the
    last bit; the evaluator must reproduce numpy's.
    """
    parts = []
    for poly in (fn.num, fn.den):
        acc = 0.0
        for k, (exps, c) in enumerate(poly.aligned_to(names).terms.items()):
            mono = 1.0
            for power in vec ** np.array(exps):
                mono *= float(power)
            acc = mono * float(c) if k == 0 else acc + mono * float(c)
        parts.append(acc)
    return parts[0] / parts[1]


def test_eval_stack_matches_a_plain_loop_bit_for_bit():
    rng = random.Random(5)
    names = CHART4.coords + (PI,)
    fns = [
        RationalFn(rand_poly(rng, CHART4.coords, degree=3, terms=8), rand_poly(rng, ("x1",), 2, 3))
        for _ in range(12)
    ]
    fns = [fn.simplified() for fn in fns if not fn.den.is_zero()]
    entries = _CompiledEntries(CHART4, list(enumerate(fns)))
    vecs = np.array([[rng.uniform(-2, 2) for _ in CHART4.coords] + [math.pi] for _ in range(40)])
    want = [[_loop_eval(fn, names, vec) for fn in fns] for vec in vecs]
    # a row's values do not depend on the size of its batch
    for size in (1, 2, 11, 40):
        vals, bad = entries.eval_stack(vecs[:size])
        assert not bad.any()
        assert vals.tolist() == want[:size]


_COORD = st.floats(-0.6, 0.6, allow_nan=False)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD), min_size=1, max_size=5))
def test_batch_rows_match_single_trajectories(rows):
    # wide starts: some begin outside the box, some leave it mid-flow
    spec, res, pi, box, ev = _rotating_setup()
    aborts = {}
    ends = flow_batch(ev, np.array(rows), 100, aborts)
    for k, row in enumerate(rows):
        point = dict(zip(ev.chart.coords, row))
        try:
            alone = flow_point(ev, point, 100)
        except BoxExit as exc:
            assert k in aborts
            assert (type(aborts[k][2]), str(aborts[k][2])) == (BoxExit, str(exc))
        else:
            assert k not in aborts
            assert np.array_equal(ends[k], alone)


def test_bad_trajectories_abort_alone():
    spec, res, pi, box, ev = _rotating_setup()
    starts = [
        {"x1": 0.1, "x2": 0.05, "y1": 0.12, "y2": -0.08},
        {"x1": -0.15, "x2": 0.2, "y1": -0.1, "y2": 0.05},
        {"x1": 0.05, "x2": -0.12, "y1": 0.2, "y2": 0.1},
    ]
    leaf = [{"x1": 0.15, "x2": -0.1, "y1": 0.0, "y2": 0.0}]
    # starts in the box and leaves it during the flow
    leaving = {"x1": -0.45, "x2": 0.0, "y1": -0.45, "y2": 0.45}
    with pytest.raises(BoxExit):
        flow_point(ev, leaving, 200)
    # the fixed leaf does not move, so this one starts outside
    outside_leaf = {"x1": 0.7, "x2": 0.0, "y1": 0.0, "y2": 0.0}
    clean = flow_and_verify(ev, FlowConfig(points=starts, steps=200, leaf_points=leaf))
    mixed = flow_and_verify(
        ev,
        FlowConfig(
            points=starts[:1] + [leaving] + starts[1:],
            steps=200,
            leaf_points=[outside_leaf] + leaf,
        ),
    )
    assert clean.aborted == 0
    assert mixed.aborted == 2
    assert mixed.notes == [
        f"aborted point {leaving!r}: trajectory left the box",
        f"aborted leaf point {outside_leaf!r}: trajectory left the box",
        "2/6 trajectories aborted (over 10%)",
    ]
    assert not mixed.ok
    assert [o.aborted for o in mixed.outcomes] == [False, True, False, False]
    good = [o for o in mixed.outcomes if not o.aborted]
    assert [o.deviation for o in good] == [o.deviation for o in clean.outcomes]
    assert [o.image for o in good] == [o.image for o in clean.outcomes]
    assert mixed.max_deviation == clean.max_deviation
    assert mixed.mean_deviation == clean.mean_deviation
    assert mixed.leaf_max_error == clean.leaf_max_error


def test_a_point_aborts_with_its_first_stop():
    # Pi = (h/x) dx^dy: the denominator vanishes at x = 0 and at x = h the
    # interpolation collapses at t = 1, the first stage of the reverse flow
    h = 1e-5
    chart = Chart(("x", "y"))
    coeff = RationalFn(Poly.const(Fraction(1, 100000)), Poly.var("x"))
    pi = MultivectorField(chart, 2, {(0, 1): coeff})
    theta = one_form(chart, {1: RationalFn.var("x")})
    box = {"x": (Fraction(-1), Fraction(1)), "y": (Fraction(-1), Fraction(1))}
    ev = NumericEvaluator(pi, theta, box)
    aborts = {}
    flow_batch(ev, np.array([[h, 0.5], [0.0, 0.5], [2.0, 0.5], [0.5, 0.5]]), 100, aborts)
    assert {row: (stage, rank, type(exc)) for row, (stage, rank, exc) in aborts.items()} == {
        0: (0, 4, GuardError),
        1: (0, 1, ZeroDivisionError),
        2: (0, 0, BoxExit),
    }
    # within one stage a box exit outranks a vanishing denominator, which
    # outranks the guard; each point's rows are itself and x +- h, y +- h
    points = [{"x": 0.0, "y": 0.5}, {"x": 0.0, "y": 1.0 - h / 2}]
    rep = flow_and_verify(ev, FlowConfig(points=points, steps=100, jacobian_step=h))
    assert rep.notes[:2] == [
        f"aborted point {points[0]!r}: denominator vanished for component (0, 1)",
        f"aborted point {points[1]!r}: trajectory left the box",
    ]
