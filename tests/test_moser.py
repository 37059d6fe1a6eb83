"""Floating-point verification of the deformation path and its flow."""

from __future__ import annotations

import copy
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHART4, default_box, rand_poly, rand_rational
from diracavg import linalg
from diracavg.averaging import average_coupling, check_compatibility
from diracavg.config import PI
from diracavg.coupling import data_to_poisson, structure_eq_check
from diracavg.fixtures import load
from diracavg.moser import (
    BoxExit,
    FlowConfig,
    GuardError,
    NumericEvaluator,
    _CompiledEntries,
    _padded,
    _Polys,
    flow_and_verify,
    flow_batch,
    homotopy_residuals,
    z_batch,
)
from diracavg.rings import Poly, RationalFn
from diracavg.sampling import sample_box
from diracavg.tensors import (
    Chart,
    MultivectorField,
    flat_matrix,
    one_form,
    schouten_bracket,
    sharp_matrix,
    vector_field,
)


@functools.lru_cache(maxsize=None)
def _setup(name="rotating_lift"):
    spec = load(name)
    gd, checks = structure_eq_check(spec.geometric_data())
    assert all(c.passed for c in checks)
    cert = check_compatibility(spec.action, gd.p, mode="hamiltonian", j=spec.certificate_j)
    res = average_coupling(gd, cert)
    pi = data_to_poisson(res.source).pi
    box = spec.get_box()
    probes = sample_box(gd.conn.chart, box, 4, 91)
    ev = NumericEvaluator(pi, res.theta, box, probes)
    return spec, res, pi, box, ev


def _vec(ev, point):
    """A point as a batch of one row."""
    return np.array([[float(point[c]) for c in ev.chart.coords]])


def _flow_one(ev, point, steps):
    """One start flowed alone: its end, and its abort or None."""
    aborts = {}
    end = flow_batch(ev, _vec(ev, point), steps, aborts)
    return end[0], aborts.get(0)


@functools.lru_cache(maxsize=None)
def _pi_t_exact(ev, t):
    """The interpolated bivector at rational t, by exact inversion:
    Pi_t# = Pi# (Id + t dTheta# Pi#)^{-1}.  The oracle of bracket_exact."""
    n = ev.chart.dim
    sp = sharp_matrix(ev.pi_exact)
    sb = flat_matrix(ev.dtheta_exact)
    tm = [[sb[j][k] * RationalFn.const(t) for k in range(n)] for j in range(n)]
    m = linalg.mat_add(linalg.identity(n), linalg.mat_mul(tm, sp))
    new_sharp = linalg.mat_mul(sp, linalg.inverse(m))
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            val = new_sharp[j][i].simplified()
            if not val.is_zero():
                comps[(i, j)] = val
    return MultivectorField(ev.chart, 2, comps)


def test_compiled_evaluator_matches_exact_components():
    spec, res, pi, box, ev = _setup()
    pt = {"x1": 0.21, "x2": -0.13, "y1": 0.34, "y2": -0.07}
    sps, fails = ev.pi_matrices(_vec(ev, pt))
    assert not fails
    got = sps[0]
    sym = sharp_matrix(pi)
    for j in range(4):
        for i in range(4):
            assert got[j][i] == pytest.approx(sym[j][i].eval_float(pt), abs=1e-12)


def test_path_endpoints_are_the_two_bivectors():
    spec, res, pi, box, ev = _setup()
    assert _pi_t_exact(ev, Fraction(0)) == pi
    assert res.poisson is not None
    assert _pi_t_exact(ev, Fraction(1)) == res.poisson.pi


def test_interior_path_points_stay_poisson():
    spec, res, pi, box, ev = _setup()
    for t in (Fraction(1, 4), Fraction(2, 3)):
        pit = _pi_t_exact(ev, t)
        assert schouten_bracket(pit, pit).is_zero()
    # the transport field balances the time derivative, so it is nonzero
    point = dict(zip(ev.chart.coords, map(Fraction, ("1/5", "-1/8", "1/3", "1/7"))))
    assert any(v != 0 for row in ev.bracket_exact(Fraction(1, 4), point) for v in row)


def _bind_pi(value: RationalFn) -> Fraction:
    """A rational function of @pi alone at @pi = Fraction(math.pi)."""
    at = {PI: Fraction(math.pi)}
    parts = []
    for poly in (value.num, value.den):
        total = Fraction(0)
        for exps, c in poly.terms.items():
            for name, k in zip(poly.vars, exps):
                c *= at[name] ** k
            total += c
        parts.append(total)
    return parts[0] / parts[1]


@pytest.mark.parametrize("name", ["rotating_lift", "obstructed_lift"])
def test_jet_bracket_matches_the_symbolic_bracket(name):
    # obstructed_lift's dTheta# carries @pi; the oracle keeps it symbolic
    # and binds it only after the point is substituted
    spec, res, pi, box, ev = _setup(name)
    n = ev.chart.dim
    points = sample_box(ev.chart, box, 3, 93)
    nonzero = 0
    for t in (Fraction(0), Fraction(1, 4), Fraction(2, 3), Fraction(1)):
        pit = _pi_t_exact(ev, t)
        sharp = sharp_matrix(pit)
        theta = [ev.theta_exact.component((i,)) for i in range(n)]
        z = {
            j: -sum((sharp[j][i] * theta[i] for i in range(n)), RationalFn.zero())
            for j in range(n)
        }
        bracket = schouten_bracket(vector_field(ev.chart, z), pit)
        for p in points:
            got = ev.bracket_exact(t, p)
            for i in range(n):
                for j in range(n):
                    at_p = bracket.component((i, j)).eval_frac(p)
                    assert got[i][j] == _bind_pi(at_p)
                    # the float the residual reads is the old route's float
                    assert float(got[i][j]) == at_p.eval_float({})
                    nonzero += got[i][j] != 0
    assert nonzero


def test_homotopy_residual_is_small_along_the_path():
    spec, res, pi, box, ev = _setup()
    pts = sample_box(ev.chart, box, 3, 92)
    fps = [{k: float(v) for k, v in p.items()} for p in pts]
    for t in (0.25, 0.75):
        residuals, fails = homotopy_residuals(ev, t, fps)
        assert not fails
        assert max(residuals) <= 1e-6


def test_deformation_field_vanishes_on_the_fixed_leaf():
    spec, res, pi, box, ev = _setup()
    leaf = {"x1": 0.2, "x2": -0.3, "y1": 0.0, "y2": 0.0}
    for t in (0.3, 1.0):
        z, fails = z_batch(ev, t, [leaf])
        assert not fails
        assert float(np.max(np.abs(z))) <= 1e-12


def test_flow_intertwines_the_endpoint_bivectors():
    spec, res, pi, box, ev = _setup()
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
    spec, res, pi, box, ev = _setup()
    _end, abort = _flow_one(ev, {"x1": 5.0, "x2": 0.0, "y1": 0.0, "y2": 0.0}, 100)
    assert isinstance(abort[2], BoxExit)


def test_degenerate_interpolation_trips_the_guard():
    chart = Chart(("x", "y"))
    pi = MultivectorField(chart, 2, {(0, 1): RationalFn.const(1)})
    theta = one_form(chart, {1: RationalFn.var("x")})  # d(theta) = dx ^ dy
    box = {"x": (Fraction(-1), Fraction(1)), "y": (Fraction(-1), Fraction(1))}
    ev = NumericEvaluator(pi, theta, box)
    # the interpolation collapses at t = 1: (1 - t) scales the whole matrix
    _z, fails = z_batch(ev, 1.0, [{"x": 0.1, "y": 0.2}])
    assert isinstance(fails[0][1], GuardError)
    # away from the collapse the field is finite
    z, fails = z_batch(ev, 0.5, [{"x": 0.1, "y": 0.2}])
    assert not fails and np.isfinite(z).all()


def test_the_guard_models_keep_the_determinant():
    # both guard models above: Pi = c dx^dy against d(x dy) = dx^dy, so
    # dTheta# Pi# is diagonal and its pattern has a cycle
    chart = Chart(("x", "y"))
    theta = one_form(chart, {1: RationalFn.var("x")})
    box = {"x": (Fraction(-1), Fraction(1)), "y": (Fraction(-1), Fraction(1))}
    coeffs = [RationalFn.const(1), RationalFn(Poly.const(Fraction(1, 100000)), Poly.var("x"))]
    for coeff in coeffs:
        pi = MultivectorField(chart, 2, {(0, 1): coeff})
        assert NumericEvaluator(pi, theta, box)._guard_can_trip


def test_a_guard_of_one_or_more_keeps_the_determinant():
    # Pi = dx^dy against d(x dz) = dx^dz: dTheta# Pi# is nilpotent, so the
    # determinant is 1 and only a guard above it can trip
    chart = Chart(("x", "y", "z"))
    pi = MultivectorField(chart, 2, {(0, 1): RationalFn.const(1)})
    theta = one_form(chart, {2: RationalFn.var("x")})
    box = {c: (Fraction(-1), Fraction(1)) for c in chart.coords}
    point = {"x": 0.1, "y": 0.2, "z": -0.3}
    assert not NumericEvaluator(pi, theta, box)._guard_can_trip
    assert NumericEvaluator(pi, theta, box, guard=1.0)._guard_can_trip
    ev = NumericEvaluator(pi, theta, box, guard=2.0)
    assert ev._guard_can_trip
    _z, fails = z_batch(ev, 0.5, [point])
    assert (fails[0][0], type(fails[0][1])) == (4, GuardError)
    _mats, fails = ev.interp_matrices([0.5], _vec(ev, point))
    assert type(fails[0]) is GuardError


def _random_model(rng):
    # sparse components in one or two coordinates each, so that both
    # patterns, with and without a cycle, turn up
    n = rng.randint(2, 4)
    chart = Chart(tuple(f"q{i}" for i in range(n)))

    def entry():
        return rand_rational(rng, rng.sample(chart.coords, rng.randint(1, 2)))

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pi = MultivectorField(chart, 2, {ij: entry() for ij in pairs if rng.random() < 0.4})
    theta = one_form(chart, {i: entry() for i in range(n) if rng.random() < 0.5})
    return NumericEvaluator(pi, theta, default_box(chart))


def test_a_guard_that_cannot_trip_has_determinant_one():
    rng = random.Random(98)
    # models whose guard can trip, and those where it cannot although
    # dTheta# Pi# is not zero
    seen = {"can trip": 0, "nilpotent": 0}
    for _ in range(60):
        ev = _random_model(rng)
        if ev._guard_can_trip:
            seen["can trip"] += 1
            continue
        n = ev.chart.dim
        sp = sharp_matrix(ev.pi_exact)
        sb = flat_matrix(ev.dtheta_exact)
        seen["nilpotent"] += any(not x.is_zero() for row in linalg.mat_mul(sb, sp) for x in row)
        for t in (Fraction(1), Fraction(-2, 3), Fraction(7, 5)):
            tm = [[x * RationalFn.const(t) for x in row] for row in sb]
            m = linalg.mat_add(linalg.identity(n), linalg.mat_mul(tm, sp))
            assert linalg.det(m) == 1
    assert min(seen.values()) >= 8, seen


@pytest.mark.parametrize(
    "name, can_trip",
    [
        ("flat", False),
        ("rotating_lift", True),
        ("transversal_leaf", False),
        ("obstructed_lift", False),
        ("shifted_lift", False),
    ],
)
def test_skipping_the_determinant_keeps_every_bit(name, can_trip):
    spec, res, pi, box, ev = _setup(name)
    assert ev._guard_can_trip is can_trip
    checked = copy.copy(ev)
    checked._guard_can_trip = True
    coords = ev.chart.coords
    inside = np.array([[float(p[c]) for c in coords] for p in sample_box(ev.chart, box, 8, 99)])
    # two starts outside the box, so that some rows abort
    vecs = np.concatenate([inside, 3.0 * inside[:2]])

    def same_fails(a, b):
        # row -> error, or row -> (rank, error) or (stage, rank, error)
        def key(v):
            return tuple(v[:-1]) + (type(v[-1]), str(v[-1])) if isinstance(v, tuple) else (
                type(v), str(v))

        return {r: key(v) for r, v in a.items()} == {r: key(v) for r, v in b.items()}

    aborts, checked_aborts = {}, {}
    ends = flow_batch(ev, vecs, 100, aborts)
    assert _same_bits(ends, flow_batch(checked, vecs, 100, checked_aborts))
    assert 0 < len(aborts) < len(vecs) and same_fails(aborts, checked_aborts)
    ts = [0.0, 0.37, 1.0]
    mats, fails = ev.interp_matrices(ts, vecs)
    checked_mats, checked_fails = checked.interp_matrices(ts, vecs)
    assert _same_bits(mats, checked_mats) and same_fails(fails, checked_fails)
    points = [dict(zip(coords, v)) for v in vecs]
    for t in ts:
        z, fails = z_batch(ev, t, points)
        checked_z, checked_fails = z_batch(checked, t, points)
        assert _same_bits(z, checked_z) and same_fails(fails, checked_fails)


def _exact_power_vanishes(ev, k) -> bool:
    """Whether (dTheta# Pi#)^k is exactly the zero matrix."""
    s = linalg.mat_mul(flat_matrix(ev.dtheta_exact), sharp_matrix(ev.pi_exact))
    power = s
    for _ in range(k - 1):
        power = linalg.mat_mul(power, s)
    return all(x.is_zero() for row in power for x in row)


def _assert_z_is_the_solved_field(ev, points):
    """z_batch against -Pi# (Id + t dTheta# Pi#)^{-1} Theta by solve, on
    the rows whose denominators do not vanish, to a relative 1e-13."""
    vecs = np.array([[p[c] for c in ev.chart.coords] for p in points])
    sp, sb, th, fails = ev._matrices(vecs)
    ok = [row for row in range(len(points)) if row not in fails]
    assert ok
    for t in (1.0, 0.37, -0.8):
        z, z_fails = z_batch(ev, t, points)
        assert z_fails.keys() == fails.keys()
        m = np.eye(ev.chart.dim) + t * (sb @ sp)
        want = -(sp @ np.linalg.solve(m, th[:, :, np.newaxis]))[:, :, 0]
        err = np.abs(z[ok] - want[ok]).max(axis=1)
        assert (err <= 1e-13 * np.maximum(1.0, np.abs(want[ok]).max(axis=1))).all()


@pytest.mark.parametrize(
    "name, k",
    [
        ("flat", 1),
        ("rotating_lift", None),
        ("transversal_leaf", 2),
        ("obstructed_lift", 2),
        ("shifted_lift", 2),
    ],
)
def test_the_series_has_as_many_terms_as_the_product_needs(name, k):
    # (Id + t S)^{-1} = sum_{j<K} (-t S)^j for S = dTheta# Pi#, and on the
    # fixtures no term is wasted: S^(K-1) is not zero
    spec, res, pi, box, ev = _setup(name)
    assert ev._nilpotency == k
    if k is None:
        return
    assert _exact_power_vanishes(ev, k)
    assert k == 1 or not _exact_power_vanishes(ev, k - 1)
    points = [{c: float(v) for c, v in p.items()} for p in sample_box(ev.chart, box, 8, 99)]
    _assert_z_is_the_solved_field(ev, points)


def test_the_series_solves_random_nilpotent_models():
    rng = random.Random(98)
    seen = {k: 0 for k in (1, 2, 3)}
    for _ in range(300):
        ev = _random_model(rng)
        k = ev._nilpotency
        if k is None:
            continue
        seen[k] += 1
        assert _exact_power_vanishes(ev, k)
        if k > 1:
            box = default_box(ev.chart)
            points = [{c: float(v) for c, v in p.items()} for p in sample_box(ev.chart, box, 4, 3)]
            _assert_z_is_the_solved_field(ev, points)
    assert min(seen.values()) >= 3, seen


def test_acyclic_batch_rows_match_rows_flowed_alone_bit_for_bit():
    spec, res, pi, box, ev = _setup("transversal_leaf")
    inside = np.array(
        [[float(p[c]) for c in ev.chart.coords] for p in sample_box(ev.chart, box, 5, 98)]
    )
    # wide starts: some begin outside the box, some leave it mid-flow
    starts = np.concatenate([inside, 1.9 * inside, 5.0 * inside[:1]])
    aborts = {}
    ends = flow_batch(ev, starts, 100, aborts)
    assert 0 < len(aborts) < len(starts)
    for k, start in enumerate(starts):
        alone = {}
        end = flow_batch(ev, start[np.newaxis], 100, alone)
        assert _same_bits(ends[k], end[0])
        assert (k in aborts) == (0 in alone)
        if k in aborts:
            assert aborts[k][:2] == alone[0][:2]


def test_a_non_finite_determinant_trips_the_guard():
    # at x = 1e-120 Pi#'s entries reach 1e120 and dTheta#'s 1e240, so
    # Id + t dTheta# Pi# overflows and its determinant reads inf; at
    # (0, 0.4, 1e-125) it reads -inf for t = 0.5
    ev = _mirror_model()
    good = [(0.2, -0.1, 0.4), (-0.5, 0.3, 0.1)]
    bad = [(1e-120, 0.0, 0.0), (0.0, 0.4, 1e-125)]
    points = [dict(zip(ev.chart.coords, v)) for v in good[:1] + bad + good[1:]]
    alone_z, alone_fails = z_batch(ev, 0.5, [points[0], points[3]])
    assert not alone_fails
    z, fails = z_batch(ev, 0.5, points)
    assert {row: (rank, type(exc), str(exc)) for row, (rank, exc) in fails.items()} == {
        row: (4, GuardError, "interpolation matrix not finite at t=0.5") for row in (1, 2)
    }
    assert _same_bits(z[[0, 3]], alone_z) and not z[[1, 2]].any()
    vecs = np.array([[p[c] for c in ev.chart.coords] for p in points])
    mats, mat_fails = ev.interp_matrices([0.5], vecs)
    assert sorted(mat_fails) == [1, 2]
    assert all(type(exc) is GuardError for exc in mat_fails.values())
    alone_mats, _ = ev.interp_matrices([0.5], vecs[[0, 3]])
    assert _same_bits(mats[:, [0, 3]], alone_mats)
    # the reverse flow starts at t = 1, where the first bad row overflows
    aborts = {}
    ends = flow_batch(ev, vecs[:2], 100, aborts)
    assert aborts[1][:2] == (0, 4) and type(aborts[1][2]) is GuardError
    alone = {}
    assert _same_bits(ends[0], flow_batch(ev, vecs[:1], 100, alone)[0])
    assert (0 in aborts) == (0 in alone)
    # a NaN determinant trips it too; callers silence numpy as here
    nan_fails = {}
    with np.errstate(invalid="ignore"):
        ev._check_guard([0.5], np.full((1, 2, 3, 3), np.nan), nan_fails)
    assert sorted(nan_fails) == [0, 1] and str(nan_fails[0][1]).endswith("not finite at t=0.5")


def test_interpolation_fails_a_row_at_the_first_t_that_trips_the_guard():
    chart = Chart(("x", "y"))
    pi = MultivectorField(chart, 2, {(0, 1): RationalFn.const(1)})
    theta = one_form(chart, {1: RationalFn.var("x")})
    box = {"x": (Fraction(-1), Fraction(1)), "y": (Fraction(-1), Fraction(1))}
    ev = NumericEvaluator(pi, theta, box)
    mats, fails = ev.interp_matrices([0.5, 1.0, 1.0], np.array([[0.1, 0.2]]))
    assert list(fails) == [0]
    assert (type(fails[0]), str(fails[0])) == (
        GuardError,
        "interpolation matrix near singular at t=1.0",
    )
    assert not mats.any()


def test_homotopy_residual_raises_the_bracket_error_first():
    # at x = y both sides meet Pi's vanishing denominator; the exact
    # bracket's error is the one reported
    ev = _mirror_model()
    point = {"x": 0.3, "y": 0.3, "z": 0.1}
    _alone, fails = homotopy_residuals(ev, Fraction(1, 2), [point])
    assert isinstance(fails[0], ZeroDivisionError) and "vanishes at the point" in str(fails[0])
    residuals, fails = homotopy_residuals(ev, Fraction(1, 2), [{"x": 0.3, "y": 0.1, "z": 0.2}, point])
    assert list(fails) == [1] and residuals[1] == 0.0


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(points=[], steps=50)


def test_rk4_error_drops_by_sixteen_per_halving():
    spec, res, pi, box, ev = _setup()
    start = {"x1": 0.1, "x2": -0.2, "y1": 0.25, "y2": 0.15}
    ends = {}
    for steps in (3200, 100, 200):
        ends[steps], abort = _flow_one(ev, start, steps)
        assert abort is None
    e1 = float(np.max(np.abs(ends[100] - ends[3200])))
    e2 = float(np.max(np.abs(ends[200] - ends[3200])))
    assert e2 > 0
    ratio = e1 / e2
    assert 8.0 < ratio < 32.0


def test_rk4_error_drops_by_sixteen_per_halving_on_a_nilpotent_model():
    # the field comes from the finite series, not from solve
    spec, res, pi, box, ev = _setup("transversal_leaf")
    assert ev._nilpotency == 2
    start = dict(zip(ev.chart.coords, (0.1, -0.2, 0.25, 0.15, -0.1)))
    ends = {}
    for steps in (3200, 100, 200):
        ends[steps], abort = _flow_one(ev, start, steps)
        assert abort is None
    e1 = float(np.max(np.abs(ends[100] - ends[3200])))
    e2 = float(np.max(np.abs(ends[200] - ends[3200])))
    assert e2 > 0
    assert 8.0 < e1 / e2 < 32.0


def _loop_eval(fn: RationalFn, names, vec):
    """Reference: each monomial a product over every coordinate, terms added in order.

    Powers come from numpy, whose float pow may differ from Python's in the
    last bit; the evaluator must reproduce numpy's.  Returns the value and
    whether the denominator vanished, where the value reads as the numerator.
    """
    parts = []
    for poly in (fn.num, fn.den):
        acc = 0.0
        for k, (exps, c) in enumerate(sorted(poly.aligned_to(names).terms.items())):
            mono = 1.0
            for power in vec ** np.array(exps):
                mono *= float(power)
            acc = mono * float(c) if k == 0 else acc + mono * float(c)
        parts.append(acc)
    bad = abs(parts[1]) < 1e-300
    return (parts[0] if bad else parts[0] / parts[1]), bad


def test_eval_stack_matches_a_plain_loop_bit_for_bit():
    rng = random.Random(5)
    names = CHART4.coords + (PI,)
    x1, x2, pi = Poly.var("x1"), Poly.var("x2"), Poly.var(PI)
    fns = [
        RationalFn(rand_poly(rng, CHART4.coords, degree=3, terms=8), rand_poly(rng, ("x1",), 2, 3))
        for _ in range(12)
    ]
    fns = [fn for fn in fns if not fn.den.is_zero()]
    # zero entries, denominators free of the coordinates but not 1, and
    # two denominators that vanish where x1 = x2, the first at column 3
    fns[1:1] = [RationalFn.zero()]
    fns[3:3] = [RationalFn(rand_poly(rng, CHART4.coords, 2, 4), x1 - x2)]
    seventh = Poly.const(Fraction(1, 7))
    fns[6:6] = [RationalFn(rand_poly(rng, CHART4.coords, 2, 4), pi.scale(3) + seventh)]
    fns += [
        RationalFn(rand_poly(rng, names, 2, 5), pi * pi),
        RationalFn.zero(),
        RationalFn(rand_poly(rng, CHART4.coords, 2, 4), x2 - x1),
    ]
    fns = [fn.simplified() for fn in fns]
    for fn in (fns[6], fns[-3]):
        assert not fn.den.is_const() and not any(fn.den.diff(c).terms for c in CHART4.coords)
    entries = _CompiledEntries(CHART4, list(enumerate(fns)))
    vecs = np.array([[rng.uniform(-2, 2) for _ in CHART4.coords] + [math.pi] for _ in range(40)])
    vecs[7, 1] = vecs[7, 0]
    want = [[_loop_eval(fn, names, vec) for fn in fns] for vec in vecs]
    # a row's values do not depend on the size of its batch
    for size in (1, 2, 11, 40):
        vals, bad = entries.eval_stack(vecs[:size])
        assert vals.tolist() == [[v for v, _b in row] for row in want[:size]]
        assert bad.tolist() == [[b for _v, b in row] for row in want[:size]]
    # the first bad column, which names the failure in NumericEvaluator._matrices
    assert np.flatnonzero(bad.any(axis=1)).tolist() == [7]
    assert int(bad[7].argmax()) == 3
    assert str(entries.vanished(3)) == "denominator vanished for component 3"


def _same_bits(a, b) -> bool:
    """Equal arrays down to the sign of each zero."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _table_polys(names, polys, vecs):
    """Reference for _Polys: every used variable to every power 0..maxdeg in
    a per-row table, products by multiply.reduce and sums by add.reduce,
    with the zero monomial padding the term lists.  Returns (B, len(polys))."""
    exps, coeffs, terms = [], [], []
    for poly in polys:
        terms.append([])
        for e, c in sorted(poly.aligned_to(names).terms.items()):
            terms[-1].append(len(exps))
            exps.append(e)
            coeffs.append(float(c))
    exps.append((0,) * len(names))
    coeffs.append(0.0)
    exp_mat = np.array(exps, dtype=np.int64)
    used = np.flatnonzero(exp_mat.any(axis=0))
    powers = np.arange(int(exp_mat.max(initial=0)) + 1)
    d = len(powers)
    table = (vecs[:, used, np.newaxis] ** powers).reshape(len(vecs), len(used) * d)
    factors = _padded([[u * d + e[v] for u, v in enumerate(used) if e[v]] for e in exps], 0)
    vals = np.multiply.reduce(table.take(factors, axis=1), axis=1) * np.array(coeffs)
    return np.add.reduce(vals.take(_padded(terms, len(exps) - 1), axis=1), axis=1)


_NAMES = CHART4.coords + (PI,)
# a monomial reads the coordinates and @pi, @pi alone, or nothing
_EXPONENTS = st.one_of(
    st.tuples(*[st.integers(0, 3)] * len(_NAMES)),
    st.integers(1, 3).map(lambda k: (0,) * len(CHART4.coords) + (k,)),
    st.just((0,) * len(_NAMES)),
)
_COEFF = st.fractions(-3, 3, max_denominator=7)
_POLY = st.lists(st.tuples(_EXPONENTS, _COEFF), max_size=5).map(
    lambda terms: sum(
        (
            functools.reduce(
                lambda p, q: p * q,
                [Poly.var(name) ** k for name, k in zip(_NAMES, e) if k],
                Poly.const(c),
            )
            for e, c in terms
        ),
        Poly.zero(),
    )
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_POLY, min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_polys_match_the_full_power_table_bit_for_bit(polys, seed):
    rng = np.random.default_rng(seed)
    evaluate = _Polys(_NAMES, polys)
    for size in (0, 1, 120):
        vecs = np.empty((size, len(_NAMES)))
        vecs[:, :-1] = rng.uniform(-2, 2, (size, len(CHART4.coords)))
        vecs[:, -1] = math.pi
        # the same instance twice: the rows written once per size stay put
        for _ in range(2):
            assert _same_bits(evaluate(vecs).T, _table_polys(_NAMES, polys, vecs))


def _mirror_model():
    # Pi and d(theta) carry denominators that vanish at x = y and x = z
    chart = Chart(("x", "y", "z"))
    x, y, z = (RationalFn.var(c) for c in chart.coords)
    one = RationalFn.const(1)
    pi = MultivectorField(
        chart, 2, {(0, 1): one / (x - y), (0, 2): z * y, (1, 2): (x + z) / (x - y)}
    )
    theta = one_form(chart, {1: one / (x - z), 2: x * y})
    box = {c: (Fraction(-1), Fraction(1)) for c in chart.coords}
    return NumericEvaluator(pi, theta, box)


def test_mirrored_entries_read_as_the_negated_source():
    ev = _mirror_model()
    rng = np.random.default_rng(3)
    vecs = np.empty((50, 4))
    vecs[:, :3] = rng.uniform(-1, 1, (50, 3))
    vecs[:, 3] = math.pi
    vecs[7, 1] = vecs[7, 0]  # Pi's denominator vanishes
    vecs[9, [0, 2]] = 0.5  # d(theta)'s and theta's do, (x - z)^2 expanded too
    vals, bad = ev._entries.eval_stack(vecs)
    n, nn = 3, 9
    for base in (0, nn):
        for j in range(n):
            for i in range(j):
                assert _same_bits(vals[:, base + j * n + i], -vals[:, base + i * n + j])
    # compiled one by one, as before mirroring, the entries read the same
    # values and vanish at the same points
    alone_vals, alone_bad = _CompiledEntries(ev.chart, ev._exact).eval_stack(vecs)
    assert np.array_equal(vals, alone_vals)
    assert bad.tolist() == alone_bad.tolist()
    _sp, _sb, _th, fails = ev._matrices(vecs)
    assert {row: (rank, str(exc)) for row, (rank, exc) in fails.items()} == {
        7: (1, "denominator vanished for component (0, 1)"),
        9: (2, "denominator vanished for component (0, 1)"),
    }
    for row in (7, 9):
        col = int(alone_bad[row].argmax())
        assert fails[row][0] == 1 + col // nn
        assert str(fails[row][1]) == str(ev._entries.vanished(col))


def test_mirrors_must_be_exact_negations():
    chart = Chart(("x", "y"))
    x = RationalFn.var("x")
    with pytest.raises(ValueError):
        _CompiledEntries(chart, [(0, x), (1, x)], {1: 0})
    with pytest.raises(ValueError):
        _CompiledEntries(chart, [(0, x), (1, -x)], {0: 1})


@pytest.mark.parametrize(
    "name", ["flat", "rotating_lift", "transversal_leaf", "obstructed_lift", "shifted_lift"]
)
def test_batched_interpolation_matches_single_matrices_bit_for_bit(name):
    spec, res, pi, box, ev = _setup(name)
    n = ev.chart.dim
    points = [
        {k: float(v) for k, v in p.items()} for p in sample_box(ev.chart, box, 12, 94)
    ]
    vecs = np.array([[p[c] for c in ev.chart.coords] + [math.pi] for p in points])
    ts = [0.75 + 1e-5, 0.75 - 1e-5, 1.0]
    mats, fails = ev.interp_matrices(ts, vecs)
    assert not fails
    pis, pi_fails = ev.pi_matrices(vecs)
    assert not pi_fails
    for row, p in enumerate(points):
        # one point at a time with 2-D products and inverses
        sp, sb, _th, row_fails = ev._matrices(vecs[row : row + 1])
        assert not row_fails and _same_bits(pis[row], sp[0])
        for k, t in enumerate(ts):
            m = np.eye(n) + t * (sb[0] @ sp[0])
            assert _same_bits(mats[k, row], sp[0] @ np.linalg.inv(m))
        assert _same_bits(ev.interp_matrix(1.0, p), mats[2, row])
        assert _same_bits(ev.pi_matrices(_vec(ev, p))[0][0], pis[row])


def _shuffled(t, rng):
    """t with the terms of every numerator and denominator in another order."""

    def shuffle(p):
        items = list(p.terms.items())
        rng.shuffle(items)
        return Poly(p.vars, dict(items))

    comps = {idx: RationalFn(shuffle(v.num), shuffle(v.den)) for idx, v in t.comps.items()}
    return type(t)(t.chart, t.degree, comps)


@pytest.mark.parametrize(
    "name", ["flat", "rotating_lift", "transversal_leaf", "obstructed_lift", "shifted_lift"]
)
def test_flow_bits_do_not_depend_on_the_order_of_terms(name):
    spec, res, pi, box, ev = _setup(name)
    rng = random.Random(96)
    other = NumericEvaluator(_shuffled(pi, rng), _shuffled(res.theta, rng), box)
    starts = np.array(
        [[float(p[c]) for c in ev.chart.coords] for p in sample_box(ev.chart, box, 6, 97)]
    )
    aborts, other_aborts = {}, {}
    ends = flow_batch(ev, starts, 100, aborts)
    assert _same_bits(ends, flow_batch(other, starts, 100, other_aborts))
    assert aborts.keys() == other_aborts.keys()


def test_homotopy_residual_is_its_batch_row():
    spec, res, pi, box, ev = _setup()
    points = [{k: float(v) for k, v in p.items()} for p in sample_box(ev.chart, box, 4, 95)]
    for t in (Fraction(0), Fraction(1, 2)):
        residuals, fails = homotopy_residuals(ev, t, points)
        assert not fails
        alone = [homotopy_residuals(ev, t, [p]) for p in points]
        assert not any(row_fails for _r, row_fails in alone)
        assert residuals == [r[0] for r, _f in alone]


_COORD = st.floats(-0.6, 0.6, allow_nan=False)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD), min_size=1, max_size=5))
def test_batch_rows_match_single_trajectories(rows):
    # wide starts: some begin outside the box, some leave it mid-flow
    spec, res, pi, box, ev = _setup()
    aborts = {}
    ends = flow_batch(ev, np.array(rows), 100, aborts)
    for k, row in enumerate(rows):
        point = dict(zip(ev.chart.coords, row))
        alone, abort = _flow_one(ev, point, 100)
        if abort is not None:
            assert isinstance(abort[2], BoxExit)
            assert k in aborts
            assert (type(aborts[k][2]), str(aborts[k][2])) == (BoxExit, str(abort[2]))
        else:
            assert k not in aborts
            assert np.array_equal(ends[k], alone)


_COORD3 = st.floats(-0.9, 0.9, allow_nan=False)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_COORD3, _COORD3, _COORD3), min_size=1, max_size=4))
def test_flow_batch_rows_match_rows_flowed_alone_bit_for_bit(rows):
    # the mirror model stops rows on either vanishing denominator; the first
    # two rows stop at once, one on Pi's denominator and one on d(theta)'s
    ev = _mirror_model()
    starts = np.array([(0.3, 0.3, 0.1), (0.5, -0.4, 0.5)] + rows)
    aborts = {}
    ends = flow_batch(ev, starts, 100, aborts)
    assert aborts[0][:2] == (0, 1) and aborts[1][:2] == (0, 2)
    for k, start in enumerate(starts):
        alone = {}
        end = flow_batch(ev, start[np.newaxis], 100, alone)
        assert _same_bits(ends[k], end[0])
        assert (k in aborts) == (0 in alone)
        if k in aborts:
            got, want = aborts[k], alone[0]
            assert got[:2] == want[:2]
            assert (type(got[2]), str(got[2])) == (type(want[2]), str(want[2]))


def test_a_batch_that_starts_outside_the_box_stops_at_once():
    ev = _mirror_model()
    starts = np.array([[2.0, 0.0, 0.0], [0.0, -3.0, 0.5]])
    aborts = {}
    ends = flow_batch(ev, starts, 100, aborts)
    assert _same_bits(ends, starts)
    assert {row: (stage, rank, type(exc)) for row, (stage, rank, exc) in aborts.items()} == {
        0: (0, 0, BoxExit),
        1: (0, 0, BoxExit),
    }
    # the later stages of that step evaluate an empty batch
    vals, bad = ev._entries.eval_stack(np.empty((0, 4)))
    assert vals.shape == bad.shape == (0, len(ev._exact))
    z, fails = z_batch(ev, 0.5, [])
    assert z.shape == (0, 3) and not fails


def test_bad_trajectories_abort_alone():
    spec, res, pi, box, ev = _setup()
    starts = [
        {"x1": 0.1, "x2": 0.05, "y1": 0.12, "y2": -0.08},
        {"x1": -0.15, "x2": 0.2, "y1": -0.1, "y2": 0.05},
        {"x1": 0.05, "x2": -0.12, "y1": 0.2, "y2": 0.1},
    ]
    leaf = [{"x1": 0.15, "x2": -0.1, "y1": 0.0, "y2": 0.0}]
    # starts in the box and leaves it during the flow
    leaving = {"x1": -0.45, "x2": 0.0, "y1": -0.45, "y2": 0.45}
    _end, abort = _flow_one(ev, leaving, 200)
    assert isinstance(abort[2], BoxExit)
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
