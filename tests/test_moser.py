"""Floating-point verification of the deformation path and its flow."""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import math
import pathlib
import random
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHART4, default_box, eval_frac, rand_poly, rand_rational
from diracavg import cli, linalg
from diracavg.averaging import average_coupling, check_compatibility
from diracavg.config import PI
from diracavg.coupling import data_to_poisson, structure_eq_check
from diracavg.derivation import Derivation
from diracavg.fixtures import load
from diracavg.modelspec import parse_spec
from diracavg.moser import (
    T,
    BoxExit,
    FlowConfig,
    GuardError,
    NumericEvaluator,
    _CompiledEntries,
    _faddeev_leverrier,
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
            val = new_sharp[j][i]
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
                    at_p = eval_frac(bracket.component((i, j)), p)
                    assert got[i][j] == _bind_pi(at_p)
                    # the float the residual reads is the old route's float
                    assert float(got[i][j]) == at_p.eval_float({})
                    nonzero += got[i][j] != 0
    assert nonzero


# -- the jet route, the oracle of the symbolic bracket -------------------------

# exact algebra on first-order jets: a left factor comes as rows, the nonzero
# entries of each row as (column, value) pairs, so zero entries cost nothing


def _rows(m):
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def _mul(a, b):
    out = [[0] * len(b[0]) for _ in a]
    for row, entries in zip(out, a):
        for k, x in entries:
            for j, y in enumerate(b[k]):
                if y:
                    row[j] += x * y
    return out


def _apply(a, v):
    out = [0] * len(a)
    for i, entries in enumerate(a):
        for j, x in entries:
            if v[j]:
                out[i] += x * v[j]
    return out


def _add(a, b, c=1):
    """a + c b."""
    return [[x + c * y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _combine(coeffs, mats, n):
    """sum_k coeffs[k] mats[k]."""
    out = [[0] * n for _ in range(n)]
    for c, m in zip(coeffs, mats):
        if c:
            for row, entries in zip(out, m):
                for j, x in entries:
                    row[j] += c * x
    return out


def _jet_bracket(ev, t, point):
    """[[Z_t, Pi_t]] at one point, exactly, from first-order jets of Pi#,
    dTheta# and Theta: the route HR took before the bracket was derived
    once per request, kept here as its oracle.

    With M the inverse of A = Id + t dTheta# Pi#, the sharp matrix of Pi_t
    is Pi# M and Z_t = -Pi# M Theta; their first derivatives follow by
    d(M) = -M d(A) M, and (L_Z Pi)^{ij} = Z^k d_k Pi^{ij} - Pi^{kj} d_k Z^i
    - Pi^{ik} d_k Z^j.  Raises ZeroDivisionError where a denominator
    vanishes and GuardError where A is singular.
    """
    t = Fraction(t)
    n, nn = ev.chart.dim, ev.chart.dim ** 2
    at = {c: Fraction(point[c]) for c in ev.chart.coords}
    at[PI] = Fraction(math.pi)
    # @pi is bound, so each value and gradient is an integer pair
    vals, grads = linalg.Jets([fn for _key, fn in ev._exact], ev.chart.coords).at(at)
    vals, grads = [Fraction(*v) for v in vals], [[Fraction(*g) for g in row] for row in grads]

    def families(flat):
        # the column order of ev._exact: Pi# and dTheta# row-major, then Theta
        return (
            [flat[j * n : (j + 1) * n] for j in range(n)],
            [flat[nn + j * n : nn + (j + 1) * n] for j in range(n)],
            flat[2 * nn :],
        )

    sp, sb, th = families(vals)
    d_sp, d_sb, d_th = zip(*map(families, grads))
    sp_rows, sb_rows = _rows(sp), _rows(sb)
    d_sp_rows, d_sb_rows = [_rows(m) for m in d_sp], [_rows(m) for m in d_sb]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    aug = [row + e for row, e in zip(_add(eye, _mul(sb_rows, sp), t), eye)]
    if len(linalg.rref(aug)) < n:
        raise GuardError(f"interpolation matrix singular at t={t}")
    inv = [row[n:] for row in aug]
    sharp = _mul(sp_rows, inv)
    sharp_rows = _rows(sharp)
    w = _apply(_rows(inv), th)
    z = [-x for x in _apply(sp_rows, w)]
    # the derivative of Pi_t# along Z
    sp_z = _combine(z, d_sp_rows, n)
    a_z = _add(_mul(_rows(_combine(z, d_sb_rows, n)), sp), _mul(sb_rows, sp_z))
    sharp_z = _mul(_rows(_add(sp_z, _mul(sharp_rows, a_z), -t)), inv)
    # jac_t[k][i] = d_k Z^i = -(d_k Pi_t#) Theta - Pi_t# d_k Theta, where
    # (d_k Pi_t#) Theta = d_k(Pi#) w - Pi_t# d_k(A) w and Pi# w = -Z
    jac_t = []
    for k in range(n):
        dsp_w = _apply(d_sp_rows[k], w)
        da_w = [t * (x - y) for x, y in zip(_apply(sb_rows, dsp_w), _apply(d_sb_rows[k], z))]
        jac_t.append([
            y - x - u
            for x, y, u in zip(dsp_w, _apply(sharp_rows, da_w), _apply(sharp_rows, d_th[k]))
        ])
    # Pi_t^{ij} is sharp[j][i], and sharp is antisymmetric, so with
    # c = jac sharp the last two terms are c[i][j] - c[j][i]
    c = _mul(_rows(zip(*jac_t)), sharp)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out[i][j] = sharp_z[j][i] + c[i][j] - c[j][i]
            out[j][i] = -out[i][j]
    return out


def _outcome(route, *args):
    """The bracket a route gives, or the type of the error it raises."""
    try:
        return route(*args)
    except ArithmeticError as exc:
        return type(exc)


@functools.lru_cache(maxsize=None)
def _torus():
    """The torus model's evaluator and box, as moser-verify builds them."""
    spec = parse_spec(str(pathlib.Path(__file__).resolve().parents[1] / "bench" / "torus.json"))
    d = Derivation()
    _checks, res = cli._averaged(spec, d, None)
    box = spec.get_box(None)
    ev = NumericEvaluator(d.coupling(res.source).pi, res.theta, box, sample_box(spec.chart, box, 5, 1))
    return ev, box


def _small_random_model(rng):
    # three coordinates and entries of degree 1 in one coordinate each: both
    # patterns of dTheta# Pi#, with and without a cycle, turn up
    chart = Chart(("q0", "q1", "q2"))

    def entry():
        return rand_rational(rng, rng.sample(chart.coords, 1), degree=1)

    pi = MultivectorField(chart, 2, {ij: entry() for ij in ((0, 1), (0, 2), (1, 2)) if rng.random() < 0.8})
    theta = one_form(chart, {i: entry() for i in range(3) if rng.random() < 0.8})
    return NumericEvaluator(pi, theta, default_box(chart)), default_box(chart)


_QUARTERS = [Fraction(k, 4) for k in range(5)]


@pytest.mark.parametrize(
    "name", ["flat", "rotating_lift", "transversal_leaf", "obstructed_lift", "shifted_lift", "torus"]
)
def test_the_symbolic_bracket_is_the_jet_bracket(name):
    if name == "torus":
        ev, box = _torus()
    else:
        _spec, _res, _pi, box, ev = _setup(name)
    points = sample_box(ev.chart, box, 3, 93)
    nonzero = 0
    for t in _QUARTERS:
        for p in points:
            got = _outcome(ev.bracket_exact, t, p)
            assert got == _outcome(_jet_bracket, ev, t, p)
            nonzero += any(v != 0 for row in got for v in row)
    assert nonzero or name == "flat"


def test_the_symbolic_bracket_is_the_jet_bracket_on_random_models():
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 3:
        ev, box = _small_random_model(rng)
        cyclic = _path_index(ev) is None
        if seen[cyclic] >= 3:
            continue
        seen[cyclic] += 1
        for t in _QUARTERS:
            for p in sample_box(ev.chart, box, 2, 94):
                assert _outcome(ev.bracket_exact, t, p) == _outcome(_jet_bracket, ev, t, p)


def test_the_bracket_of_rotating_lift_is_reduced():
    # 1,202 numerator and denominator terms where fractions were not reduced
    _spec, _res, _pi, _box, ev = _setup("rotating_lift")
    _det, bracket = ev._bracket_fns()
    assert sum(len(f.num.terms) + len(f.den.terms) for f in bracket.comps.values()) == 14


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


def test_a_flow_with_no_start_points_fails_pd():
    # PD's evidence is its start points: none is not a pass
    spec, res, pi, box, ev = _setup()
    leaf = [{"x1": 0.15, "x2": -0.1, "y1": 0.0, "y2": 0.0}]
    for cfg in (FlowConfig(points=[]), FlowConfig(points=[], steps=200, leaf_points=leaf)):
        rep = flow_and_verify(ev, cfg)
        assert not rep.ok and rep.aborted == 0
        assert rep.check.check == "PD" and rep.check.status == "fail"
        assert rep.check.witness == "only 0/0 start points usable"


def _flow_with_a_nan_end(monkeypatch, ev, cfg, row):
    """flow_and_verify where one trajectory's end reads NaN."""
    from diracavg import moser

    real = moser.flow_batch

    def nan_end(*args):
        ends = real(*args)
        ends[row, 0] = np.nan
        return ends

    monkeypatch.setattr(moser, "flow_batch", nan_end)
    rep = flow_and_verify(ev, cfg)
    monkeypatch.undo()
    return rep


@pytest.mark.parametrize("point", [0, 3])
def test_a_nan_deviation_fails_the_flow(monkeypatch, point):
    # Python's max drops a NaN after the first item, and a NaN compares
    # below every tolerance; the first and the last point are both checked
    spec, res, pi, box, ev = _setup()
    starts = [
        {"x1": 0.1, "x2": 0.05, "y1": 0.12, "y2": -0.08},
        {"x1": -0.15, "x2": 0.2, "y1": -0.1, "y2": 0.05},
        {"x1": 0.05, "x2": -0.12, "y1": 0.2, "y2": 0.1},
        {"x1": -0.02, "x2": 0.08, "y1": -0.15, "y2": -0.2},
    ]
    cfg = FlowConfig(points=starts, steps=100)
    assert flow_and_verify(ev, cfg).ok
    # a central-difference neighbour of the point: its Jacobian reads NaN
    rep = _flow_with_a_nan_end(monkeypatch, ev, cfg, point * 9 + 1)
    assert not rep.ok and rep.aborted == 0
    assert math.isnan(rep.outcomes[point].deviation) and math.isnan(rep.max_deviation)


def test_a_nan_leaf_error_fails_the_flow(monkeypatch):
    spec, res, pi, box, ev = _setup()
    starts = [{"x1": 0.1, "x2": 0.05, "y1": 0.12, "y2": -0.08}]
    leaf = [{"x1": 0.15, "x2": -0.1, "y1": 0.0, "y2": 0.0}, {"x1": -0.1, "x2": 0.2, "y1": 0.0, "y2": 0.0}]
    cfg = FlowConfig(points=starts, steps=100, leaf_points=leaf)
    assert flow_and_verify(ev, cfg).ok
    for row in (9, 10):
        rep = _flow_with_a_nan_end(monkeypatch, ev, cfg, row)
        assert not rep.ok and math.isnan(rep.leaf_max_error)


def test_a_nan_homotopy_residual_is_kept(monkeypatch):
    spec, res, pi, box, ev = _setup()
    points = [{k: float(v) for k, v in p.items()} for p in sample_box(ev.chart, box, 3, 92)]
    want, fails = homotopy_residuals(ev, 0.25, points)
    assert not fails
    real = ev.interp_matrices

    def nan_entry(ts, vecs):
        mats, mat_fails = real(ts, vecs)
        mats[0, 1, 2, 3] = np.nan
        return mats, mat_fails

    monkeypatch.setattr(ev, "interp_matrices", nan_entry)
    got, fails = homotopy_residuals(ev, 0.25, points)
    assert not fails and math.isnan(got[1])
    assert got[:1] + got[2:] == want[:1] + want[2:]


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
        assert _guard_can_trip(NumericEvaluator(pi, theta, box))


def test_a_guard_of_one_or_more_keeps_the_determinant():
    # Pi = dx^dy against d(x dz) = dx^dz: dTheta# Pi# is nilpotent, so the
    # determinant is 1 and only a guard above it can trip
    chart = Chart(("x", "y", "z"))
    pi = MultivectorField(chart, 2, {(0, 1): RationalFn.const(1)})
    theta = one_form(chart, {2: RationalFn.var("x")})
    box = {c: (Fraction(-1), Fraction(1)) for c in chart.coords}
    point = {"x": 0.1, "y": 0.2, "z": -0.3}
    assert not _guard_can_trip(NumericEvaluator(pi, theta, box))
    assert _guard_can_trip(NumericEvaluator(pi, theta, box, guard=1.0))
    ev = NumericEvaluator(pi, theta, box, guard=2.0)
    assert _guard_can_trip(ev)
    _z, fails = z_batch(ev, 0.5, [point])
    assert (fails[0][0], type(fails[0][1])) == (4, GuardError)
    _mats, fails = ev.interp_matrices([0.5], _vec(ev, point))
    assert type(fails[0]) is GuardError


def _guard_can_trip(ev) -> bool:
    """Whether ev's guard can trip, known once D(t) is derived."""
    ev._compile()
    return ev._guard_can_trip


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
    # models whose pattern has a cycle, and those where it has none
    # although dTheta# Pi# is not zero; D(t) is derived on the second kind
    # only, as it can be large on the first
    seen = {"cycle": 0, "nilpotent": 0}
    for _ in range(60):
        ev = _random_model(rng)
        if _path_index(ev) is None:
            seen["cycle"] += 1
            continue
        assert not _guard_can_trip(ev)
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


def _path_index(ev) -> Optional[int]:
    """1 + the longest path of the graph with an edge i -> j wherever
    S = dTheta# Pi# has a nonzero entry (i, j), or None where that graph
    has a cycle (an edge i -> i is one).  Without a cycle S is nilpotent,
    and S^k = 0 for k the index."""
    s = linalg.mat_mul(flat_matrix(ev.dtheta_exact), sharp_matrix(ev.pi_exact))
    left, rounds = set(range(len(s))), 0
    while left:
        # a node with no edge into the nodes left lies on no cycle among them
        ends = {i for i in left if all(s[i][j].is_zero() for j in left)}
        if not ends:
            return None
        left -= ends
        rounds += 1
    return rounds


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
    # (Id + t S)^{-1} = sum_{j<K} (-t S)^j for S = dTheta# Pi#, so D = 1 and
    # N has K coefficients, and on the fixtures no term is wasted: S^(K-1)
    # is not zero
    spec, res, pi, box, ev = _setup(name)
    assert (_path_index(ev) is None) is (k is None)
    if k is None:
        assert len(ev._det) > 1
        return
    assert len(ev._det) == 1 and ev._order == k
    assert _exact_power_vanishes(ev, k)
    assert k == 1 or not _exact_power_vanishes(ev, k - 1)
    points = [{c: float(v) for c, v in p.items()} for p in sample_box(ev.chart, box, 8, 99)]
    _assert_z_is_the_solved_field(ev, points)


def test_the_series_solves_random_nilpotent_models():
    rng = random.Random(98)
    seen = {k: 0 for k in (1, 2, 3)}
    for _ in range(300):
        ev = _random_model(rng)
        # K = 1 + the longest path of S's pattern: S^K = 0, and N needs no
        # more than K coefficients
        k = _path_index(ev)
        if k is None:
            continue
        ev._compile()
        assert _exact_power_vanishes(ev, k)
        assert len(ev._det) == 1 and ev._order <= k
        seen[k] += 1
        if k > 1:
            box = default_box(ev.chart)
            points = [{c: float(v) for c, v in p.items()} for p in sample_box(ev.chart, box, 4, 3)]
            _assert_z_is_the_solved_field(ev, points)
    assert min(seen.values()) >= 3, seen


def _assert_coefficients_sum_to_the_inverted_field(ev, points):
    """sum_k t^k c_k, the compiled coefficients' exact sources, equals
    -Pi_t# Theta with Pi_t# by exact inversion, at rational t and points.
    Returns how many (t, point) pairs were compared."""
    n = ev.chart.dim
    theta = [ev.theta_exact.component((i,)) for i in range(n)]
    coeffs = dict(ev._z_exact)
    assert sorted(coeffs) == [(k, i) for k in range(ev._order) for i in range(n)]
    compared = 0
    for t in (Fraction(1, 3), Fraction(1)):
        sharp = sharp_matrix(_pi_t_exact(ev, t))
        for p in points:
            try:
                got = [
                    sum(t**k * coeffs[(k, j)].value_at(p) for k in range(ev._order))
                    for j in range(n)
                ]
                want = [
                    -sum(sharp[j][i].value_at(p) * theta[i].value_at(p) for i in range(n))
                    for j in range(n)
                ]
            except ZeroDivisionError:
                continue
            assert got == want
            compared += 1
    return compared


@pytest.mark.parametrize("name", ["flat", "transversal_leaf", "obstructed_lift", "shifted_lift"])
def test_the_compiled_coefficients_sum_to_the_inverted_field(name):
    spec, res, pi, box, ev = _setup(name)
    assert _assert_coefficients_sum_to_the_inverted_field(ev, sample_box(ev.chart, box, 3, 90))


def test_the_coefficients_of_random_acyclic_models_sum_to_the_inverted_field():
    rng = random.Random(98)
    seen = {k: 0 for k in (1, 2, 3)}
    while min(seen.values()) < 2:
        ev = _random_model(rng)
        k = _path_index(ev)
        if k is None or seen[k] >= 2:
            continue
        seen[k] += 1
        ev._compile()
        points = sample_box(ev.chart, default_box(ev.chart), 3, 4)
        assert _assert_coefficients_sum_to_the_inverted_field(ev, points)


_T_FN = RationalFn.from_poly(Poly((T,), {(1,): 1}))


def _sum_in_t(coeffs):
    """sum_k T^k coeffs[k], power by power."""
    out, power = RationalFn.zero(), RationalFn.const(1)
    for c in coeffs:
        out, power = out + c * power, power * _T_FN
    return out


def _assert_the_recursion_is_det_and_adjugate(ev) -> bool:
    """With S = dTheta# Pi#: D(T) = sum_k T^k e_k is det(Id + T S) by
    Bareiss elimination, and (sum_k T^k B_k)(Id + T S) = D(T) Id, exactly.
    Returns whether D is 1."""
    n = ev.chart.dim
    s = linalg.mat_mul(flat_matrix(ev.dtheta_exact), sharp_matrix(ev.pi_exact))
    e, adj = _faddeev_leverrier(s)
    assert not e[-1].is_zero() and 1 <= len(adj) <= n
    assert any(not x.is_zero() for row in adj[-1] for x in row)
    m = linalg.mat_add(linalg.identity(n), linalg.mat_scale(s, _T_FN))
    d = _sum_in_t(e)
    assert d == linalg.det(m)
    adj_t = [[_sum_in_t([b[i][j] for b in adj]) for j in range(n)] for i in range(n)]
    assert linalg.mat_mul(adj_t, m) == linalg.mat_scale(linalg.identity(n), d)
    return len(e) == 1


@pytest.mark.parametrize(
    "name, det_one",
    [
        ("flat", True),
        ("rotating_lift", False),
        ("transversal_leaf", True),
        ("obstructed_lift", True),
        ("shifted_lift", True),
        ("torus", False),
    ],
)
def test_the_recursion_gives_the_determinant_and_the_adjugate(name, det_one):
    ev = _torus()[0] if name == "torus" else _setup(name)[4]
    assert _assert_the_recursion_is_det_and_adjugate(ev) is det_one


def test_the_recursion_gives_the_determinant_and_the_adjugate_on_random_models():
    # the first 30 models, nilpotent and cyclic; the 24th is left out: on
    # its dense cyclic S the recursion alone takes about 3.6 s, where these
    # take about 0.4 s together
    rng = random.Random(98)
    seen = {True: 0, False: 0}
    for idx in range(1, 31):
        ev = _random_model(rng)
        if idx != 24:
            seen[_assert_the_recursion_is_det_and_adjugate(ev)] += 1
    assert min(seen.values()) >= 8, seen


def test_a_corrupted_coefficient_fails_the_probe_check():
    spec, res, pi, box, ev = _setup("transversal_leaf")
    probes = sample_box(ev.chart, box, 4, 91)
    ev._verify_probes(probes)
    # one entry of the top coefficient compiled off by a relative 1e-9
    col = max(c for c, (_key, fn) in enumerate(ev._z_exact) if not fn.is_zero())
    assert ev._z_exact[col][0][0] == ev._order - 1
    off = RationalFn.const(Fraction(10**9 + 1, 10**9))
    corrupted = copy.copy(ev)
    corrupted._z_entries = _CompiledEntries(
        ev.chart,
        ev._pole_exact
        + [(key, fn * off if c == col else fn) for c, (key, fn) in enumerate(ev._z_exact)],
    )
    with pytest.raises(AssertionError, match="compiled evaluator disagrees"):
        corrupted._verify_probes(probes)


@pytest.mark.parametrize("name", ["flat", "transversal_leaf", "obstructed_lift", "shifted_lift"])
def test_acyclic_batch_rows_match_rows_flowed_alone_bit_for_bit(name):
    spec, res, pi, box, ev = _setup(name)
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


def _varying_acyclic_model():
    # Pi = (dw^dx + dy^dz) / (x - y) against Theta = w dw / (z - 1/2) + y dy:
    # dTheta# Pi#'s pattern has no cycle, Z_t's coefficient in t is not zero,
    # and each family has a denominator that vanishes in the box
    chart = Chart(("w", "x", "y", "z"))
    w, x, y, z = (RationalFn.var(c) for c in chart.coords)
    pole = RationalFn.const(1) / (x - y)
    pi = MultivectorField(chart, 2, {(0, 1): pole, (2, 3): pole})
    theta = one_form(chart, {0: w / (z - RationalFn.const(Fraction(1, 2))), 2: y})
    box = {c: (Fraction(-1), Fraction(1)) for c in chart.coords}
    return NumericEvaluator(pi, theta, box)


def test_an_acyclic_row_stops_where_a_denominator_vanishes():
    ev = _varying_acyclic_model()
    assert not _guard_can_trip(ev) and ev._order == 2 and ev._entries._n_varying
    assert any(not fn.is_zero() for (k, _i), fn in ev._z_exact if k == 1)
    # Pi#'s denominator vanishes, then dTheta#'s and Theta's, then all three
    starts = np.array([
        (0.2, 0.3, 0.3, 0.1),
        (0.2, -0.4, 0.1, 0.5),
        (-0.3, -0.6, -0.6, 0.5),
        (0.1, -0.3, -0.2, 0.2),
        (-0.2, 0.4, 0.1, -0.3),
        (0.05, 0.3, -0.6, -0.1),
        # Pi#'s denominator is 1e-160, and the square in the coefficient of
        # t underflows: that coefficient's own denominator vanishes
        (0.3, 1e-160, 0.0, 0.1),
    ])
    aborts = {}
    ends = flow_batch(ev, starts, 100, aborts)
    assert {row: aborts[row][:2] for row in (0, 1, 2, 6)} == {
        0: (0, 1), 1: (0, 2), 2: (0, 1), 6: (0, 3)
    }
    assert str(aborts[6][2]) == "denominator vanished for component (1, 1)"
    assert len(aborts) < len(starts)
    # the rank and error of the first family, in the order Pi#, dTheta#,
    # Theta, whose denominator vanished
    _vals, bad = ev._entries.eval_stack(starts[:3])
    for row in range(3):
        col = int(bad[row].argmax())
        assert aborts[row][1] == 1 + col // 16
        assert str(aborts[row][2]) == str(ev._entries.vanished(col))
    for k, start in enumerate(starts):
        alone = {}
        end = flow_batch(ev, start[np.newaxis], 100, alone)
        assert _same_bits(ends[k], end[0])
        assert (k in aborts) == (0 in alone)
        if k in aborts:
            assert aborts[k][:2] == alone[0][:2]
    # the stopped rows read zero, the others the solved field
    points = [dict(zip(ev.chart.coords, v)) for v in starts]
    z, fails = z_batch(ev, 0.5, points)
    assert sorted(fails) == [0, 1, 2, 6] and not z[[0, 1, 2, 6]].any()
    _assert_z_is_the_solved_field(ev, points[:6])


def test_a_non_finite_determinant_trips_the_guard(monkeypatch):
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
    # a NaN determinant trips it too, on both routes: every e_k reads NaN
    # where a stage divides the z family
    quotients = ev._z_entries._quotients

    def nan_det(cols):
        values, flags = quotients(cols)
        values = values.copy()
        values[ev._stage_rows[ev._order * ev.chart.dim :]] = np.nan
        return values, flags

    monkeypatch.setattr(ev._z_entries, "_quotients", nan_det)
    z, fails = z_batch(ev, 0.5, points[:1] + points[3:])
    assert {row: rank for row, (rank, _exc) in fails.items()} == {0: 4, 1: 4} and not z.any()
    _mats, mat_fails = ev.interp_matrices([0.5], vecs[[0, 3]])
    for exc in [exc for _rank, exc in fails.values()] + list(mat_fails.values()):
        assert type(exc) is GuardError and str(exc) == "interpolation matrix not finite at t=0.5"
    assert sorted(mat_fails) == [0, 1]
    # and the flow stops both rows at its first stage, t = 1
    aborts = {}
    ends = flow_batch(ev, vecs[[0, 3]], 100, aborts)
    assert _failure_keys(aborts) == {
        row: (0, 4, GuardError, "interpolation matrix not finite at t=1.0") for row in (0, 1)
    }
    assert _same_bits(ends, vecs[[0, 3]])


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
    assert ev._order == 2 and len(ev._det) == 1
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
            assert _same_bits(evaluate(vecs.T).T, _table_polys(_NAMES, polys, vecs))


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


# -- the field's stages before one stage routine served them all -----------
# Oracles: _guarded, _z_rows and flow_batch as they were when the points ran
# as rows, (B, n), and each stage read the z family through eval_stack.  The
# one stage routine must give the same bits and the same aborts.


def _oracle_guarded(ev, ts, vecs):
    ev._compile()
    vals, bad = ev._z_entries.eval_stack(vecs)
    fails = {}
    poles, n, order = len(ev._poles), ev._n, ev._order
    det = vals[:, poles + order * n :]
    unknown = []
    if ev._z_entries._n_varying:
        for row in np.flatnonzero(bad.any(axis=1)):
            col = int(bad[row].argmax())
            if col < poles:
                src = ev._poles[col]
                fails[int(row)] = (1 + src // (n * n), ev._entries.vanished(src))
            elif det.shape[1]:
                unknown.append(row)
            else:
                fails[int(row)] = (3, ev._z_entries.vanished(col))
    coeffs = vals[:, poles : poles + order * n].reshape(-1, order, n)
    if not ev._guard_can_trip:
        return coeffs, None, fails
    tt = np.asarray(ts, dtype=float)[:, np.newaxis]
    d = np.zeros((len(ts), len(vecs)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(det.shape[1] - 1, -1, -1):
            d = (d + det[:, k]) * tt
        d += 1.0
        d[:, unknown] = np.nan
        mag = np.abs(d)
    for k, row in zip(*np.nonzero(~(mag < np.inf) | (mag < ev.guard))):
        why = "near singular" if mag[k, row] < ev.guard else "not finite"
        fails.setdefault(int(row), (4, GuardError(f"interpolation matrix {why} at t={ts[k]}")))
    return coeffs, d, fails


def _oracle_z_rows(ev, t, vecs):
    c, d, fails = _oracle_guarded(ev, [t], vecs)
    ok = slice(None)
    if fails:
        ok = np.ones(len(vecs), dtype=bool)
        ok[list(fails)] = False
    c = c[ok]
    z = c[:, -1]
    for k in range(ev._order - 2, -1, -1):
        z = z * t + c[:, k]
    if d is not None:
        z = z / d[0][ok, np.newaxis]
    if not fails:
        return z, fails
    full = np.zeros((len(vecs), ev.chart.dim))
    full[ok] = z
    return full, fails


def _oracle_z_batch(ev, t, points):
    vecs = np.array([[float(p[c]) for c in ev.chart.coords] for p in points])
    return _oracle_z_rows(ev, t, vecs.reshape(len(points), ev.chart.dim))


def _oracle_interp_matrices(ev, ts, vecs):
    sp, sb, _th, fails = ev._matrices(vecs)
    ev._compile()
    quiet = {}
    if ev._guard_can_trip:
        for row, fail in _oracle_guarded(ev, ts, vecs)[2].items():
            fails.setdefault(row, fail)
        quiet = {"over": "ignore", "invalid": "ignore"}
    with np.errstate(**quiet):
        m = ev._eye + np.asarray(ts, dtype=float)[:, None, None, None] * (sb @ sp)
    ok = np.ones(len(vecs), dtype=bool)
    ok[list(fails)] = False
    out = np.zeros(m.shape)
    out[:, ok] = sp[ok] @ np.linalg.inv(m[:, ok])
    return out, {row: exc for row, (_rank, exc) in fails.items()}


def _oracle_flow_batch(ev, starts, steps, aborts):
    n = ev.chart.dim
    x = np.array(starts, dtype=float)
    b = x.shape[0]
    h = -1.0 / steps
    t = 1.0
    live = np.ones(b, dtype=bool)
    whole = b > 0
    lo, hi = np.tile(ev._box_lo, (b, 1)), np.tile(ev._box_hi, (b, 1))
    stage = 0

    def stop(rows, rank_exc):
        nonlocal whole
        for row, (rank, exc) in rank_exc.items():
            live[rows[row]] = False
            aborts[int(rows[row])] = (stage, rank, exc)
        whole = whole and not rank_exc

    def in_box(xx):
        inside = (xx >= lo) & (xx <= hi)
        if whole and inside.all():
            return None
        exits = np.flatnonzero(live & ~inside.all(axis=1))
        stop(exits, {k: (0, BoxExit("trajectory left the box")) for k in range(len(exits))})
        return np.flatnonzero(live)

    def z(tt, xx):
        nonlocal stage
        rows = in_box(xx)
        if rows is None:
            out, fails = _oracle_z_rows(ev, tt, xx)
            stop(all_rows, fails)
        else:
            out = np.zeros((b, n))
            out[rows], fails = _oracle_z_rows(ev, tt, xx[rows])
            stop(rows, fails)
        stage += 1
        return out

    all_rows = np.arange(b)
    for _ in range(steps):
        if not (whole or live.any()):
            break
        k1 = z(t, x)
        k2 = z(t + h / 2.0, x + (h / 2.0) * k1)
        k3 = z(t + h / 2.0, x + (h / 2.0) * k2)
        k4 = z(t + h, x + h * k3)
        step = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = step if whole else np.where(live[:, np.newaxis], step, x)
        t += h
    stage = 4 * steps
    in_box(x)
    return x


def _failure_keys(fails):
    """row -> (stage, rank, error) or (rank, error) or error, as comparable
    tuples: the error by its type and message."""

    def key(v):
        if isinstance(v, tuple):
            return tuple(v[:-1]) + (type(v[-1]), str(v[-1]))
        return (type(v), str(v))

    return {row: key(v) for row, v in fails.items()}


def _assert_as_the_oracles(ev, starts, steps, ts=(1.0, 0.5, 0.0)):
    """flow_batch, z_batch and interp_matrices against their oracles: the
    same bits and the same failures."""
    starts = np.asarray(starts, dtype=float).reshape(-1, ev.chart.dim)
    aborts, want_aborts = {}, {}
    ends = flow_batch(ev, starts, steps, aborts)
    assert _same_bits(ends, _oracle_flow_batch(ev, starts, steps, want_aborts))
    assert _failure_keys(aborts) == _failure_keys(want_aborts)
    points = [dict(zip(ev.chart.coords, row)) for row in starts]
    for t in ts:
        z, fails = z_batch(ev, t, points)
        want_z, want_fails = _oracle_z_batch(ev, t, points)
        assert _same_bits(z, want_z) and _failure_keys(fails) == _failure_keys(want_fails)
    _assert_interp_as_the_oracle(ev, list(ts), starts)
    return aborts


def _assert_interp_as_the_oracle(ev, ts, vecs):
    """interp_matrices against its oracle, row by row where the oracle's
    inverse raises or its Pi_t# is not finite: there interp_matrices fails
    the row at the first such t, and elsewhere it gives the same bits and
    failures as the oracle on those rows."""
    mats, fails = ev.interp_matrices(ts, vecs)

    def oracle(rows, ts=ts):
        with np.errstate(over="ignore", invalid="ignore"):
            return _oracle_interp_matrices(ev, ts, vecs[rows])

    kept = []
    for row in range(len(vecs)):
        try:
            alone = oracle([row])[0]
        except np.linalg.LinAlgError:
            k = next(k for k, t in enumerate(ts) if _raises(lambda: oracle([row], [t])))
            assert _failure_keys({0: fails[row]}) == _failure_keys(
                {0: GuardError(f"interpolation matrix singular at t={ts[k]}")})
            continue
        bad = np.flatnonzero(~np.isfinite(alone).all(axis=(1, 2, 3)))
        if len(bad):
            assert _failure_keys({0: fails[row]}) == _failure_keys(
                {0: GuardError(f"interpolation matrix not finite at t={ts[bad[0]]}")})
            continue
        kept.append(row)
    want, want_fails = oracle(kept)
    assert _same_bits(mats[:, kept], want)
    assert not mats[:, sorted(set(range(len(vecs))) - set(kept))].any()
    kept_fails = {row: fails[row] for row in kept if row in fails}
    assert _failure_keys(kept_fails) == _failure_keys({kept[r]: e for r, e in want_fails.items()})


def _raises(call) -> bool:
    try:
        call()
    except np.linalg.LinAlgError:
        return True
    return False


def _bench_flows(monkeypatch, spec):
    """(evaluator, starts, steps) of each flow_batch call of moser-verify at
    the benchmark's settings, 10 samples and 250 steps."""
    from diracavg import moser

    calls = []
    real = moser.flow_batch

    def spy(ev, starts, steps, aborts):
        calls.append((ev, np.array(starts), steps))
        return real(ev, starts, steps, aborts)

    monkeypatch.setattr(moser, "flow_batch", spy)
    argv = ["moser-verify", "--spec", spec, "--samples", "10", "--steps", "250", "--seed", "7"]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize(
    "name", ["flat", "rotating_lift", "transversal_leaf", "obstructed_lift", "shifted_lift", "torus"]
)
def test_the_stage_matches_the_row_oracles_on_the_fixtures(monkeypatch, name):
    spec = str(pathlib.Path(__file__).resolve().parents[1] / "bench" / "torus.json") if (
        name == "torus") else name
    (ev, starts, steps), = _bench_flows(monkeypatch, spec)
    assert steps == 250 and len(starts) >= 10 * (1 + 2 * ev.chart.dim)
    _assert_as_the_oracles(ev, starts, steps)
    # wider starts: some begin outside the box, some leave it mid-flow
    aborts = _assert_as_the_oracles(ev, np.concatenate([2.5 * starts[:30], starts[:5]]), 100)
    assert aborts


def test_the_stage_matches_the_row_oracles_at_poles_and_at_the_guard():
    ev = _mirror_model()
    good = [(0.2, -0.1, 0.4), (-0.5, 0.3, 0.1)]
    guard = [(1e-120, 0.0, 0.0), (0.0, 0.4, 1e-125)]
    poles = [(0.3, 0.3, 0.1), (0.5, -0.4, 0.5), (0.5, 0.2, 0.5)]
    aborts = _assert_as_the_oracles(ev, good[:1] + guard + poles + good[1:], 100)
    assert {row: aborts[row][:2] for row in range(1, 6)} == {
        1: (0, 4), 2: (0, 4), 3: (0, 1), 4: (0, 2), 5: (0, 2)
    }
    ev = _varying_acyclic_model()
    starts = [
        (0.2, 0.3, 0.3, 0.1),
        (0.2, -0.4, 0.1, 0.5),
        (-0.3, -0.6, -0.6, 0.5),
        (0.1, -0.3, -0.2, 0.2),
        (-0.2, 0.4, 0.1, -0.3),
        (0.05, 0.3, -0.6, -0.1),
        (0.3, 1e-160, 0.0, 0.1),
    ]
    # the last start's Pi# is out of range where the field's coefficient
    # underflows, so its Pi_t# is not finite: the row oracle overflows there
    aborts = _assert_as_the_oracles(ev, starts, 100)
    assert {row: aborts[row][:2] for row in (0, 1, 2, 6)} == {
        0: (0, 1), 1: (0, 2), 2: (0, 1), 6: (0, 3)
    }
    _mats, fails = ev.interp_matrices([1.0, 0.5], np.array(starts[-1:]))
    assert _failure_keys(fails) == _failure_keys(
        {0: GuardError("interpolation matrix not finite at t=1.0")})


def test_a_matrix_numpy_cannot_invert_fails_its_row():
    # D(t) passes the guard at this point, but numpy's inverse meets a zero
    # pivot at t = 1 and 1/2
    ev = _mirror_model()
    vecs = np.array([[0.0, 2.215242212233337e-93, 0.5], [0.2, -0.1, 0.4]])
    mats, fails = ev.interp_matrices([1.0, 0.5], vecs)
    assert _failure_keys(fails) == _failure_keys(
        {0: GuardError("interpolation matrix singular at t=1.0")})
    assert not mats[:, 0].any() and np.isfinite(mats[:, 1]).all() and mats[:, 1].any()
    _assert_interp_as_the_oracle(ev, [1.0, 0.5], vecs)
    residuals, fails = homotopy_residuals(ev, 0.5, [dict(zip(ev.chart.coords, v)) for v in vecs])
    assert _failure_keys(fails) == _failure_keys(
        {0: GuardError("interpolation matrix singular at t=0.49999")})
    assert residuals[0] == 0.0 and math.isfinite(residuals[1])


_WIDE = st.floats(-0.9, 0.9, allow_nan=False)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(_WIDE, _WIDE, _WIDE, _WIDE), min_size=1, max_size=6),
    st.lists(st.tuples(_WIDE, _WIDE, _WIDE), min_size=1, max_size=6),
)
def test_the_stage_matches_the_row_oracles_on_drawn_starts(rows4, rows3):
    # wide starts: some begin outside the box, some leave it mid-step, and
    # on the mirror model some meet a pole
    _assert_as_the_oracles(_setup()[4], rows4, 100)
    _assert_as_the_oracles(_mirror_model(), rows3, 100)
