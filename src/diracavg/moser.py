"""Floating-point verification of the interpolation flow between gauges.

The family Pi_t interpolates a bivector and its gauge image; the field
Z_t = -Pi_t#(Theta) generates a flow whose time-1 map intertwines the two.
This module compiles exact components to fast float evaluators (checked
against exact evaluation at probe points), computes Z_t, measures the
homotopy residual [[Z_t, Pi_t]] + d(Pi_t)/dt, and integrates the flow with
a fixed-step classical 4th-order scheme to verify the intertwining
identity through finite-difference Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import linalg
from .config import PI
from .rings import RationalFn
from .sampling import Box
from .tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    exterior_derivative,
    flat_matrix,
    schouten_bracket,
    sharp_matrix,
    vector_field,
)


class GuardError(ArithmeticError):
    """The interpolation matrix came too close to singular."""


class BoxExit(RuntimeError):
    """A trajectory left the configured box."""


FloatPoint = Mapping[str, float]
# why a trajectory stopped: (stage, rank, error), where the rank orders the
# causes met within one stage: a box exit (0), a vanishing denominator in
# Pi# (1), dTheta# (2) or Theta (3), then the guard (4)
Abort = Tuple[int, int, Exception]
# rows of a batch where a field could not be evaluated: row -> (rank, error)
Failures = Dict[int, Tuple[int, Exception]]


def _point_vec(chart: Chart, point: FloatPoint) -> np.ndarray:
    # last slot carries the value of the formal constant
    vec = np.empty(chart.dim + 1)
    for k, name in enumerate(chart.coords):
        vec[k] = float(point[name])
    vec[chart.dim] = math.pi
    return vec


class _CompiledEntries:
    """Stacked monomial evaluation for a family of rational components.

    All numerators and denominators share one list of monomials; each is
    the product of its factors, gathered from per-variable power tables.
    """

    def __init__(self, chart: Chart, entries: Sequence[Tuple[object, RationalFn]]):
        names = chart.coords + (PI,)
        self.keys: List[object] = []
        exps: List[Tuple[int, ...]] = []
        coeffs: List[float] = []
        nums: List[List[int]] = []
        dens: List[List[int]] = []
        for key, fn in entries:
            fn = fn.simplified()
            for poly, terms in ((fn.num, nums), (fn.den, dens)):
                terms.append([])
                for e, c in poly.aligned_to(names).terms.items():
                    terms[-1].append(len(exps))
                    exps.append(e)
                    coeffs.append(float(c))
            self.keys.append(key)
        # a zero monomial pads every term list to the longest
        exps.append((0,) * len(names))
        coeffs.append(0.0)
        self.coeffs = np.array(coeffs)
        self._terms = _padded(nums + dens, len(exps) - 1)
        exp_mat = np.array(exps, dtype=np.int64)
        self._used = np.flatnonzero(exp_mat.any(axis=0))
        self._powers = np.arange(int(exp_mat.max(initial=0)) + 1)
        d = len(self._powers)
        self._width = len(self._used) * d
        # table column u * d + k holds used variable u to the power k, and
        # column 0 (any variable to the power 0) pads the factor lists
        self._factors = _padded(
            [[u * d + e[v] for u, v in enumerate(self._used) if e[v]] for e in exps], 0
        )

    def eval_stack(self, vecs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All entries at a batch of points: (B, k) -> (B, len(keys)).

        Also returns the (B, len(keys)) mask of vanished denominators; such
        an entry reads as its numerator.
        """
        b = vecs.shape[0]
        table = (vecs[:, self._used, np.newaxis] ** self._powers).reshape(b, self._width)
        # factors multiply in coordinate order, as a product over every
        # coordinate would: the ones left out are exact 1.0 factors
        vals = np.multiply.reduce(table.take(self._factors, axis=1), axis=1) * self.coeffs
        # terms add in order, so a row's sums do not depend on the batch
        sums = np.add.reduce(vals.take(self._terms, axis=1), axis=1)
        e = len(self.keys)
        num, den = sums[:, :e], sums[:, e:]
        bad = np.abs(den) < 1e-300
        if bad.any():
            den = np.where(bad, 1.0, den)
        return num / den, bad

    def vanished(self, col: int) -> ZeroDivisionError:
        return ZeroDivisionError(f"denominator vanished for component {self.keys[col]!r}")


def _padded(lists: Sequence[Sequence[int]], pad: int) -> np.ndarray:
    """Index lists as the columns of an array, padded to the longest."""
    out = np.full((max(map(len, lists), default=0), len(lists)), pad, dtype=np.int64)
    for col, items in enumerate(lists):
        out[: len(items), col] = items
    return out


class NumericEvaluator:
    """Float evaluators for a bivector, a 1-form Theta, and d(Theta).

    Construction cross-checks the compiled route against exact evaluation at
    the supplied rational probe points (relative 1e-12); a disagreement is a
    compiler bug and raises.  ``guard`` rejects interpolation matrices whose
    determinant magnitude falls below the threshold.
    """

    def __init__(
        self,
        pi: MultivectorField,
        theta: DifferentialForm,
        box: Box,
        probes: Optional[Sequence[Mapping[str, Fraction]]] = None,
        guard: float = 1e-8,
    ):
        if pi.degree != 2 or theta.degree != 1 or pi.chart != theta.chart:
            raise ValueError("expects a bivector and a 1-form on one chart")
        self.chart = pi.chart
        self.pi_exact = pi.simplified()
        self.theta_exact = theta.simplified()
        self.dtheta_exact = exterior_derivative(self.theta_exact).simplified()
        self.box = dict(box)
        self.guard = guard
        n = self.chart.dim
        self._n = n
        self._box_lo = np.array([float(self.box[c][0]) for c in self.chart.coords])
        self._box_hi = np.array([float(self.box[c][1]) for c in self.chart.coords])
        self._eye = np.eye(n)

        sp = sharp_matrix(self.pi_exact)
        sb = flat_matrix(self.dtheta_exact)
        # columns: Pi# and dTheta# row-major, then Theta
        square = [(j, i) for j in range(n) for i in range(n)]
        self._exact = (
            [(k, sp[k[0]][k[1]]) for k in square]
            + [(k, sb[k[0]][k[1]]) for k in square]
            + [(i, self.theta_exact.comps.get((i,), RationalFn.zero())) for i in range(n)]
        )
        self._entries = _CompiledEntries(self.chart, self._exact)
        self._sp_sym = sp
        self._sb_sym = sb
        self._pi_t_cache: Dict[Fraction, MultivectorField] = {}
        self._z_cache: Dict[Fraction, MultivectorField] = {}
        self._bracket_cache: Dict[Fraction, MultivectorField] = {}
        if probes:
            self._verify_probes(probes)

    # -- compiled evaluation ----------------------------------------------

    def _verify_probes(self, probes: Sequence[Mapping[str, Fraction]]) -> None:
        fps = [{k: float(v) for k, v in p.items()} for p in probes]
        vals, bad = self._entries.eval_stack(np.stack([_point_vec(self.chart, fp) for fp in fps]))
        for p, fp, row, row_bad in zip(probes, fps, vals, bad):
            if row_bad.any():
                raise self._entries.vanished(int(row_bad.argmax()))
            for got, (_key, sym) in zip(row, self._exact):
                want = sym.eval_float(fp)
                if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                    raise AssertionError(
                        f"compiled evaluator disagrees at {p!r}: {got} vs {want}"
                    )

    def _matrices(
        self, vecs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Failures]:
        """Pi#, dTheta# and Theta at a batch of padded points (B, n+1).

        Rows where a denominator vanished are returned as failures.
        """
        b, n = vecs.shape[0], self._n
        nn = n * n
        vals, bad = self._entries.eval_stack(vecs)
        fails: Failures = {}
        for row in np.flatnonzero(bad.any(axis=1)):
            # the first bad column lies in the first family that fails
            col = int(bad[row].argmax())
            fails[int(row)] = (1 + col // nn, self._entries.vanished(col))
        sp = vals[:, :nn].reshape(b, n, n)
        sb = vals[:, nn : 2 * nn].reshape(b, n, n)
        return sp, sb, vals[:, 2 * nn :], fails

    def pi_matrix(self, point: FloatPoint) -> np.ndarray:
        nn = self._n * self._n
        vals, bad = self._entries.eval_stack(_point_vec(self.chart, point)[np.newaxis])
        if bad[0, :nn].any():
            raise self._entries.vanished(int(bad[0].argmax()))
        return vals[0, :nn].reshape(self._n, self._n)

    def interp_matrix(self, t: float, point: FloatPoint) -> np.ndarray:
        """The float matrix of Pi_t# = Pi# (Id + t dTheta# Pi#)^{-1}."""
        sp, sb, _th, fails = self._matrices(_point_vec(self.chart, point)[np.newaxis])
        if fails:
            raise fails[0][1]
        m = np.eye(self._n) + t * (sb[0] @ sp[0])
        if abs(np.linalg.det(m)) < self.guard:
            raise GuardError(f"interpolation matrix near singular at t={t}")
        return sp[0] @ np.linalg.inv(m)

    # -- exact companions --------------------------------------------------

    def pi_t_exact(self, t: Fraction) -> MultivectorField:
        """The interpolated bivector at rational t, by exact inversion."""
        t = Fraction(t)
        if t not in self._pi_t_cache:
            n = self._n
            tm = [
                [(self._sb_sym[j][k] * RationalFn.const(t)) for k in range(n)]
                for j in range(n)
            ]
            m = linalg.mat_add(linalg.identity(n), linalg.mat_mul(tm, self._sp_sym))
            new_sharp = linalg.mat_mul(self._sp_sym, linalg.inverse(m))
            comps: Dict[Tuple[int, int], RationalFn] = {}
            for i in range(n):
                for j in range(i + 1, n):
                    val = new_sharp[j][i].simplified()
                    if not val.is_zero():
                        comps[(i, j)] = val
            self._pi_t_cache[t] = MultivectorField(self.chart, 2, comps)
        return self._pi_t_cache[t]

    def z_exact(self, t: Fraction) -> MultivectorField:
        """The field -Pi_t#(Theta) at rational t, as an exact vector field."""
        t = Fraction(t)
        if t not in self._z_cache:
            pit = self.pi_t_exact(t)
            sharp = sharp_matrix(pit)
            comps: Dict[int, RationalFn] = {}
            for j in range(self._n):
                acc = RationalFn.zero()
                for i in range(self._n):
                    th = self.theta_exact.comps.get((i,), RationalFn.zero())
                    if not th.is_zero() and not sharp[j][i].is_zero():
                        acc = acc + sharp[j][i] * th
                acc = (-acc).simplified()
                if not acc.is_zero():
                    comps[j] = acc
            self._z_cache[t] = vector_field(self.chart, comps)
        return self._z_cache[t]

    def bracket_exact(self, t: Fraction) -> MultivectorField:
        """[[Z_t, Pi_t]] at rational t (cached; point-independent)."""
        t = Fraction(t)
        if t not in self._bracket_cache:
            self._bracket_cache[t] = schouten_bracket(
                self.z_exact(t), self.pi_t_exact(t)
            ).simplified()
        return self._bracket_cache[t]


def z_field(ev: NumericEvaluator, t: float, point: FloatPoint) -> np.ndarray:
    """Z_t at a point: -Pi#(Id + t dTheta# Pi#)^{-1} Theta, in floats."""
    z, fails = _z_rows(ev, t, _point_vec(ev.chart, point)[np.newaxis])
    if fails:
        raise fails[0][1]
    return z[0]


def _z_rows(ev: NumericEvaluator, t: float, vecs: np.ndarray) -> Tuple[np.ndarray, Failures]:
    """Z_t at a batch of padded points: (B, n+1) -> (B, n).

    Rows where Z_t cannot be evaluated read zero and are returned as
    failures: a vanishing denominator, or else the guard.
    """
    sp, sb, th, fails = ev._matrices(vecs)
    m = ev._eye[np.newaxis, :, :] + t * (sb @ sp)
    for row in np.flatnonzero(np.abs(np.linalg.det(m)) < ev.guard):
        fails.setdefault(
            int(row), (4, GuardError(f"interpolation matrix near singular at t={t}"))
        )
    ok = np.ones(len(vecs), dtype=bool)
    ok[list(fails)] = False
    z = np.zeros((len(vecs), ev.chart.dim))
    sol = np.linalg.solve(m[ok], th[ok, :, np.newaxis])
    z[ok] = -(sp[ok] @ sol)[:, :, 0]
    return z, fails


def homotopy_residual(
    ev: NumericEvaluator,
    t: Union[float, Fraction],
    point: FloatPoint,
    fd_step: float = 1e-5,
) -> float:
    """Max-norm of [[Z_t, Pi_t]] + d(Pi_t)/dt at the point.

    The bracket is computed exactly and evaluated in floats; the time
    derivative uses central differences with the given step.
    """
    t_frac = Fraction(t)
    bracket = ev.bracket_exact(t_frac)
    n = ev.chart.dim
    # substitute the point exactly; symbolic components can be of high
    # degree and a direct float evaluation cancels catastrophically
    fq = {k: Fraction(v) for k, v in point.items()}
    bmat = np.zeros((n, n))
    for (i, j), val in bracket.comps.items():
        v = val.eval_frac(fq).eval_float({})
        bmat[i, j] = v
        bmat[j, i] = -v
    tf = float(t_frac)
    plus = ev.interp_matrix(tf + fd_step, point)
    minus = ev.interp_matrix(tf - fd_step, point)
    dpidt = (plus - minus) / (2.0 * fd_step)
    # sharp-matrix slot (j, i) holds the (i, j) component
    resid = 0.0
    for i in range(n):
        for j in range(n):
            resid = max(resid, abs(bmat[i, j] + dpidt[j, i]))
    return resid


@dataclass
class FlowConfig:
    """Settings for the time-1 verification run."""

    points: List[Dict[str, float]]
    steps: int = 1000
    tolerance: float = 1e-6
    jacobian_step: float = 1e-5
    leaf_points: List[Dict[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.steps < 100:
            raise ValueError("flow verification needs at least 100 steps")


def flow_batch(
    ev: NumericEvaluator, starts: np.ndarray, steps: int, aborts: Dict[int, Abort]
) -> np.ndarray:
    """Integrate dx/dt = Z_t(x) from t = 1 back to t = 0 for a batch.

    ``starts`` is (B, n); all trajectories share the time grid, so each
    stage is one vectorized field evaluation.  Classical fixed-step
    4th-order scheme.  A row that leaves the box, or where Z_t cannot be
    evaluated, stays frozen from then on; ``aborts`` receives it as
    row -> (stage, rank, error).
    """
    n = ev.chart.dim
    x = np.array(starts, dtype=float)
    b = x.shape[0]
    h = -1.0 / steps
    t = 1.0
    live = np.ones(b, dtype=bool)
    mid = np.empty((b, n + 1))
    mid[:, n] = math.pi
    stage = 0

    def in_box(xx: np.ndarray) -> np.ndarray:
        # pads xx into mid, stops the live rows outside the box, returns the rest
        mid[:, :n] = xx
        rows = np.flatnonzero(live)
        inside = np.all((xx[rows] >= ev._box_lo) & (xx[rows] <= ev._box_hi), axis=1)
        for row in rows[~inside]:
            live[row] = False
            aborts[int(row)] = (stage, 0, BoxExit("trajectory left the box"))
        return rows[inside]

    def z(tt: float, xx: np.ndarray) -> np.ndarray:
        nonlocal stage
        rows = in_box(xx)
        out = np.zeros((b, n))
        out[rows], fails = _z_rows(ev, tt, mid[rows])
        for row, (rank, exc) in fails.items():
            live[rows[row]] = False
            aborts[int(rows[row])] = (stage, rank, exc)
        stage += 1
        return out

    for _ in range(steps):
        if not live.any():
            break
        k1 = z(t, x)
        k2 = z(t + h / 2.0, x + (h / 2.0) * k1)
        k3 = z(t + h / 2.0, x + (h / 2.0) * k2)
        k4 = z(t + h, x + h * k3)
        x = np.where(
            live[:, np.newaxis], x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), x
        )
        t += h
    stage = 4 * steps
    in_box(x)
    return x


def flow_point(ev: NumericEvaluator, point: FloatPoint, steps: int) -> np.ndarray:
    """Integrate one point from t = 1 back to t = 0.

    Raises BoxExit, ZeroDivisionError or GuardError if it stops.
    """
    vec = _point_vec(ev.chart, point)
    aborts: Dict[int, Abort] = {}
    end = flow_batch(ev, vec[np.newaxis, : ev.chart.dim], steps, aborts)
    if aborts:
        raise aborts[0][2]
    return end[0]


@dataclass
class PointOutcome:
    point: Dict[str, float]
    image: Optional[List[float]]
    deviation: Optional[float]
    aborted: bool = False


@dataclass
class FlowReport:
    """Aggregated outcome of flow_and_verify."""

    outcomes: List[PointOutcome]
    max_deviation: float
    mean_deviation: float
    leaf_max_error: Optional[float]
    aborted: int
    ok: bool
    notes: List[str] = field(default_factory=list)


def flow_and_verify(ev: NumericEvaluator, cfg: FlowConfig) -> FlowReport:
    """Verify that the time-1 map carries the gauged bivector back.

    For each point p the map phi (reverse-time flow) and its
    finite-difference Jacobian J are computed; the componentwise deviation
    | J Pi_1(p) J^T - Pi(phi(p)) | must stay within cfg.tolerance.  Leaf
    points must be fixed by phi to the same tolerance.  Every trajectory
    runs in one batch: each point with its 2n central-difference offsets,
    then the leaf points.  A point aborts if any of its 2n + 1 rows does;
    leaf points count one by one.  More than 10% aborted fails the run.
    """
    n = ev.chart.dim
    h = cfg.jacobian_step
    width = 1 + 2 * n
    rows: List[np.ndarray] = []
    for p in cfg.points:
        center = _point_vec(ev.chart, p)[:n]
        group = np.repeat(center[np.newaxis, :], width, axis=0)
        for k in range(n):
            group[1 + 2 * k, k] += h
            group[2 + 2 * k, k] -= h
        rows.extend(group)
    rows.extend(_point_vec(ev.chart, p)[:n] for p in cfg.leaf_points)
    starts = np.array(rows).reshape(-1, n)
    aborts: Dict[int, Abort] = {}
    ends = flow_batch(ev, starts, cfg.steps, aborts)

    outcomes: List[PointOutcome] = []
    devs: List[float] = []
    notes: List[str] = []
    aborted = 0
    for idx, p in enumerate(cfg.points):
        first = idx * width
        try:
            # the earliest stage stops the point, then the lowest rank
            hit = [aborts[r][:2] + (r,) for r in range(first, first + width) if r in aborts]
            if hit:
                raise aborts[min(hit)[2]][2]
            image = ends[first]
            jac = np.empty((n, n))
            for k in range(n):
                jac[:, k] = (ends[first + 1 + 2 * k] - ends[first + 2 + 2 * k]) / (2.0 * h)
            pi1 = ev.interp_matrix(1.0, p)
            image_pt = {name: image[k] for k, name in enumerate(ev.chart.coords)}
            pi_img = ev.pi_matrix(image_pt)
            dev = float(np.max(np.abs(jac @ pi1 @ jac.T - pi_img)))
            devs.append(dev)
            outcomes.append(PointOutcome(dict(p), [float(v) for v in image], dev))
        except (BoxExit, GuardError, ZeroDivisionError) as exc:
            aborted += 1
            notes.append(f"aborted point {p!r}: {exc}")
            outcomes.append(PointOutcome(dict(p), None, None, aborted=True))
    leaf_max: Optional[float] = None
    if cfg.leaf_points:
        leaf_max = 0.0
        for row, p in enumerate(cfg.leaf_points, len(cfg.points) * width):
            if row in aborts:
                aborted += 1
                notes.append(f"aborted leaf point {p!r}: {aborts[row][2]}")
            else:
                leaf_max = max(leaf_max, float(np.max(np.abs(ends[row] - starts[row]))))
    total = len(cfg.points) + len(cfg.leaf_points)
    ok = True
    if total and aborted > total / 10.0:
        ok = False
        notes.append(f"{aborted}/{total} trajectories aborted (over 10%)")
    if devs and max(devs) > cfg.tolerance:
        ok = False
    if leaf_max is not None and leaf_max > cfg.tolerance:
        ok = False
    return FlowReport(
        outcomes=outcomes,
        max_deviation=max(devs) if devs else 0.0,
        mean_deviation=(sum(devs) / len(devs)) if devs else 0.0,
        leaf_max_error=leaf_max,
        aborted=aborted,
        ok=ok,
        notes=notes,
    )
