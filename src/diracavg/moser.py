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

from . import linalg
from .config import PI
from .rings import Poly, RationalFn
from .sampling import Box
from .tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    exterior_derivative,
    flat_matrix,
    sharp_matrix,
)


class GuardError(ArithmeticError):
    """The interpolation matrix came too close to singular, or overflowed."""


class BoxExit(RuntimeError):
    """A trajectory left the configured box."""


class _NumpyOnFirstUse:
    # numpy's stand-in until first use, so that only moser-verify imports it
    def __getattr__(self, name: str):
        global np
        import numpy as np

        return getattr(np, name)


np = _NumpyOnFirstUse()

FloatPoint = Mapping[str, float]
# why a trajectory stopped: (stage, rank, error), where the rank orders the
# causes met within one stage: a box exit (0), a vanishing denominator in
# Pi# (1), dTheta# (2) or Theta (3), then the guard (4)
Abort = Tuple[int, int, Exception]
# rows of a batch where a field could not be evaluated: row -> (rank, error)
Failures = Dict[int, Tuple[int, Exception]]


def _point_vec(chart: Chart, point: FloatPoint) -> np.ndarray:
    return np.array([float(point[name]) for name in chart.coords])


class _Polys:
    """Stacked evaluation of polynomials over one list of monomials.

    ``names`` are the chart coordinates and then ``@pi``, which is always
    ``math.pi``.  A monomial is the product of its factors in name order,
    each read from a table of the powers that some monomial uses, times its
    coefficient; a polynomial adds its terms in sorted exponent order, so
    its floats depend on its value and not on how it was built.  A product
    over every name would give the same floats, since a factor left out is
    an exact 1.0, and a short sum is padded with +0.0 terms as a stacked
    sum over the longest is.  Powers of ``@pi``, and the monomials free of the
    coordinates, are the same at every point and worked out once per batch
    size.  Arrays run (row, point), so that each numpy call spans the batch.
    """

    def __init__(self, names: Tuple[str, ...], polys: Sequence[Poly]):
        n = len(names) - 1
        exps: List[Tuple[int, ...]] = []
        coeffs: List[float] = []
        terms: List[List[int]] = []
        for poly in polys:
            terms.append([])
            for e, c in sorted(poly.aligned_to(names).terms.items()):
                terms[-1].append(len(exps))
                exps.append(e)
                coeffs.append(float(c))
        # a zero monomial pads every term list to the longest
        exps.append((0,) * len(names))
        coeffs.append(0.0)
        # table rows: the coordinates read to the power 1, copied per call,
        # the higher coordinate powers, raised per call, then the @pi powers
        # and the 1.0 that pads the factor lists
        read = sorted(
            {(v, e[v]) for e in exps for v in range(n + 1) if e[v]},
            key=lambda vk: (vk[0] == n, vk[1] > 1, vk),
        )
        raised = [vk for vk in read if vk[0] < n]
        fixed = [k for v, k in read if v == n]
        row = {vk: r for r, vk in enumerate(read)}
        self._var = np.array([v for v, _k in raised], dtype=np.int64)
        self._copied = sum(k == 1 for _v, k in raised)
        self._exp = np.array([k for _v, k in raised[self._copied :]], dtype=float).reshape(-1, 1)
        self._fixed_rows = np.append(np.full(len(fixed), math.pi) ** np.array(fixed, float), 1.0)
        factors = [[row[(v, e[v])] for v in range(n + 1) if e[v]] for e in exps]
        # monomials that read a coordinate come first; the rest are constant
        varies = [m for m, e in enumerate(exps) if any(e[:n])]
        const = [m for m, e in enumerate(exps) if not any(e[:n])]
        pos = {m: r for r, m in enumerate(varies + const)}
        one = len(read)
        self._factors = _padded([factors[m] for m in varies], one)
        self._coeffs = np.array([coeffs[m] for m in varies]).reshape(-1, 1)
        const_factors = _padded([factors[m] for m in const], one)
        table = self._fixed_rows[:, np.newaxis]
        self._const = np.multiply.reduce(
            table.take(const_factors - len(raised), axis=0), axis=0
        ) * np.array([coeffs[m] for m in const]).reshape(-1, 1)
        self._terms = _padded([[pos[m] for m in t] for t in terms], pos[len(exps) - 1])
        self._size = -1

    def _resize(self, b: int) -> None:
        # the rows that do not depend on the point are written here, once
        self._size = b
        w, mv = len(self._var), len(self._coeffs)
        self._table = np.empty((w + len(self._fixed_rows), b))
        self._table[w:] = self._fixed_rows[:, np.newaxis]
        # numpy raises to a power with its vector routine only where no
        # operand is broadcast, and its scalar fallback rounds differently
        self._powers = np.repeat(self._exp, b, axis=1)
        self._monos = np.empty((mv + len(self._const), b))
        self._monos[mv:] = self._const

    def __call__(self, vecs: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Every polynomial at a batch of points: (B, n) -> (len(polys), B).

        Columns after the n coordinates, such as a slot for ``@pi``, are
        not read.
        """
        if vecs.shape[0] != self._size:
            self._resize(vecs.shape[0])
        w, mv, c = len(self._var), len(self._coeffs), self._copied
        # numpy's x ** 1.0 is exactly x; a higher power keeps numpy's
        # rounding, which x * x would not
        coords = vecs.T.take(self._var, axis=0)
        self._table[:c] = coords[:c]
        np.power(coords[c:], self._powers, out=self._table[c:w])
        # factors multiply in name order, then the coefficient
        head = self._monos[:mv]
        np.multiply.reduce(self._table.take(self._factors, axis=0), axis=0, out=head)
        head *= self._coeffs
        # terms add in order, so a point's sums do not depend on the batch
        return np.add.reduce(self._monos.take(self._terms, axis=0), axis=0, out=out)


class _CompiledEntries:
    """Stacked float evaluation for a family of rational components.

    Only entries with a nonzero numerator are evaluated, and of those only
    the ones that ``mirrors`` does not name: it maps an entry to an earlier
    one whose exact negation it is, and the entry reads as that one's value
    negated.  A denominator free of the chart coordinates is evaluated
    once, into a float divisor; the others are evaluated per point and
    masked where they vanish.
    """

    def __init__(
        self,
        chart: Chart,
        entries: Sequence[Tuple[object, RationalFn]],
        mirrors: Optional[Mapping[int, int]] = None,
    ):
        names = chart.coords + (PI,)
        mirrors = dict(mirrors or {})
        self.keys: List[object] = [key for key, _fn in entries]
        fns = [fn.simplified() for _key, fn in entries]
        for col, src in mirrors.items():
            if src >= col or src in mirrors or not fns[col] == -fns[src]:
                raise ValueError(
                    f"entry {self.keys[col]!r} does not mirror {self.keys[src]!r}"
                )

        def varies(fn: RationalFn) -> bool:
            return any(fn.den.diff(c).terms for c in chart.coords)

        live = [col for col, fn in enumerate(fns) if not fn.is_zero() and col not in mirrors]
        # rows: the entries whose denominator varies come first
        rows = [col for col in live if varies(fns[col])]
        self._n_varying = len(rows)
        rows += [col for col in live if not varies(fns[col])]
        self._n_rows = len(rows)
        self._polys = _Polys(
            names,
            [fns[col].num for col in rows] + [fns[col].den for col in rows[: self._n_varying]],
        )
        # a denominator free of the coordinates takes the same value, with
        # the same rounding, at every point
        fixed = rows[self._n_varying :]
        self._divisors = _Polys(names, [fns[col].den for col in fixed])(
            np.zeros((1, chart.dim))
        )[:, 0]
        # each entry gathers a row of values, the zero row after them, or a
        # row of the negated values after that
        pos = {col: r for r, col in enumerate(rows)}
        self._source = np.full(len(fns), len(rows), dtype=np.int64)
        for col in live:
            self._source[col] = pos[col]
        for col, src in mirrors.items():
            if src in pos:
                self._source[col] = len(rows) + 1 + pos[src]
        self._size = -1

    def _resize(self, b: int) -> None:
        self._size = b
        r, v = self._n_rows, self._n_varying
        # numerators, varying denominators, fixed divisors
        self._sums = np.empty((2 * r, b))
        self._sums[r + v :] = self._divisors[:, np.newaxis]
        # the values, a zero row for the entries that vanish, the negations
        self._values = np.zeros((2 * r + 1, b))
        self._clear = np.zeros((b, len(self.keys)), dtype=bool)
        self._clear.flags.writeable = False

    def eval_stack(self, vecs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All entries at a batch of points: (B, n) -> (B, len(keys)).

        Also returns the (B, len(keys)) mask of vanished denominators; such
        an entry reads as its numerator.
        """
        b = vecs.shape[0]
        if b != self._size:
            self._resize(b)
        r, v = self._n_rows, self._n_varying
        sums = self._sums
        self._polys(vecs, out=sums[: r + v])
        bad = None
        if v:
            vanished = np.abs(sums[r : r + v]) < 1e-300
            if vanished.any():
                sums[r : r + v][vanished] = 1.0
                bad = np.zeros((2 * r + 1, b), dtype=bool)
                bad[:v] = bad[r + 1 : r + 1 + v] = vanished
        values = self._values
        np.divide(sums[:r], sums[r:], out=values[:r])
        np.negative(values[:r], out=values[r + 1 :])
        # points as rows, as the matrix routines read them
        vals = np.ascontiguousarray(values.take(self._source, axis=0).T)
        if bad is None:
            return vals, self._clear
        return vals, np.ascontiguousarray(bad.take(self._source, axis=0).T)

    @property
    def can_vanish(self) -> bool:
        """Whether some denominator varies, so that it can vanish at a point."""
        return bool(self._n_varying)

    def vanished(self, col: int) -> ZeroDivisionError:
        return ZeroDivisionError(f"denominator vanished for component {self.keys[col]!r}")


def _nilpotency_index(edges: Sequence[Sequence[bool]]) -> Optional[int]:
    """1 + the longest path of the graph with an edge i -> j wherever
    edges[i][j], or None where it has a cycle (an edge i -> i is one): a
    matrix whose nonzero entries lie on the edges has this power zero."""
    left = set(range(len(edges)))
    rounds = 0
    while left:
        # a node with no edge into the nodes left lies on no cycle among
        # them, and the paths from it are shorter than this many rounds
        ends = {i for i in left if not any(edges[i][j] for j in left)}
        if not ends:
            return None
        left -= ends
        rounds += 1
    return rounds


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
    determinant magnitude falls below the threshold, or is not finite.
    Construction also reads the exact zero pattern of S = dTheta# Pi#:
    entry (i, j) can be nonzero only where some k has dTheta#[i][k] and
    Pi#[k][j] exactly nonzero.  Where that pattern has no cycle (a nonzero
    diagonal entry is one), S^K = 0 for K = 1 + its longest path, so
    det(Id + t S) is 1 at every point and t, and (Id + t S)^{-1} is the
    finite series sum_{k<K} (-t S)^k.  Z_t then needs no matrix solve, and
    with a guard below 1 no determinant; a model with a cycle is solved
    and checked at every evaluation.
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
        # both matrices are antisymmetric: below the diagonal, an entry is
        # its mirror image negated
        mirrors = {
            base + j * n + i: base + i * n + j
            for base in (0, n * n)
            for j in range(n)
            for i in range(j)
        }
        self._entries = _CompiledEntries(self.chart, self._exact, mirrors)
        # an exact zero entry is never compiled and reads as 0.0, so the
        # float product keeps the exact product's pattern too
        live_sb = [[not fn.is_zero() for fn in row] for row in sb]
        live_sp = [[not fn.is_zero() for fn in row] for row in sp]
        pattern = [
            [any(live_sb[i][k] and live_sp[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        self._nilpotency = _nilpotency_index(pattern)
        self._guard_can_trip = guard >= 1 or self._nilpotency is None
        self._jets = linalg.Jets([fn for _key, fn in self._exact], self.chart.coords)
        self._jet_cache: Dict[Tuple[Fraction, ...], tuple] = {}
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
        """Pi#, dTheta# and Theta at a batch of points (B, n).

        Rows where a denominator vanished are returned as failures.
        """
        b, n = vecs.shape[0], self._n
        nn = n * n
        vals, bad = self._entries.eval_stack(vecs)
        fails: Failures = {}
        if self._entries.can_vanish and bad.any():
            for row in np.flatnonzero(bad.any(axis=1)):
                # the first bad column lies in the first family that fails
                col = int(bad[row].argmax())
                fails[int(row)] = (1 + col // nn, self._entries.vanished(col))
        sp = vals[:, :nn].reshape(b, n, n)
        sb = vals[:, nn : 2 * nn].reshape(b, n, n)
        return sp, sb, vals[:, 2 * nn :], fails

    def _check_guard(self, ts: Sequence[float], m: np.ndarray, fails: Failures) -> None:
        """Fail each row of m, (len(ts), B, n, n), at the first t where its
        determinant is below the guard in magnitude or is not finite.
        Callers run it where numpy ignores overflow and invalid values."""
        det = np.abs(np.linalg.det(m))
        for k, row in zip(*np.nonzero(~(det < np.inf) | (det < self.guard))):
            why = "near singular" if det[k, row] < self.guard else "not finite"
            fails.setdefault(int(row), (4, GuardError(f"interpolation matrix {why} at t={ts[k]}")))

    def pi_matrices(self, vecs: np.ndarray) -> Tuple[np.ndarray, Dict[int, Exception]]:
        """Pi# at a batch of points: (B, n, n), and row -> error
        where a denominator of Pi# vanished."""
        sp, _sb, _th, fails = self._matrices(vecs)
        return sp, {row: exc for row, (rank, exc) in fails.items() if rank == 1}

    def interp_matrices(
        self, ts: Sequence[float], vecs: np.ndarray
    ) -> Tuple[np.ndarray, Dict[int, Exception]]:
        """Pi_t# = Pi# (Id + t dTheta# Pi#)^{-1} for each t at a batch of
        points: (len(ts), B, n, n).

        A row fails, row -> error, where a denominator vanished, or else
        where the matrix to invert trips the guard at some t (the first).
        """
        sp, sb, _th, fails = self._matrices(vecs)
        # where the guard can trip, a row that overflows here fails it
        quiet = {"over": "ignore", "invalid": "ignore"} if self._guard_can_trip else {}
        with np.errstate(**quiet):
            m = self._eye + np.asarray(ts, dtype=float)[:, None, None, None] * (sb @ sp)
            if self._guard_can_trip:
                self._check_guard(ts, m, fails)
        ok = np.ones(len(vecs), dtype=bool)
        ok[list(fails)] = False
        out = np.zeros(m.shape)
        out[:, ok] = sp[ok] @ np.linalg.inv(m[:, ok])
        return out, {row: exc for row, (_rank, exc) in fails.items()}

    def interp_matrix(self, t: float, point: FloatPoint) -> np.ndarray:
        """The float matrix of Pi_t# = Pi# (Id + t dTheta# Pi#)^{-1}."""
        mats, fails = self.interp_matrices([t], _point_vec(self.chart, point)[np.newaxis])
        if fails:
            raise fails[0]
        return mats[0, 0]

    # -- exact companions --------------------------------------------------

    def bracket_exact(
        self, t: Fraction, point: Mapping[str, Union[float, Fraction]]
    ) -> List[List[Fraction]]:
        """[[Z_t, Pi_t]] at one point, exactly, from first-order jets.

        Returns the matrix B[i][j] = [[Z_t, Pi_t]]^{ij}.  With M the inverse
        of A = Id + t dTheta# Pi#, the sharp matrix of Pi_t is Pi# M and
        Z_t = -Pi# M Theta; their first derivatives follow from those of
        Pi#, dTheta# and Theta by d(M) = -M d(A) M, and the bracket is
        (L_Z Pi)^{ij} = Z^k d_k Pi^{ij} - Pi^{kj} d_k Z^i - Pi^{ik} d_k Z^j.
        ``@pi`` is bound to Fraction(math.pi), the value the float side
        uses.  Raises ZeroDivisionError where a denominator vanishes and
        GuardError where A is singular.
        """
        t = Fraction(t)
        n = self._n
        sp_rows, sp, sb_rows, th, sb_sp, d_sp_rows, d_sb_rows, d_th = self._jets_at(point)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        aug = [row + e for row, e in zip(_add(eye, sb_sp, t), eye)]
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

    def _jets_at(self, point: Mapping[str, Union[float, Fraction]]) -> tuple:
        """Pi#, dTheta#, Theta and dTheta# Pi# at a point, then the
        derivatives of Pi#, dTheta# and Theta along each coordinate
        (cached).  Matrices that multiply from the left also come as rows."""
        key = tuple(Fraction(point[c]) for c in self.chart.coords)
        if key not in self._jet_cache:
            at = dict(zip(self.chart.coords, key))
            at[PI] = Fraction(math.pi)
            n, nn = self._n, self._n * self._n

            def families(flat: list) -> tuple:
                # the column order of self._exact
                sp = [flat[j * n : (j + 1) * n] for j in range(n)]
                sb = [flat[nn + j * n : nn + (j + 1) * n] for j in range(n)]
                return sp, sb, flat[2 * nn :]

            vals, grads = self._jets.at(at)
            sp, sb, th = families(vals)
            d_sp, d_sb, d_th = zip(*map(families, grads))
            sb_rows = _rows(sb)
            self._jet_cache[key] = (
                _rows(sp), sp, sb_rows, th, _mul(sb_rows, sp),
                [_rows(m) for m in d_sp], [_rows(m) for m in d_sb], d_th,
            )
        return self._jet_cache[key]


# exact algebra on the jets: a left factor comes as Rows, the nonzero
# entries of each row as (column, value) pairs, so zero entries cost nothing
Rows = List[List[Tuple[int, object]]]


def _rows(m) -> Rows:
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def _mul(a: Rows, b: Sequence[Sequence]) -> List[list]:
    out = [[0] * len(b[0]) for _ in a]
    for row, entries in zip(out, a):
        for k, x in entries:
            for j, y in enumerate(b[k]):
                if y:
                    row[j] += x * y
    return out


def _apply(a: Rows, v: Sequence) -> list:
    out = [0] * len(a)
    for i, entries in enumerate(a):
        for j, x in entries:
            if v[j]:
                out[i] += x * v[j]
    return out


def _add(a: Sequence[Sequence], b: Sequence[Sequence], c=1) -> List[list]:
    """a + c b."""
    return [[x + c * y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _combine(coeffs: Sequence, mats: Sequence[Rows], n: int) -> List[list]:
    """sum_k coeffs[k] mats[k]."""
    out = [[0] * n for _ in range(n)]
    for c, m in zip(coeffs, mats):
        if c:
            for row, entries in zip(out, m):
                for j, x in entries:
                    row[j] += c * x
    return out


def z_batch(
    ev: NumericEvaluator, t: float, points: Sequence[FloatPoint]
) -> Tuple[np.ndarray, Failures]:
    """Z_t at many points in one batch: (len(points), n).

    Rows where Z_t cannot be evaluated read zero and are returned as
    failures, row -> (rank, error).
    """
    vecs = np.array([_point_vec(ev.chart, p) for p in points])
    return _z_rows(ev, t, vecs.reshape(len(points), ev.chart.dim))


def _z_rows(ev: NumericEvaluator, t: float, vecs: np.ndarray) -> Tuple[np.ndarray, Failures]:
    """Z_t at a batch of points: (B, n) -> (B, n).

    Rows where Z_t cannot be evaluated read zero and are returned as
    failures: a vanishing denominator, or else the guard.
    """
    sp, sb, th, fails = ev._matrices(vecs)
    th = th[:, :, np.newaxis]
    # where the guard can trip, det and (on a model with a cycle) solve each
    # factor m.  numpy's det is the sign times exp of the summed log |u_ii|
    # of its own LU, and solve does not hand out its factors, so no
    # numpy-only merge of the two keeps the bits of either.
    if ev._guard_can_trip:
        # a row that overflows here fails the guard
        with np.errstate(over="ignore", invalid="ignore"):
            m = sb @ sp
            m *= t
            m += ev._eye
            ev._check_guard([t], m[np.newaxis], fails)
    ok = slice(None)
    if fails:
        ok = np.ones(len(vecs), dtype=bool)
        ok[list(fails)] = False
    sp, sb, th = sp[ok], sb[ok], th[ok]
    if ev._nilpotency is None:
        y = np.linalg.solve(m[ok], th)
    else:
        # (Id + t S)^{-1} Theta as the finite series in S = dTheta# Pi#
        y = th
        for _ in range(ev._nilpotency - 1):
            y = th - t * (sb @ (sp @ y))
    z = -(sp @ y)[:, :, 0]
    if not fails:
        return z, fails
    full = np.zeros((len(vecs), ev.chart.dim))
    full[ok] = z
    return full, fails


def homotopy_residuals(
    ev: NumericEvaluator,
    t: Union[float, Fraction],
    points: Sequence[FloatPoint],
    fd_step: float = 1e-5,
) -> Tuple[List[float], Dict[int, Exception]]:
    """Max-norm of [[Z_t, Pi_t]] + d(Pi_t)/dt at each point.

    The bracket is computed exactly at the point and then rounded to
    floats; the time derivative uses central differences with the given
    step, from Pi_t# at t +- step for every point in one batch.  A point
    where either side cannot be evaluated is returned as row -> error, the
    bracket's error first; its residual reads 0.
    """
    t_frac = Fraction(t)
    n = ev.chart.dim
    tf = float(t_frac)
    vecs = np.array([_point_vec(ev.chart, p) for p in points]).reshape(len(points), n)
    (plus, minus), float_fails = ev.interp_matrices([tf + fd_step, tf - fd_step], vecs)
    dpidt = (plus - minus) / (2.0 * fd_step)
    out: List[float] = []
    fails: Dict[int, Exception] = {}
    for row, point in enumerate(points):
        out.append(0.0)
        try:
            bracket = ev.bracket_exact(t_frac, point)
        except ArithmeticError as exc:
            fails[row] = exc
            continue
        if row in float_fails:
            fails[row] = float_fails[row]
            continue
        bmat = np.array([[float(v) for v in r] for r in bracket])
        # sharp-matrix slot (j, i) holds the (i, j) component
        resid = 0.0
        for i in range(n):
            for j in range(n):
                resid = max(resid, abs(bmat[i, j] + dpidt[row, j, i]))
        out[row] = resid
    return out, fails


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
    # while every row is live, the stages skip the per-row bookkeeping
    whole = b > 0
    # the bounds repeated for every row, so the box test is one flat loop
    lo, hi = np.tile(ev._box_lo, (b, 1)), np.tile(ev._box_hi, (b, 1))
    stage = 0

    def stop(rows: np.ndarray, rank_exc: Dict[int, Tuple[int, Exception]]) -> None:
        nonlocal whole
        for row, (rank, exc) in rank_exc.items():
            live[rows[row]] = False
            aborts[int(rows[row])] = (stage, rank, exc)
        whole = whole and not rank_exc

    def in_box(xx: np.ndarray) -> Optional[np.ndarray]:
        # stops the live rows outside the box; returns the live rows, or
        # None while that is every row
        inside = (xx >= lo) & (xx <= hi)
        if whole and inside.all():
            return None
        exits = np.flatnonzero(live & ~inside.all(axis=1))
        stop(exits, {k: (0, BoxExit("trajectory left the box")) for k in range(len(exits))})
        return np.flatnonzero(live)

    def z(tt: float, xx: np.ndarray) -> np.ndarray:
        nonlocal stage
        rows = in_box(xx)
        if rows is None:
            out, fails = _z_rows(ev, tt, xx)
            stop(all_rows, fails)
        else:
            out = np.zeros((b, n))
            out[rows], fails = _z_rows(ev, tt, xx[rows])
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
        center = _point_vec(ev.chart, p)
        group = np.repeat(center[np.newaxis, :], width, axis=0)
        for k in range(n):
            group[1 + 2 * k, k] += h
            group[2 + 2 * k, k] -= h
        rows.extend(group)
    rows.extend(_point_vec(ev.chart, p) for p in cfg.leaf_points)
    starts = np.array(rows).reshape(-1, n)
    aborts: Dict[int, Abort] = {}
    ends = flow_batch(ev, starts, cfg.steps, aborts)

    # the earliest stage stops a point, then the lowest rank
    stops: Dict[int, Exception] = {}
    for idx in range(len(cfg.points)):
        first = idx * width
        hit = [aborts[r][:2] + (r,) for r in range(first, first + width) if r in aborts]
        if hit:
            stops[idx] = aborts[min(hit)[2]][2]
    flowed = [idx for idx in range(len(cfg.points)) if idx not in stops]
    row_of = {idx: k for k, idx in enumerate(flowed)}
    centers = [idx * width for idx in flowed]
    (pi1s,), interp_fails = ev.interp_matrices([1.0], starts[centers])
    pi_imgs, pi_fails = ev.pi_matrices(ends[centers])
    for k, idx in enumerate(flowed):
        if k in interp_fails or k in pi_fails:
            stops[idx] = interp_fails.get(k, pi_fails.get(k))

    outcomes: List[PointOutcome] = []
    devs: List[float] = []
    notes: List[str] = []
    aborted = 0
    for idx, p in enumerate(cfg.points):
        if idx in stops:
            aborted += 1
            notes.append(f"aborted point {p!r}: {stops[idx]}")
            outcomes.append(PointOutcome(dict(p), None, None, aborted=True))
            continue
        first = idx * width
        k = row_of[idx]
        jac = np.empty((n, n))
        for c in range(n):
            jac[:, c] = (ends[first + 1 + 2 * c] - ends[first + 2 + 2 * c]) / (2.0 * h)
        dev = float(np.max(np.abs(jac @ pi1s[k] @ jac.T - pi_imgs[k])))
        devs.append(dev)
        outcomes.append(PointOutcome(dict(p), [float(v) for v in ends[first]], dev))
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
