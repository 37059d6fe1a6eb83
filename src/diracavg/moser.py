"""Floating-point verification of the interpolation flow between gauges.

The family Pi_t interpolates a bivector and its gauge image; the field
Z_t = -Pi_t#(Theta) generates a flow whose time-1 map intertwines the two.
This module derives Z_t and [[Z_t, Pi_t]] exactly once per request,
compiles exact components to fast float evaluators (checked against exact
evaluation at probe points), measures the homotopy residual
[[Z_t, Pi_t]] + d(Pi_t)/dt, and integrates the flow with a fixed-step
classical 4th-order scheme to verify the intertwining identity through
finite-difference Jacobians.  D(t) = det(Id + t dTheta# Pi#), Z_t's
numerator N(t) and the exact Pi_t# come from one Faddeev-LeVerrier
recursion.  One stage routine, on points held as columns, gives Z_t to
the flow and to z_batch, and guards the float Pi_t# on the compiled D(t).
The checks of moser-verify are decided here: PD by ``flow_and_verify``,
ZS by ``leaf_check`` and HR by ``homotopy_check``, each by the sweep rule
of ``sampling.verdict``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from . import linalg
from .config import PI
from .reports import CheckResult, failed
from .rings import Poly, RationalFn
from .sampling import Box, PointwiseRun, sample_box, verdict
from .tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    exterior_derivative,
    flat_matrix,
    lie_derivative_multivector,
    sharp_matrix,
    vector_field,
)

if TYPE_CHECKING:
    from .coupling import Foliation

# PD's deviation and HR's residual may reach FLOW_TOL; Z_1 on the fixed
# leaf, LEAF_TOL
FLOW_TOL = 1e-6
LEAF_TOL = 1e-12


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

# the path parameter of Pi_t as a variable of the exact bracket; a model's
# coordinates cannot start with "@"
T = "@t"
_T = RationalFn.from_poly(Poly((T,), {(1,): 1}))
_ONE = Poly.const(1)

FloatPoint = Mapping[str, float]
# why a trajectory stopped: (stage, rank, error), where the rank orders the
# causes met within one stage: a box exit (0), a vanishing denominator in
# Pi# (1), dTheta# (2) or Theta (3), or in a coefficient of N(t) alone where
# D(t) is 1 (3), then the guard (4)
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

    def __call__(self, cols: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Every polynomial at a batch of points as columns: (n, B) -> (len(polys), B).

        Rows after the n coordinates, such as a slot for ``@pi``, are not
        read.
        """
        if cols.shape[1] != self._size:
            self._resize(cols.shape[1])
        w, mv, c = len(self._var), len(self._coeffs), self._copied
        # numpy's x ** 1.0 is exactly x; a higher power keeps numpy's
        # rounding, which x * x would not
        coords = cols.take(self._var, axis=0)
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
    once, into a float divisor; the others are evaluated per point, each
    distinct one once, and masked where they vanish.
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
        fns = [fn for _key, fn in entries]
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
        dens: Dict[Poly, int] = {}
        self._den_of = np.array(
            [dens.setdefault(fns[col].den, len(dens)) for col in rows[: self._n_varying]],
            dtype=np.int64,
        )
        self._polys = _Polys(names, [fns[col].num for col in rows] + list(dens))
        self._n_polys = len(rows) + len(dens)
        # a denominator free of the coordinates takes the same value, with
        # the same rounding, at every point
        fixed = rows[self._n_varying :]
        self._divisors = _Polys(names, [fns[col].den for col in fixed])(
            np.zeros((chart.dim, 1))
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
        # numerators, then each varying denominator once
        self._sums = np.empty((self._n_polys, b))
        self._den_sums = self._sums[r:]
        self._mags = np.empty(self._den_sums.shape)
        # where each varying denominator vanished, then a row for the
        # caller's own test
        self._flags = np.empty((self._n_polys - r + 1, b), dtype=bool)
        # each row's denominator: varying, then fixed divisors
        self._dens = np.empty((r, b))
        self._dens[v:] = self._divisors[:, np.newaxis]
        # the values, a zero row for the entries that vanish, the negations
        self._values = np.zeros((2 * r + 1, b))

    def _quotients(self, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's value at a batch of points as columns, (n, B), in a
        reused buffer whose next row is zero; and reused flags, a row per
        varying denominator marking where it vanished (a row over it then
        reads as its numerator), then a row that is not written."""
        if cols.shape[1] != self._size:
            self._resize(cols.shape[1])
        r, v = self._n_rows, self._n_varying
        self._polys(cols, out=self._sums)
        if v:
            vanished = self._flags[:-1]
            np.less(np.abs(self._den_sums, out=self._mags), 1e-300, out=vanished)
            np.copyto(self._den_sums, 1.0, where=vanished)
            self._den_sums.take(self._den_of, axis=0, out=self._dens[:v])
        np.divide(self._sums[:r], self._dens, out=self._values[:r])
        return self._values, self._flags

    def _vanished_keys(self, flags: np.ndarray) -> np.ndarray:
        """(len(keys), B): where each entry's denominator vanished, from the
        flags of _quotients."""
        r, v = self._n_rows, self._n_varying
        bad = np.zeros((2 * r + 1, flags.shape[1]), dtype=bool)
        bad[:v] = bad[r + 1 : r + 1 + v] = flags[:-1].take(self._den_of, axis=0)
        return bad.take(self._source, axis=0)

    def eval_stack(self, vecs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All entries at a batch of points: (B, n) -> (B, len(keys)).

        Also returns the (B, len(keys)) mask of vanished denominators; such
        an entry reads as its numerator.
        """
        values, flags = self._quotients(vecs.T)
        r = self._n_rows
        np.negative(values[:r], out=values[r + 1 :])
        # points as rows, as the matrix routines read them
        vals = values.take(self._source, axis=0).T
        return np.ascontiguousarray(vals), np.ascontiguousarray(self._vanished_keys(flags).T)

    def vanished(self, col: int) -> ZeroDivisionError:
        return ZeroDivisionError(f"denominator vanished for component {self.keys[col]!r}")


def _faddeev_leverrier(s: linalg.Mat) -> Tuple[List[RationalFn], List[linalg.Mat]]:
    """det(Id + t s) = sum_k e_k t^k and adj(Id + t s) = sum_k t^k B_k, by
    the Faddeev-LeVerrier recursion: B_0 = Id, then e_k = tr(s B_{k-1}) / k
    and B_k = e_k Id - s B_{k-1}, until B_k = 0, as it is for k = n.
    Returns [e_0, ..., e_m], e_m the last nonzero one, and the B_k up to
    the last nonzero one."""
    n = len(s)
    e, adj = [RationalFn.const(1)], [linalg.identity(n)]
    for k in range(1, n + 1):
        s_b = linalg.mat_mul(s, adj[-1])
        e.append(sum((s_b[i][i] for i in range(n)), RationalFn.zero()).scale(Fraction(1, k)))
        if k == n:
            break
        b = [[(e[k] if i == j else RationalFn.zero()) - x for j, x in enumerate(row)]
             for i, row in enumerate(s_b)]
        if all(x.is_zero() for row in b for x in row):
            break
        adj.append(b)
    while e[-1].is_zero():
        e.pop()
    return e, adj


def _in_t(coeffs: Sequence[RationalFn]) -> RationalFn:
    """sum_k T^k coeffs[k], by Horner's rule."""
    out = RationalFn.zero()
    for c in reversed(coeffs):
        out = out * _T + c
    return out


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

    Z_t = -Pi# (Id + t S)^{-1} Theta, with S = dTheta# Pi#, is derived
    once, exactly, as N(t) / D(t).  One Faddeev-LeVerrier recursion gives
    D(t) = det(Id + t S) = sum_k e_k t^k and the adjugate
    D(t) (Id + t S)^{-1} = sum_k t^k B_k, so N(t) = sum_k t^k N_k with
    N_k = -Pi# B_k Theta.  The N_k and e_k are compiled and checked at the
    probes like the entries, so a stage needs no matrix algebra, and the
    guard reads the compiled D.  Where S is nilpotent, D = 1,
    B_k = (-S)^k, and a guard below 1 cannot trip.  N and D are derived on
    first use, unless the probes check them at construction.
    [[Z_t, Pi_t]] is derived once too, from the same B_k, as rational
    functions of the point and ``T``, when HR first asks for it.
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
        self.chart, self.pi_exact, self.theta_exact = pi.chart, pi, theta
        self.dtheta_exact = exterior_derivative(theta)
        self.box = dict(box)
        self.guard = guard
        n = self._n = self.chart.dim
        bounds = [[float(self.box[c][k]) for c in pi.chart.coords] for k in (0, 1)]
        self._box_lo, self._box_hi = np.array(bounds)
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
        self._sp = sp
        self._z_entries: Optional[_CompiledEntries] = None
        self._bracket: Optional[Tuple[RationalFn, MultivectorField]] = None
        if probes:
            self._compile()
            self._verify_probes(probes)

    def _compile(self) -> None:
        """Derive N(t) and D(t), once, and compile them after the
        denominators of Pi#, dTheta# and Theta that vary, whose vanishing
        stops a row."""
        if self._z_entries is not None:
            return
        sp = self._sp
        self._det, self._adj = _faddeev_leverrier(linalg.mat_mul(flat_matrix(self.dtheta_exact), sp))
        self._guard_can_trip = self.guard >= 1 or len(self._det) > 1
        # N_k = -Pi# B_k Theta, trailing zero ones dropped; N = 0 keeps one
        theta = [[fn] for _key, fn in self._exact[2 * self._n ** 2 :]]
        self._numer = [[-x for (x,) in linalg.mat_mul(sp, linalg.mat_mul(b, theta))] for b in self._adj]
        while len(self._numer) > 1 and all(x.is_zero() for x in self._numer[-1]):
            self._numer.pop()
        self._order = len(self._numer)
        poles: Dict[Poly, int] = {}
        for col, (_key, fn) in enumerate(self._exact):
            if any(fn.den.diff(x).terms for x in self.chart.coords):
                poles.setdefault(fn.den, col)
        self._poles = list(poles.values())
        self._pole_exact = [(self._exact[c][0], RationalFn(_ONE, den)) for den, c in poles.items()]
        # columns: the poles, N_k's entries (k, i), then e_k for k >= 1
        self._z_exact: List[Tuple[object, RationalFn]] = [
            ((k, i), x) for k, row in enumerate(self._numer) for i, x in enumerate(row)
        ] + [((k, "det"), e) for k, e in enumerate(self._det) if k]
        self._z_entries = _CompiledEntries(self.chart, self._pole_exact + self._z_exact)
        # a stage's value rows: N_0's entries, ..., then e_1, ...
        self._stage_rows = self._z_entries._source[len(self._poles) :]

    # -- compiled evaluation ----------------------------------------------

    def _verify_probes(self, probes: Sequence[Mapping[str, Fraction]]) -> None:
        fps = [{k: float(v) for k, v in p.items()} for p in probes]
        vecs = np.stack([_point_vec(self.chart, fp) for fp in fps])
        for entries, exact in (
            (self._entries, self._exact),
            (self._z_entries, self._pole_exact + self._z_exact),
        ):
            vals, bad = entries.eval_stack(vecs)
            for p, fp, row, row_bad in zip(probes, fps, vals, bad):
                if row_bad.any():
                    raise entries.vanished(int(row_bad.argmax()))
                for got, (_key, sym) in zip(row, exact):
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
        for row in np.flatnonzero(bad.any(axis=1)):
            # the first bad column lies in the first family that fails
            col = int(bad[row].argmax())
            fails[int(row)] = (1 + col // nn, self._entries.vanished(col))
        sp = vals[:, :nn].reshape(b, n, n)
        sb = vals[:, nn : 2 * nn].reshape(b, n, n)
        return sp, sb, vals[:, 2 * nn :], fails

    def _z_stage(self, t: float, cols: np.ndarray) -> Tuple[np.ndarray, Failures]:
        """Z_t at a batch of points as columns: (n, B) -> (n, B).

        Columns where Z_t cannot be evaluated read zero and are returned as
        failures, column -> (rank, error).  Z_t is N(t) / D(t), each summed
        from its compiled coefficients by Horner's rule in t.  One test of
        the flags finds every failure, and only a stage where it trips names
        them.
        """
        self._compile()
        n, order = self._n, self._order
        values, flags = self._z_entries._quotients(cols)
        coef = values.take(self._stage_rows, axis=0)
        d = None
        if self._guard_can_trip:
            # D(t) = 1 + t (e_1 + t (e_2 + ...)); a column that overflows
            # here fails the guard
            e = coef[order * n :]
            with np.errstate(over="ignore", invalid="ignore"):
                d = e[-1] * t if len(e) else np.zeros(cols.shape[1])
                for k in range(len(e) - 2, -1, -1):
                    d += e[k]
                    d *= t
                d += 1.0
                mag = np.abs(d)
            np.logical_not((mag >= self.guard) & (mag < np.inf), out=flags[-1])
        fails: Failures = {}
        if (flags[:-1] if d is None else flags).any():
            fails = self._stage_failures(t, flags, d)
            ok = np.ones(cols.shape[1], dtype=bool)
            ok[list(fails)] = False
            coef, d = coef[:, ok], None if d is None else d[ok]
        z = coef[(order - 1) * n : order * n]
        for k in range(order - 2, -1, -1):
            z = z * t
            z += coef[k * n : (k + 1) * n]
        if d is not None:
            z = z / d
        if fails:
            z, part = np.zeros((n, cols.shape[1])), z
            z[:, ok] = part
        return z, fails

    def _stage_failures(self, t: float, flags: np.ndarray, d: Optional[np.ndarray]) -> Failures:
        """A tripped stage's failures, column -> (rank, error): a vanished
        denominator, named by the first entry over it, or else the guard, at
        a magnitude of D(t) below it or not finite."""
        entries, n, poles = self._z_entries, self._n, len(self._poles)
        bad = entries._vanished_keys(flags)
        fails: Failures = {}
        unknown = []
        for row in np.flatnonzero(bad.any(axis=0)):
            col = int(bad[:, row].argmax())
            if col < poles:
                # the first family, Pi#, dTheta# or Theta, whose denominator vanished
                src = self._poles[col]
                fails[int(row)] = (1 + src // (n * n), self._entries.vanished(src))
            elif len(self._det) > 1:
                # a coefficient's denominator divides a product of theirs, so
                # it vanishes where none of theirs does only by rounding; then
                # D(t) is out of float range, and the column fails the guard
                unknown.append(row)
            else:
                fails[int(row)] = (3, entries.vanished(col))
        if d is not None:
            d[unknown] = np.nan
            mag = np.abs(d)
            for row in np.flatnonzero(~(mag < np.inf) | (mag < self.guard)):
                why = "near singular" if mag[row] < self.guard else "not finite"
                fails.setdefault(int(row), (4, GuardError(f"interpolation matrix {why} at t={t}")))
        return fails

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

        A row fails, row -> error, where a denominator vanished, or else at
        the first t where D(t) = det(Id + t dTheta# Pi#) trips the guard;
        else at the first t where numpy finds the matrix singular, and else
        where Pi_t# is not finite.  The inverse is numpy's, independent of
        the compiled Z_t.
        """
        sp, sb, _th, fails = self._matrices(vecs)
        self._compile()
        if self._guard_can_trip:
            # the first t that trips the guard names a row's failure
            for t in ts:
                for row, fail in self._z_stage(t, vecs.T)[1].items():
                    fails.setdefault(row, fail)

        def fail(row: int, k: int, why: str) -> None:
            fails.setdefault(int(row), (4, GuardError(f"interpolation matrix {why} at t={ts[k]}")))

        # a row out of float range fails below, with no warning
        with np.errstate(over="ignore", invalid="ignore"):
            m = self._eye + np.asarray(ts, dtype=float)[:, None, None, None] * (sb @ sp)
            ok = np.ones(len(vecs), dtype=bool)
            ok[list(fails)] = False
            try:
                inv = np.linalg.inv(m[:, ok])
            except np.linalg.LinAlgError:
                # numpy met a zero pivot or a NaN: find the rows one by one
                for k in range(len(ts)):
                    for row in np.flatnonzero(ok):
                        try:
                            np.linalg.inv(m[k, row])
                        except np.linalg.LinAlgError:
                            fail(row, k, "singular")
                ok[list(fails)] = False
                inv = np.linalg.inv(m[:, ok])
            out = np.zeros(m.shape)
            out[:, ok] = sp[ok] @ inv
        for k, row in np.argwhere(~np.isfinite(out).all(axis=(2, 3))):
            fail(row, k, "not finite")
        out[:, list(fails)] = 0.0
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
        """[[Z_t, Pi_t]] at one point, exactly: B[i][j] = [[Z_t, Pi_t]]^{ij}.

        ``@pi`` is bound to Fraction(math.pi), the value the float side
        uses.  Raises ZeroDivisionError where a denominator of Pi#, dTheta#
        or Theta vanishes and GuardError where Id + t dTheta# Pi# is singular.
        """
        det, bracket = self._bracket_fns()
        at = {**{c: Fraction(point[c]) for c in self.chart.coords}, PI: Fraction(math.pi)}
        for col in self._poles:
            if not RationalFn.from_poly(self._exact[col][1].den).value_at(at):
                raise ZeroDivisionError(f"denominator vanishes at the point for entry {col}")
        at[T] = Fraction(t)
        if not det.value_at(at):
            raise GuardError(f"interpolation matrix singular at t={t}")
        vals = {ij: fn.value_at(at) for ij, fn in bracket.comps.items()}
        n = range(self._n)
        return [[vals.get((i, j), 0) if i < j else -vals.get((j, i), 0) for j in n] for i in n]

    def _bracket_fns(self) -> Tuple[RationalFn, MultivectorField]:
        """D(T) and [[Z_T, Pi_T]], as rational functions of the point and
        T, derived on first use: Pi_T# = Pi# sum_k T^k B_k / D(T), from the
        B_k and e_k of the recursion that gave N."""
        if self._bracket is None:
            self._compile()
            n = self._n
            sharp = [linalg.mat_mul(self._sp, b) for b in self._adj]
            det = _in_t(self._det)
            # sharp-matrix slot (j, i) holds the (i, j) component
            pi_t = MultivectorField(self.chart, 2, {
                (i, j): _in_t([m[j][i] for m in sharp]) / det for i in range(n) for j in range(i + 1, n)
            })
            z_t = vector_field(self.chart, {
                i: _in_t([row[i] for row in self._numer]) / det for i in range(n)
            })
            self._bracket = det, lie_derivative_multivector(z_t, pi_t)
        return self._bracket


def z_batch(
    ev: NumericEvaluator, t: float, points: Sequence[FloatPoint]
) -> Tuple[np.ndarray, Failures]:
    """Z_t at many points in one batch: (len(points), n).

    Rows where Z_t cannot be evaluated read zero and are returned as
    failures, row -> (rank, error).
    """
    vecs = np.array([_point_vec(ev.chart, p) for p in points])
    z, fails = ev._z_stage(t, vecs.reshape(len(points), ev.chart.dim).T)
    return z.T, fails


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
    tf = float(t_frac)
    vecs = np.array([_point_vec(ev.chart, p) for p in points]).reshape(len(points), ev.chart.dim)
    (plus, minus), float_fails = ev.interp_matrices([tf + fd_step, tf - fd_step], vecs)
    dpidt = (plus - minus) / (2.0 * fd_step)
    out = [0.0] * len(points)
    fails: Dict[int, Exception] = {}
    for row, point in enumerate(points):
        try:
            bracket = ev.bracket_exact(t_frac, point)
        except ArithmeticError as exc:
            fails[row] = exc
            continue
        if row in float_fails:
            fails[row] = float_fails[row]
            continue
        bmat = np.array([[float(v) for v in r] for r in bracket])
        # sharp-matrix slot (j, i) holds the (i, j) component; numpy's max
        # keeps a NaN
        out[row] = float(np.max(np.abs(bmat + dpidt[row].T)))
    return out, fails


@dataclass
class FlowConfig:
    """Settings for the time-1 verification run."""

    points: List[Dict[str, float]]
    steps: int = 1000
    tolerance: float = FLOW_TOL
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
    row -> (stage, rank, error).  The loop holds the points as columns,
    (n, B), and the ends are transposed back once.
    """
    n = ev.chart.dim
    x = np.array(starts, dtype=float).T.copy()
    b = x.shape[1]
    h = -1.0 / steps
    t = 1.0
    live = np.ones(b, dtype=bool)
    # while every row is live, the stages skip the per-row bookkeeping
    whole = b > 0
    # the bounds repeated for every column, so the box test is one flat loop
    lo, hi = (np.repeat(v[:, np.newaxis], b, axis=1) for v in (ev._box_lo, ev._box_hi))
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
        exits = np.flatnonzero(live & ~inside.all(axis=0))
        stop(exits, {k: (0, BoxExit("trajectory left the box")) for k in range(len(exits))})
        return np.flatnonzero(live)

    def z(tt: float, xx: np.ndarray) -> np.ndarray:
        nonlocal stage
        rows = in_box(xx)
        if rows is None:
            out, fails = ev._z_stage(tt, xx)
            stop(all_rows, fails)
        else:
            out = np.zeros((n, b))
            out[:, rows], fails = ev._z_stage(tt, xx[:, rows])
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
        x = step if whole else np.where(live, step, x)
        t += h
    stage = 4 * steps
    in_box(x)
    return np.ascontiguousarray(x.T)


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
    check: CheckResult
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.check.passed


def flow_and_verify(ev: NumericEvaluator, cfg: FlowConfig) -> FlowReport:
    """Verify that the time-1 map carries the gauged bivector back.

    For each point p the map phi (reverse-time flow) and its
    finite-difference Jacobian J are computed; the componentwise deviation
    | J Pi_1(p) J^T - Pi(phi(p)) | must stay within cfg.tolerance.  Leaf
    points must be fixed by phi to the same tolerance.  Every trajectory
    runs in one batch: each point with its 2n central-difference offsets,
    then the leaf points.  A point aborts if any of its 2n + 1 rows does;
    leaf points count one by one.  More than 10% aborted fails the run.
    The report's ``check`` is PD, by the sweep rule over the start points,
    so a run with none fails.
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
    leaf_errs = []
    for row, p in enumerate(cfg.leaf_points, len(cfg.points) * width):
        if row in aborts:
            aborted += 1
            notes.append(f"aborted leaf point {p!r}: {aborts[row][2]}")
        else:
            leaf_errs.append(np.max(np.abs(ends[row] - starts[row])))
    leaf_max = float(np.max(leaf_errs, initial=0.0)) if cfg.leaf_points else None
    total = len(cfg.points) + len(cfg.leaf_points)
    over = bool(total) and aborted > total / 10.0
    if over:
        notes.append(f"{aborted}/{total} trajectories aborted (over 10%)")
    # numpy's max keeps a NaN, and a NaN is not within the tolerance
    max_dev = float(np.max(devs)) if devs else 0.0
    ok = not over and max_dev <= cfg.tolerance
    ok = ok and (leaf_max is None or leaf_max <= cfg.tolerance)
    mean_dev = (sum(devs) / len(devs)) if devs else 0.0
    info = {"max_deviation": max_dev, "mean_deviation": mean_dev, "aborted": aborted,
            "leaf_max_error": leaf_max, "steps": cfg.steps, "points": len(cfg.points)}
    failure = None if ok else failed("PD", witness=notes[:5], **info)
    run = PointwiseRun(total=len(cfg.points), usable=len(devs))
    check = verdict("PD", run, failure, info, "start points")
    return FlowReport(outcomes, max_dev, mean_dev, leaf_max, aborted, check, notes)


def flow_points(
    chart: Chart, box: Box, samples: int, seed: int, fol: Optional["Foliation"]
) -> Tuple[List[Dict[str, float]], List[Dict[str, float]]]:
    """The flow's start points, drawn from the box shrunk by half about its
    center, and on a foliated model its leaf points: the distinct
    projections of the starts to the zero fiber that lie in the box."""
    inner = {c: ((3 * lo + hi) / 4, (lo + 3 * hi) / 4) for c, (lo, hi) in box.items()}
    starts = [{k: float(v) for k, v in p.items()} for p in sample_box(chart, inner, samples, seed)]
    leaf: Dict[Tuple[Tuple[str, float], ...], Dict[str, float]] = {}
    if fol is not None:
        zero = dict.fromkeys((chart.coords[i] for i in fol.fiber), 0.0)
        for q in ({**p, **zero} for p in starts):
            if all(float(box[c][0]) <= q[c] <= float(box[c][1]) for c in q):
                leaf.setdefault(tuple(sorted(q.items())), q)
    return starts, list(leaf.values())


def leaf_check(ev: NumericEvaluator, leaf: Sequence[FloatPoint]) -> CheckResult:
    """ZS: Z_1 vanishes at the leaf points, to LEAF_TOL; a point where it
    cannot be evaluated is skipped."""
    z, fails = z_batch(ev, 1.0, leaf)
    run = PointwiseRun(total=len(leaf), usable=len(leaf) - len(fails))
    used = [row for row in range(len(leaf)) if row not in fails]
    zmax = float(np.max(np.abs(z[used]))) if used else 0.0
    info = {"tolerance": LEAF_TOL, "points_used": run.usable, "points_skipped": len(fails)}
    # a NaN max_z fails too
    failure = None if zmax <= LEAF_TOL else failed("ZS", witness={"max_z": zmax}, **info)
    return verdict("ZS", run, failure, info, "leaf points", max_z=zmax)


def homotopy_check(ev: NumericEvaluator, starts: Sequence[FloatPoint]) -> CheckResult:
    """HR: the homotopy residual stays within FLOW_TOL at t = 0, 1/4, ..., 1
    and the first ten starts; a pair where a side fails is skipped."""
    times = [Fraction(k, 4) for k in range(5)]
    points = starts[:10]
    run = PointwiseRun(total=len(times) * len(points), usable=0)
    top = 0.0
    bad = None
    for t in times:
        residuals, skipped = homotopy_residuals(ev, t, points)
        for k, (p, r) in enumerate(zip(points, residuals)):
            if k in skipped:
                continue
            run.usable += 1
            top = max(top, r)
            # a NaN residual is not within the tolerance
            if not r <= FLOW_TOL and bad is None:
                bad = {"t": str(t), "point": {k: repr(v) for k, v in sorted(p.items())},
                       "residual": r}
    info = {"tolerance": FLOW_TOL, "pairs_used": run.usable, "pairs_skipped": run.total - run.usable}
    failure = None if bad is None else failed("HR", witness=bad, **info)
    return verdict("HR", run, failure, info, "(t, point) pairs", max_residual=top)
