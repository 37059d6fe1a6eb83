"""Exact dense linear algebra over Q, Q(@pi) and the rational functions.

Matrices are nested lists of ``Fraction`` or ``int`` entries (a pointwise
check's matrix evaluated at a rational sample point), of those mixed with
``QPi`` entries where ``@pi`` survives the point, or of ``RationalFn``
entries, for symbolic matrices such as a kernel basis or an inverse.
``pivot_columns`` also takes ``ZPi`` entries (rows cleared to Z[@pi]),
read as the ``QPi`` values they are.

Inverses are Gauss-Jordan on ``[a | Id]`` through one kernel, ``rref``,
which also gives ``kernel_basis`` and the pivots of a matrix that is not
over Q.  It takes one step rule on every entry type: every value is in a
normal form (a ``RationalFn`` in lowest terms, a canonical ``QPi``), so
zero is canonical and zero entries skip their multiply.  Ranks over Q and
determinants come from one Bareiss (fraction-free) loop, ``_bareiss``:
``pivot_columns`` runs it on the rows cleared to integers, ``det`` on the
rows cleared to polynomials.  ``Jets`` gives exact values and coordinate
gradients of a family of entries at a point, as unreduced pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Mapping, Sequence, Tuple, Union

from .rings import Poly, QPi, RationalFn, ZPi, _uadd, _zmul, _zpi_pair, qpi

Mat = List[List[RationalFn]]
# an entry in Q, Z[@pi] or Q(@pi) (all at points), or a rational function
Value = Union[int, Fraction, QPi, ZPi, RationalFn]


def identity(n: int) -> Mat:
    return [
        [RationalFn.const(1 if i == j else 0) for j in range(n)] for i in range(n)
    ]


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Mat, c: RationalFn) -> Mat:
    return [[x * c for x in row] for row in a]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    out: Mat = []
    for i in range(n):
        row = []
        for j in range(m):
            s = RationalFn.zero()
            for t in range(k):
                if a[i][t].is_zero() or b[t][j].is_zero():
                    continue
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def det(a: Mat) -> RationalFn:
    """Determinant by Bareiss elimination of the rows, each cleared to
    polynomials by the product of its distinct denominators."""
    if not a:
        return RationalFn.const(1)
    rows, factor = [], RationalFn.const(1)
    for row in a:
        d = RationalFn.const(1)
        for den in {x.den for x in row}:
            d = d * RationalFn.from_poly(den)
        factor = factor * d
        rows.append([(x * d).as_poly() for x in row])
    cols, p = _bareiss(rows)
    return RationalFn.from_poly(p) / factor if len(cols) == len(a) else RationalFn.zero()


def inverse(a: Mat) -> Mat:
    """Exact inverse by Gauss-Jordan on [a | Id]; raises ArithmeticError if
    a is singular."""
    n = len(a)
    aug = [list(row) + e for row, e in zip(a, identity(n))]
    if [c for _, c in rref(aug)] != list(range(n)):
        raise ArithmeticError("matrix is singular over the function field")
    return [row[n:] for row in aug]


def rref(m: List[list]) -> List[Tuple[int, int]]:
    """Reduce m in place to reduced row echelon form; returns its pivots.

    Pivots are (row, column) pairs in column order.  The first nonzero
    entry at or below the current row is the pivot; its row is swapped up
    and scaled to a leading 1, and the column is cleared in every other
    row.  A matrix with any RationalFn entry is lifted to RationalFn first.
    Every entry is in a normal form, so zero entries skip their multiply.
    """
    if any(type(x) is RationalFn for row in m for x in row):
        m[:] = [[RationalFn.of(x) for x in row] for row in m]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: List[Tuple[int, int]] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        # a QPi operand takes over each operation it meets
        c = p.inverse() if type(p) is RationalFn else Fraction(1) / p
        prow = m[r] = [x * c if x else x for x in m[r]]
        for i in range(nrows):
            f = m[i][col]
            if i != r and f:
                m[i] = [x - f * y if y else x for x, y in zip(m[i], prow)]
        pivots.append((r, col))
        r += 1
        if r == nrows:
            break
    return pivots


def _bareiss(rows: List[list]) -> Tuple[List[int], Union[int, Poly]]:
    """Fraction-free (Bareiss) elimination of integer or polynomial rows,
    which it consumes.

    Returns the pivot columns and the last pivot times the sign of the row
    order the pivots were taken in: the determinant of a square matrix of
    full rank.  Each entry is a minor of the rows, so each division by the
    previous pivot is exact.
    """
    cols: List[int] = []
    # the rows not yet pivots hold the columns from `start` on
    start, prev, sign, p = 0, 1, 1, 0
    for col in range(len(rows[0]) if rows else 0):
        j = col - start
        k = next((i for i, row in enumerate(rows) if row[j]), None)
        if k is None:
            continue
        # the pivot row moves up past the k rows above it
        prow = rows.pop(k)
        if k & 1:
            sign = -sign
        p, ptail = prow[j], prow[j + 1:]
        # a row with a zero in the pivot column still takes the factor p / prev
        rows = [[(x * p - row[j] * y) // prev for x, y in zip(row[j + 1:], ptail)] if row[j]
                else [x * p // prev for x in row[j + 1:]] for row in rows]
        cols.append(col)
        if not rows:
            break
        start, prev = col + 1, p
    return cols, p if sign > 0 else -p


def pivot_columns(a: Sequence[Sequence[Value]]) -> List[int]:
    """The pivot columns of a's echelon form (its column rank profile); a is
    not mutated.

    Over Q the rows, each cleared to integers by the lcm of its denominators,
    go through ``_bareiss``.  A matrix with a QPi, ZPi or RationalFn entry
    is reduced by ``rref`` on a copy, each ZPi read as a QPi.
    """
    rows = []
    for row in a:
        kinds = set(map(type, row))
        if not kinds <= {int, Fraction}:
            return [c for _, c in rref([[qpi(x) if type(x) is tuple else x for x in row]
                                        for row in a])]
        if Fraction in kinds:
            lcm = math.lcm(*[x.denominator for x in row])
            row = [x.numerator * (lcm // x.denominator) for x in row]
        rows.append(row)
    return _bareiss(rows)[0]


def rank(a: Sequence[Sequence[Value]]) -> int:
    """Row rank, the number of pivot columns (a is not mutated)."""
    return len(pivot_columns(a))


def kernel_basis(a: Sequence[Sequence[Value]]) -> List[List[Value]]:
    """Basis of the right kernel of A over its field."""
    ncols = len(a[0]) if a else 0
    m = [list(row) for row in a]
    pivots = rref(m)
    lifted = ncols and type(m[0][0]) is RationalFn
    zero, one = (RationalFn.zero(), RationalFn.const(1)) if lifted else (Fraction(0), Fraction(1))
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for row_i, col_i in pivots:
            vec[col_i] = -m[row_i][fc]
        basis.append(vec)
    return basis


class Jets:
    """Exact values and coordinate gradients of a family of rational entries.

    For f = N/D the gradient is (dN - f dD)/D, from the derivatives of N
    and D taken once here.  Each polynomial is evaluated by
    ``Poly._value_at``, so ``@pi`` is bound only where the point maps it to
    a value, and every value and gradient comes back unreduced, with no
    ``Fraction`` built: an integer over a positive integer, or, at a point
    where some entry keeps ``@pi``, a ``ZPi`` over a ``ZPi``.
    """

    def __init__(self, entries: Sequence[RationalFn], coords: Sequence[str]):
        self._size = len(entries)
        self._dim = len(coords)
        # per nonzero entry: its column, the coordinates k where N or D
        # varies, and [N, D, d_k N, d_k D, ...] over those k
        self._polys: List[Tuple[int, List[int], List[Poly]]] = []
        for col, fn in enumerate(entries):
            if fn.is_zero():
                continue
            ks, polys = [], [fn.num, fn.den]
            for k, c in enumerate(coords):
                d_num, d_den = fn.num.diff(c), fn.den.diff(c)
                if d_num.terms or d_den.terms:
                    ks.append(k)
                    polys += [d_num, d_den]
            self._polys.append((col, ks, polys))

    def at(self, point: Mapping[str, Fraction]) -> Tuple[List[tuple], List[List[tuple]]]:
        """(values, gradients): values[col] and gradients[k][col] = d_k of
        entry col, each a pair (numerator, denominator).

        With N = n/a, D = d/b, d_k N = p/c and d_k D = q/e, the value is
        nb/(ad) and the gradient (pade - nbqc)b/(ace d^2), or pb/(cd) where
        q is zero.  Raises ZeroDivisionError where a denominator vanishes.
        """
        vals: List[tuple] = [(0, 1)] * self._size
        grads = [[(0, 1)] * self._size for _ in range(self._dim)]
        for col, ks, polys in self._polys:
            xs = [p._value_at(point) for p in polys]
            if any(type(x[0]) is not int for x in xs):
                return self._at_pi(point)
            (n, a), (d, b) = xs[0], xs[1]
            if not d:
                raise ZeroDivisionError(f"denominator vanishes at the point for entry {col}")
            if d < 0:
                d, b = -d, -b
            vals[col] = (n * b, a * d)
            for k, (p, c), (q, e) in zip(ks, xs[2::2], xs[3::2]):
                if q:
                    grads[k][col] = ((p * a * d * e - n * b * q * c) * b, a * c * e * d * d)
                else:
                    grads[k][col] = (p * b, c * d)
        return vals, grads

    def _at_pi(self, point: Mapping[str, Fraction]) -> Tuple[List[tuple], List[List[tuple]]]:
        """``at`` over Z[@pi], where some entry keeps ``@pi``: the same
        formulas, each pair a ZPi over a ZPi."""
        zero = ((), (1,))
        vals: List[tuple] = [zero] * self._size
        grads = [[zero] * self._size for _ in range(self._dim)]
        for col, ks, polys in self._polys:
            (n, a), (d, b), *xs = [_zpi_pair(p._value_at(point)) for p in polys]
            if not d:
                raise ZeroDivisionError(f"denominator vanishes at the point for entry {col}")
            vals[col] = (_zmul(n, (b,)), _zmul(d, (a,)))
            for k, (p, c), (q, e) in zip(ks, xs[::2], xs[1::2]):
                if q:
                    num = _uadd(_zmul(_zmul(p, d), (a * e,)), _zmul(_zmul(n, q), (-b * c,)))
                    grads[k][col] = (_zmul(num, (b,)), _zmul(_zmul(d, d), (a * c * e,)))
                else:
                    grads[k][col] = (_zmul(p, (b,)), _zmul(d, (c,)))
        return vals, grads
