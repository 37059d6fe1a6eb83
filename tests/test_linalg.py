"""Exact matrix algebra over the rational-function field."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracavg.config import PI
from diracavg.linalg import (
    Jets,
    det,
    identity,
    inverse,
    kernel_basis,
    mat_mul,
    pivot_columns,
    rank,
    rref,
)
from diracavg import linalg
from diracavg.rings import Poly, QPi, RationalFn, qpi

from conftest import rand_fraction, rand_poly, to_sympy_poly


def _mat(rows):
    """A matrix over the rational-function field."""
    return [[RationalFn.of(x) for x in row] for row in rows]


def _apply(a, v):
    """A v, through the matrix product."""
    return [row[0] for row in mat_mul(a, [[x] for x in v])]


def _rand_mat(rng, n, span=3):
    return _mat([[rand_fraction(rng, span) for _ in range(n)] for _ in range(n)])


def solve(a, b):
    """One solution of A x = b through ``rref``, or None if inconsistent.

    A may be rectangular; free variables are set to zero.  ``test_dirac``
    uses it too.
    """
    ncols = len(a[0]) if a else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    pivots = rref(aug)
    if pivots and pivots[-1][1] == ncols:
        return None
    x = [RationalFn.zero() if aug and type(aug[0][0]) is RationalFn else Fraction(0)] * ncols
    for row_i, col_i in pivots:
        x[col_i] = aug[row_i][ncols]
    return x


def test_det_known_values():
    assert det(_mat([[Fraction(2)]])).const_value() == 2
    a = _mat([[1, 2], [3, 4]])
    assert det(a).const_value() == -2
    b = _mat([[2, 0, 1], [1, 1, 0], [0, 3, 1]])
    assert det(b).const_value() == 2 * 1 - 0 + 1 * 3
    # a repeated row kills the determinant
    c = _mat([[1, 2, 3], [1, 2, 3], [0, 1, 0]])
    assert det(c).is_zero()


def test_det_is_multiplicative():
    rng = random.Random(21)
    for _ in range(10):
        a = _rand_mat(rng, 3)
        b = _rand_mat(rng, 3)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_det_with_symbolic_entries():
    x = RationalFn.var("x")
    one = RationalFn.const(1)
    a = _mat([[x, one], [one, x]])
    assert det(a) == x * x - one


def test_inverse_round_trip():
    rng = random.Random(22)
    done = 0
    while done < 10:
        a = _rand_mat(rng, 3)
        if det(a).is_zero():
            continue
        assert mat_mul(a, inverse(a)) == identity(3)
        assert mat_mul(inverse(a), a) == identity(3)
        done += 1
    with pytest.raises(ArithmeticError):
        inverse(_mat([[1, 1], [1, 1]]))


def test_inverse_with_symbolic_entries():
    y = RationalFn.var("y")
    one = RationalFn.const(1)
    zero = RationalFn.zero()
    a = _mat([[one + y, zero], [zero, one]])
    ainv = inverse(a)
    assert mat_mul(a, ainv) == identity(2)
    assert ainv[0][0] == one / (one + y)


def test_rank():
    assert rank(_mat([[1, 2], [2, 4]])) == 1
    assert rank(_mat([[1, 0], [0, 1]])) == 2
    assert rank(_mat([[0, 0], [0, 0]])) == 0
    # tall and wide shapes
    assert rank(_mat([[1, 2, 3], [2, 4, 6]])) == 1
    assert rank([[RationalFn.var("x"), RationalFn.zero()]]) == 1


def test_solve_consistent_and_inconsistent():
    a = _mat([[1, 1], [1, -1]])
    b = [RationalFn.const(3), RationalFn.const(1)]
    x = solve(a, b)
    assert x is not None
    assert _apply(a, x) == b
    # singular but consistent
    a2 = _mat([[1, 1], [2, 2]])
    x2 = solve(a2, [RationalFn.const(1), RationalFn.const(2)])
    assert x2 is not None
    assert _apply(a2, x2) == [RationalFn.const(1), RationalFn.const(2)]
    # inconsistent
    assert solve(a2, [RationalFn.const(1), RationalFn.const(3)]) is None


def test_solve_random_systems():
    rng = random.Random(23)
    done = 0
    while done < 8:
        a = _rand_mat(rng, 3)
        if det(a).is_zero():
            continue
        b = [RationalFn.const(rand_fraction(rng)) for _ in range(3)]
        x = solve(a, b)
        assert x is not None and _apply(a, x) == b
        done += 1


def test_kernel_basis_spans_the_null_space():
    a = _mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    ker = kernel_basis(a)
    assert len(ker) == 3 - rank(a) == 1
    for v in ker:
        assert all(c.is_zero() for c in _apply(a, v))
    assert kernel_basis(identity(2)) == []


def test_kernel_basis_random():
    rng = random.Random(24)
    for _ in range(6):
        rows = [[RationalFn.const(rand_fraction(rng)) for _ in range(4)] for _ in range(2)]
        # duplicate a row so the rank is at most 2
        a = rows + [rows[0]]
        ker = kernel_basis(a)
        assert len(ker) == 4 - rank(a)
        for v in ker:
            assert all(c.is_zero() for c in _apply(a, v))


_Q_ENTRY = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _q_matrices(draw):
    """Square or rectangular Fraction matrices of full or deficient rank."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    # k drawn rows; the rest are combinations of them
    k = draw(st.integers(0, nrows))
    base = [[draw(_Q_ENTRY) for _ in range(ncols)] for _ in range(k)]
    rows = list(base)
    for _ in range(nrows - k):
        coeffs = [draw(_Q_ENTRY) for _ in base]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, base)), Fraction(0)) for j in range(ncols)])
    return [rows[i] for i in draw(st.permutations(range(nrows)))]


def _times(a, x):
    return [sum((p * q for p, q in zip(row, x)), Fraction(0)) for row in a]


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=_q_matrices(), data=st.data())
def test_rank_solve_and_kernel_agree_with_sympy(sympy, a, data):
    ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a])
    r = rank(a)
    assert r == ref.rank()
    # the function-field path decides the same rank
    assert rank(_mat(a)) == r
    ker = kernel_basis(a)
    assert len(ker) == len(ref.nullspace()) == len(a[0]) - r
    for v in ker:
        assert not any(_times(a, v))
    if ker:
        assert rank(ker) == len(ker)
    # a right-hand side in the column space is solved exactly
    b = _times(a, [data.draw(_Q_ENTRY) for _ in a[0]])
    x = solve(a, b)
    assert x is not None and _times(a, x) == b
    # an arbitrary one is solvable exactly when sympy says so
    b2 = [data.draw(_Q_ENTRY) for _ in a]
    consistent = ref.row_join(sympy.Matrix(b2)).rank() == ref.rank()
    assert (solve(a, b2) is not None) == consistent


_X, _Y = Poly.var("x"), Poly.var("y")
_POLY_ENTRY = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(-3, 3)), max_size=2
).map(lambda terms: sum((Poly.const(c) * _X ** i * _Y ** j for i, j, c in terms), Poly.zero()))
_DENOMINATORS = (_X + Poly.const(1), _Y - Poly.const(2), _X * _Y + Poly.const(3))


@st.composite
def _square_fn_matrices(draw):
    """1-5 square polynomial or rational matrices: random ones, ones whose
    first nonzero pivot sits in an odd row, permutations, and singular ones."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "odd pivot row", "permutation", "singular"]))
    if kind == "permutation":
        perm = draw(st.permutations(range(n)))
        return [[RationalFn.const(int(j == perm[i])) for j in range(n)] for i in range(n)]
    rows = [[RationalFn.from_poly(draw(_POLY_ENTRY)) for _ in range(n)] for _ in range(n)]
    # a rational matrix has up to two entries over a denominator
    for i, j, den in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(_DENOMINATORS)), max_size=2)):
        rows[i][j] = RationalFn(rows[i][j].num, den)
    if kind == "odd pivot row" and n > 1:
        r = draw(st.sampled_from(range(1, n, 2)))
        for row in rows[:r]:
            row[0] = RationalFn.zero()
        if rows[r][0].is_zero():
            rows[r][0] = RationalFn.const(1)
    if kind == "singular":
        # the last row is f times the first, plus the second where there is
        # one; a 1x1 matrix is zero
        f = RationalFn.from_poly(draw(_POLY_ENTRY))
        rows[-1] = [f * x for x in rows[0]] if n > 1 else [RationalFn.zero()]
        if n > 2:
            rows[-1] = [x + y for x, y in zip(rows[-1], rows[1])]
    return rows


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=_square_fn_matrices())
def test_det_and_inverse_agree_with_sympy(sympy, a):
    from sympy.polys.matrices import DomainMatrix

    field = sympy.QQ.frac_field(sympy.Symbol("x"), sympy.Symbol("y"))
    ring = field.field.ring

    def same(x, ref):
        # num / den == ref.numer / ref.denom, by cross-multiplication
        num, den = (to_sympy_poly(ring, p) for p in (x.num, x.den))
        return num * ref.denom == ref.numer * den

    n = len(a)
    ref = DomainMatrix([[field.field.new(*(to_sympy_poly(ring, p) for p in (x.num, x.den)))
                         for x in row] for row in a], (n, n), field)
    ref_det = ref.det()
    assert same(det(a), ref_det)
    if not ref_det:
        with pytest.raises(ArithmeticError, match="singular"):
            inverse(a)
        return
    ref_inv = ref.inv().to_list()
    got = inverse(a)
    assert all(same(x, r) for row, ref_row in zip(got, ref_inv) for x, r in zip(row, ref_row))


def test_rref_pivots_and_reduced_form():
    m = [[Fraction(0), Fraction(2), Fraction(4)], [Fraction(1), Fraction(1), Fraction(1)],
         [Fraction(1), Fraction(2), Fraction(3)]]
    assert rref(m) == [(0, 0), (1, 1)]
    assert m == [[1, 0, -1], [0, 1, 2], [0, 0, 0]]


def _values_at(a, point):
    return [[x.value_at(point) for x in row] for row in a]


def test_value_at_keeps_pi_and_raises_on_a_vanishing_denominator():
    x = RationalFn.var("x")
    pi = RationalFn.var("@pi")
    one = RationalFn.const(1)
    a = [[x, one / (x - one)], [pi * x, RationalFn.zero()]]
    vals = _values_at(a, {"x": Fraction(1, 2)})
    assert vals[0] == [Fraction(1, 2), Fraction(-2)]
    assert vals[1][0] == qpi([0, Fraction(1, 2)])
    assert vals[1][1] == 0
    # a matrix holding pi reduces over Q(@pi), with no lift to RationalFn
    reduced = [list(row) for row in vals]
    assert rref(reduced) == [(0, 0), (1, 1)] and reduced == [[1, 0], [0, 1]]
    assert not any(isinstance(x, RationalFn) for row in reduced for x in row)
    assert rank(vals) == 2
    with pytest.raises(ZeroDivisionError):
        _values_at(a, {"x": Fraction(1)})


def _poly_value(p, point):
    num, den = p._value_at(point)
    return Fraction(num, den) if type(num) is int else qpi(num, (den,))


def fraction_jets(jets, point):
    """``Jets.at`` on ``Fraction``s, and ``QPi``s where ``@pi`` survives: the
    route before the unreduced pairs, kept as their oracle.  ``test_cli``
    uses it too."""
    vals = [Fraction(0)] * jets._size
    grads = [[Fraction(0)] * jets._size for _ in range(jets._dim)]
    for col, ks, polys in jets._polys:
        xs = [_poly_value(p, point) for p in polys]
        num, den = xs[0], xs[1]
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at the point for entry {col}")
        vals[col] = v = num / den
        for k, d_num, d_den in zip(ks, xs[2::2], xs[3::2]):
            grads[k][col] = (d_num - v * d_den) / den
    return vals, grads


def pair_value(pair):
    """An unreduced pair of ``Jets.at`` as the value it stands for."""
    num, den = pair
    return Fraction(num, den) if type(den) is int else qpi(num, den)


def _pair_kinds(vals, grads):
    return {(type(n), type(d)) for n, d in vals + [g for row in grads for g in row]}


def test_jets_match_symbolic_derivatives_and_bind_pi_only_when_asked():
    x, y, pi = RationalFn.var("x"), RationalFn.var("y"), RationalFn.var(PI)
    one = RationalFn.const(1)
    entries = [x * y, RationalFn.zero(), (x + pi) / (one + y * y), one / (x - y), pi * y]
    jets = Jets(entries, ("x", "y"))
    point = {"x": Fraction(1, 3), "y": Fraction(-2, 5)}
    bound = dict(point)
    bound[PI] = Fraction(22, 7)
    vals, grads = jets.at(bound)
    # integer pairs over positive denominators
    assert _pair_kinds(vals, grads) == {(int, int)}
    assert all(d > 0 for _, d in vals + grads[0] + grads[1])
    for col, fn in enumerate(entries):
        assert pair_value(vals[col]) == fn.value_at(bound)
        for k, c in enumerate(("x", "y")):
            assert pair_value(grads[k][col]) == fn.diff(c).value_at(bound)
    # pi left unbound: every pair is over Z[@pi], and the entries that keep
    # it take values in Q(@pi)
    vals, grads = jets.at(point)
    assert _pair_kinds(vals, grads) == {(tuple, tuple)}
    # (1/3 + @pi) / (29/25)
    assert pair_value(vals[2]) == qpi([Fraction(25, 87), Fraction(25, 29)])
    assert pair_value(grads[1][4]) == qpi([0, 1]) and pair_value(vals[0]) == Fraction(-2, 15)
    for at in (bound, point):
        want = fraction_jets(jets, at)
        vals, grads = jets.at(at)
        assert [pair_value(v) for v in vals] == want[0]
        assert [[pair_value(g) for g in row] for row in grads] == want[1]
    with pytest.raises(ZeroDivisionError):
        jets.at({"x": Fraction(1, 2), "y": Fraction(1, 2), PI: Fraction(3)})


def _upoly(coeffs) -> Poly:
    return sum((Poly.const(c) * Poly.var(PI) ** k for k, c in enumerate(coeffs)), Poly.zero())


def _as_ratfn(v) -> RationalFn:
    if isinstance(v, QPi):
        return RationalFn(_upoly(v.num), _upoly(v.den))
    return RationalFn.const(v)


_UPOLY = st.lists(st.integers(min_value=-3, max_value=3).map(Fraction), max_size=3)
# mostly rational entries, some in Q(@pi), many zeros
_QPI_ENTRY = st.one_of(
    st.just(Fraction(0)),
    _Q_ENTRY,
    st.builds(qpi, _UPOLY, _UPOLY.filter(any)),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.lists(st.lists(_QPI_ENTRY, min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))))
def test_rref_over_q_pi_matches_the_function_field(m):
    # the function-field elimination, the old path for @pi values, is the oracle
    lifted = [[_as_ratfn(x) for x in row] for row in m]
    want = rref(lifted)
    got = [list(row) for row in m]
    assert rref(got) == want
    assert all(_as_ratfn(x) == y for row, ref in zip(got, lifted) for x, y in zip(row, ref))
    assert all(isinstance(x, (Fraction, QPi)) for row in got for x in row)


@st.composite
def _int_or_q_matrices(draw):
    """Q matrices whose rows are ints or Fractions, of any shape and rank.

    Drawn rows of full or deficient rank, each maybe scaled to an int row
    (as ``components_at`` gives), with zero rows mixed in; the shapes take
    in zero columns and zero rows.
    """
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    k = draw(st.integers(0, nrows))
    base = [[draw(_Q_ENTRY) for _ in range(ncols)] for _ in range(k)]
    rows = list(base)
    for _ in range(nrows - k):
        if draw(st.booleans()):
            rows.append([Fraction(0)] * ncols)
            continue
        coeffs = [draw(_Q_ENTRY) for _ in base]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, base)), Fraction(0)) for j in range(ncols)])
    out = []
    for i in draw(st.permutations(range(nrows))):
        row = rows[i]
        if draw(st.booleans()):
            scale = draw(st.integers(1, 6)) * math.lcm(*[x.denominator for x in row])
            row = [int(x * scale) for x in row]
        out.append(row)
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=_int_or_q_matrices())
def test_pivot_columns_match_rref_over_q(a):
    before = [list(row) for row in a]
    held = [row for row in a]
    cols = pivot_columns(a)
    assert cols == [c for _, c in rref([list(row) for row in a])]
    assert rank(a) == len(cols)
    # neither call changes the matrix or any row it holds
    assert a == before and all(x is y for x, y in zip(a, held))


def test_pivot_columns_rescale_a_row_whose_pivot_entry_is_zero():
    # the second row holds a zero in the first pivot's column; unless it is
    # scaled by that pivot, the division by it in the next step truncates
    # and the last column looks dependent
    a = [[0, 1, 2, 2], [0, -2, -3, -3], [2, 3, 0, 3]]
    assert pivot_columns(a) == [0, 1, 2]


# Q(@pi) entries next to ints: a Q(@pi) matrix may hold int rows beside rows
# that keep @pi
_QPI_OR_INT_ENTRY = st.one_of(st.integers(-3, 3), _QPI_ENTRY)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.one_of(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                      st.lists(_QPI_OR_INT_ENTRY, min_size=cols, max_size=cols)),
            min_size=rows, max_size=rows))))
def test_q_pi_matrices_with_int_entries_reduce_exactly(m):
    lifted = [[_as_ratfn(x) for x in row] for row in m]
    want = rref(lifted)
    before = [list(row) for row in m]
    assert pivot_columns(m) == [c for _, c in want]
    assert rank(m) == len(want) and m == before
    got = [list(row) for row in m]
    assert rref(got) == want
    assert all(_as_ratfn(x) == y for row, ref in zip(got, lifted) for x, y in zip(row, ref))
    assert all(isinstance(x, (int, Fraction, QPi)) for row in got for x in row)


def test_q_pi_inverts_an_int_pivot_exactly():
    # an int pivot next to a row that keeps @pi inverts to a Fraction, not
    # by floor division
    m = [[2, 1, 0], [0, 0, qpi([0, 1])]]
    assert rref(m) == [(0, 0), (1, 2)]
    assert m[0] == [1, Fraction(1, 2), 0] and type(m[0][1]) is Fraction
    assert rank([[2, 1], [qpi([0, 1]), 3]]) == 2
    m = [[2, 1], [qpi([0, 1]), 3]]
    assert rref(m) == [(0, 0), (1, 1)] and m == [[1, 0], [0, 1]]


def test_a_dense_polynomial_inverse_stays_small():
    # Gauss-Jordan over the function field reduces every entry as it goes:
    # without a gcd this inverse took seconds and its entries thousands of
    # terms
    rng = random.Random(7)
    a = [[RationalFn.from_poly(rand_poly(rng, ("x", "y"), 2, 2)) for _ in range(5)] for _ in range(5)]
    start = time.perf_counter()
    inv = inverse(a)
    assert time.perf_counter() - start < 1.0
    assert max(max(len(x.num.terms), len(x.den.terms)) for row in inv for x in row) <= 53
    assert mat_mul(a, inv) == identity(5)
