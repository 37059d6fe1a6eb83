"""Antisymmetric tensor calculus on a fixed coordinate chart.

Multivector fields and differential forms are stored sparsely: a map from
strictly increasing index tuples to ``RationalFn`` components.  All operations
are coefficient-exact.

Fixed conventions (used consistently across the package):

* ``(u ^ v)(alpha, beta) = alpha(u) beta(v) - alpha(v) beta(u)``.
* Interior product contracts the first slot:
  ``i_alpha (u ^ v) = alpha(u) v - alpha(v) u`` and dually for ``i_X`` on
  forms.  The bivector sharp is ``Pi#(alpha) = i_alpha Pi``.
* The Schouten bracket is computed in odd coordinates:
  ``[[A, B]] = A*B - (-1)^((a-1)(b-1)) B*A`` with
  ``A*B = sum_k d^R_k(A) ^ d_{x_k}(B)`` where ``d^R_k`` is the right
  derivative against the odd generator of slot k.  With this normalization
  ``[[X, B]]`` is the Lie derivative and ``[[X, f]] = X(f)``.

Every operation sums its ``(index, value)`` terms by one rule (``_summed``):
per index, in the order the indices first appear; an index whose sum
reaches zero is dropped, and a later term on it enters it again, last.
Adding tensors one by one with ``+`` and building their sum at once with
``sum_of`` therefore give the same components in the same order.  That
order is part of the contract: witnesses print ``repr(t.comps)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from . import linalg
from .config import LIMITS, CapacityError
from .rings import Poly, RationalFn

if TYPE_CHECKING:
    from .coupling import Connection

Idx = Tuple[int, ...]
Components = Dict[Idx, RationalFn]


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate system on a box domain."""

    coords: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("duplicate coordinate names")
        if len(self.coords) > LIMITS.max_variables:
            raise CapacityError(
                f"{len(self.coords)} coordinates exceeds cap {LIMITS.max_variables}"
            )
        for c in self.coords:
            if c.startswith("@"):
                raise ValueError(f"coordinate name {c!r} is reserved")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        return self.coords.index(name)


def sort_with_sign(idx: Sequence[int]) -> Tuple[Optional[Idx], int]:
    """Sort an index tuple, returning (sorted tuple, permutation sign).

    Returns (None, 0) when an index repeats.
    """
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return None, 0
    return tuple(lst), sign


def _signed(sign: int, val: RationalFn) -> RationalFn:
    return val if sign == 1 else -val


def _summed(terms: Iterable[Tuple[Idx, RationalFn]]) -> Components:
    """Sum terms per index, keeping the order in which indices first appear.

    An index whose sum reaches zero is dropped; a later term on it enters it
    again, last.
    """
    out: Components = {}
    for idx, val in terms:
        cur = out.get(idx)
        s = val if cur is None else cur + val
        if s.is_zero():
            out.pop(idx, None)
        else:
            out[idx] = s
    return out


class _Tensor:
    """Shared implementation for multivectors and forms."""

    kind = "?"

    def __init__(self, chart: Chart, degree: int, comps: Components):
        if degree < 0:
            raise ValueError("negative degree")
        self.chart = chart
        self.degree = degree
        self.comps: Components = {}
        for idx, val in comps.items():
            if len(idx) != degree:
                raise ValueError("index tuple length does not match degree")
            if any(i < 0 or i >= chart.dim for i in idx):
                raise ValueError("index out of range")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError("index tuples must be strictly increasing")
            if not val.is_zero():
                self.comps[idx] = val

    # -- generic helpers --------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "_Tensor":
        return cls(chart, degree, {})

    @classmethod
    def sum_of(cls, chart: Chart, degree: int, parts: Iterable["_Tensor"]) -> "_Tensor":
        """The sum of ``parts``, built once from their components in order:
        the same components, in the same order, as adding them one by one."""
        zero = cls.zero(chart, degree)
        terms: List[Tuple[Idx, RationalFn]] = []
        for part in parts:
            zero._require_same(part)
            if part.degree != degree:
                raise ValueError("degrees differ")
            terms.extend(part.comps.items())
        return cls(chart, degree, _summed(terms))

    @classmethod
    def from_scalar(cls, chart: Chart, f: Union[RationalFn, Poly, int, Fraction]) -> "_Tensor":
        return cls(chart, 0, {(): RationalFn.of(f)})

    @classmethod
    def basis(cls, chart: Chart, idx: Sequence[int]) -> "_Tensor":
        srt, sign = sort_with_sign(tuple(idx))
        if srt is None:
            return cls(chart, len(idx), {})
        return cls(chart, len(idx), {srt: RationalFn.const(sign)})

    def component(self, idx: Sequence[int]) -> RationalFn:
        """Signed component lookup for an arbitrary index tuple."""
        srt, sign = sort_with_sign(tuple(idx))
        if srt is None:
            return RationalFn.zero()
        val = self.comps.get(srt)
        if val is None:
            return RationalFn.zero()
        return _signed(sign, val)

    def is_zero(self) -> bool:
        return not self.comps

    def scalar_value(self) -> RationalFn:
        if self.degree != 0:
            raise ValueError("not a degree-0 tensor")
        return self.comps.get((), RationalFn.zero())

    def _require_same(self, other: "_Tensor") -> None:
        if self.chart != other.chart:
            raise ValueError("tensors live on different charts")
        if self.kind != other.kind:
            raise ValueError("tensor kinds differ")

    def __add__(self, other: "_Tensor") -> "_Tensor":
        return self.sum_of(self.chart, self.degree, (self, other))

    def __neg__(self) -> "_Tensor":
        return type(self)(
            self.chart, self.degree, {i: -v for i, v in self.comps.items()}
        )

    def __sub__(self, other: "_Tensor") -> "_Tensor":
        return self + (-other)

    def scale(self, f: Union[RationalFn, Poly, int, Fraction]) -> "_Tensor":
        f = RationalFn.of(f)
        if f.is_zero():
            return type(self)(self.chart, self.degree, {})
        return type(self)(
            self.chart, self.degree, {i: v * f for i, v in self.comps.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Tensor):
            return NotImplemented
        if self.kind != other.kind or self.chart != other.chart:
            return False
        if self.degree != other.degree:
            return False
        keys = set(self.comps) | set(other.comps)
        zero = RationalFn.zero()
        return all(
            self.comps.get(k, zero) == other.comps.get(k, zero) for k in keys
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.chart, self.degree, frozenset(self.comps)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(deg={self.degree}, {self.comps!r})"

    # -- wedge ------------------------------------------------------------

    def wedge(self, other: "_Tensor") -> "_Tensor":
        self._require_same(other)
        terms = []
        for ia, va in self.comps.items():
            for ib, vb in other.comps.items():
                srt, sign = sort_with_sign(ia + ib)
                if srt is not None:
                    terms.append((srt, _signed(sign, va * vb)))
        return type(self)(self.chart, self.degree + other.degree, _summed(terms))

    # -- evaluation -------------------------------------------------------

    def evaluate(self, *args: "_Tensor") -> RationalFn:
        """Full contraction with ``degree`` arguments of the dual kind.

        Each argument must be a degree-1 tensor of the opposite kind.  Uses
        the determinant pairing fixed by the wedge convention.
        """
        if len(args) != self.degree:
            raise ValueError("argument count must equal tensor degree")
        for a in args:
            if a.degree != 1 or a.kind == self.kind:
                raise ValueError("arguments must be degree-1 duals")
        if self.degree == 0:
            return self.scalar_value()
        total = RationalFn.zero()
        for idx, val in self.comps.items():
            det = RationalFn.zero()
            for perm in itertools.permutations(range(self.degree)):
                sign = _perm_sign(perm)
                prod = RationalFn.const(sign)
                ok = True
                for row, col in enumerate(perm):
                    entry = args[row].comps.get((idx[col],))
                    if entry is None:
                        ok = False
                        break
                    prod = prod * entry
                if ok:
                    det = det + prod
            if not det.is_zero():
                total = total + val * det
        return total


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class MultivectorField(_Tensor):
    kind = "multivector"


class DifferentialForm(_Tensor):
    kind = "form"


def vector_field(chart: Chart, comps: Mapping[int, object]) -> MultivectorField:
    return MultivectorField(
        chart, 1, {(i,): RationalFn.of(v) for i, v in comps.items()}
    )


def one_form(chart: Chart, comps: Mapping[int, object]) -> DifferentialForm:
    return DifferentialForm(
        chart, 1, {(i,): RationalFn.of(v) for i, v in comps.items()}
    )


# ----------------------------------------------------------------------
# contraction, sharp
# ----------------------------------------------------------------------


def interior_product(first: _Tensor, t: _Tensor) -> _Tensor:
    """First-slot contraction ``i_first t``.

    ``first`` is a vector field when ``t`` is a form, or a 1-form when ``t``
    is a multivector.
    """
    if first.degree != 1:
        raise ValueError("interior product expects a degree-1 first argument")
    if first.kind == t.kind:
        raise ValueError("interior product needs dual kinds")
    if first.chart != t.chart:
        raise ValueError("charts differ")
    if t.degree == 0:
        raise ValueError("cannot contract a degree-0 tensor")
    terms = []
    for idx, val in t.comps.items():
        for pos, j in enumerate(idx):
            w = first.comps.get((j,))
            if w is not None:
                terms.append((idx[:pos] + idx[pos + 1 :], _signed((-1) ** pos, w * val)))
    return type(t)(t.chart, t.degree - 1, _summed(terms))


def sharp_bivector(pi: MultivectorField, alpha: DifferentialForm) -> MultivectorField:
    """``Pi#(alpha) = i_alpha Pi`` for a bivector field."""
    if pi.degree != 2:
        raise ValueError("sharp expects a bivector")
    if alpha.degree != 1:
        raise ValueError("sharp expects a 1-form")
    return interior_product(alpha, pi)


def sharp_matrix(pi: MultivectorField) -> List[List[RationalFn]]:
    """Matrix of Pi# on components: (Pi# a)^j = sum_i a_i M[j][i]."""
    if pi.degree != 2:
        raise ValueError("expects a bivector")
    n = pi.chart.dim
    return [[pi.component((i, j)) for i in range(n)] for j in range(n)]


def flat_matrix(b: DifferentialForm) -> List[List[RationalFn]]:
    """Matrix of B# on components: (i_X B)_j = sum_i X^i M[j][i]."""
    if b.degree != 2:
        raise ValueError("expects a 2-form")
    n = b.chart.dim
    return [[b.component((i, j)) for i in range(n)] for j in range(n)]


# ----------------------------------------------------------------------
# exterior derivative, Lie derivative, Schouten bracket
# ----------------------------------------------------------------------


def exterior_derivative(beta: DifferentialForm) -> DifferentialForm:
    chart = beta.chart
    terms = []
    for idx, val in beta.comps.items():
        for i, name in enumerate(chart.coords):
            srt, sign = sort_with_sign((i,) + idx)
            if srt is not None:
                terms.append((srt, _signed(sign, val.diff(name))))
    return DifferentialForm(chart, beta.degree + 1, _summed(terms))


def apply_vector(x: MultivectorField, f: RationalFn) -> RationalFn:
    """Directional derivative X(f)."""
    if x.degree != 1:
        raise ValueError("expects a vector field")
    out = RationalFn.zero()
    for (i,), xi in x.comps.items():
        df = f.diff(x.chart.coords[i])
        if not df.is_zero():
            out = out + xi * df
    return out


def lie_derivative_multivector(x: MultivectorField, t: MultivectorField) -> MultivectorField:
    """L_X T computed leg by leg with [X, d_j] = -(d_j X^l) d_l."""
    if x.degree != 1:
        raise ValueError("expects a vector field")
    chart = x.chart
    # dX[j]: the (l, d_j X^l) with d_j X^l nonzero, in the order of X's components
    dX: Dict[int, List[Tuple[int, RationalFn]]] = {j: [] for j in range(chart.dim)}
    for (l,), xl in x.comps.items():
        for j, name in enumerate(chart.coords):
            d = xl.diff(name)
            if not d.is_zero():
                dX[j].append((l, d))
    terms = []
    for idx, val in t.comps.items():
        # transport of the coefficient
        terms.append((idx, apply_vector(x, val)))
        # transport of each leg
        for pos, j in enumerate(idx):
            for l, d in dX[j]:
                srt, sign = sort_with_sign(idx[:pos] + (l,) + idx[pos + 1 :])
                if srt is not None:
                    terms.append((srt, _signed(-sign, val * d)))
    return MultivectorField(chart, t.degree, _summed(terms))


def lie_derivative(x: MultivectorField, t: Union[_Tensor, RationalFn]) -> Union[_Tensor, RationalFn]:
    """Lie derivative along a vector field of a scalar, form or multivector."""
    if isinstance(t, RationalFn):
        return apply_vector(x, t)
    if isinstance(t, MultivectorField):
        if t.degree == 0:
            return MultivectorField.from_scalar(t.chart, apply_vector(x, t.scalar_value()))
        return lie_derivative_multivector(x, t)
    if isinstance(t, DifferentialForm):
        if t.degree == 0:
            return DifferentialForm.from_scalar(t.chart, apply_vector(x, t.scalar_value()))
        # Cartan formula
        a = interior_product(x, exterior_derivative(t))
        b = exterior_derivative(interior_product(x, t))
        return a + b
    raise TypeError(f"unsupported operand {type(t).__name__}")


def _d_scalar(f: RationalFn, chart: Chart) -> DifferentialForm:
    comps: Components = {}
    for i, name in enumerate(chart.coords):
        d = f.diff(name)
        if not d.is_zero():
            comps[(i,)] = d
    return DifferentialForm(chart, 1, comps)


def d_scalar(f: Union[RationalFn, Poly], chart: Chart) -> DifferentialForm:
    """Exterior derivative of a scalar function as a 1-form."""
    return _d_scalar(RationalFn.of(f), chart)


def _xi_right_derivative(t: MultivectorField, k: int) -> MultivectorField:
    """Right derivative against the odd generator of coordinate slot k."""
    out: Components = {}
    a = t.degree
    for idx, val in t.comps.items():
        if k in idx:
            # distinct indices holding k stay distinct without it
            m = idx.index(k)  # zero-based position
            out[idx[:m] + idx[m + 1 :]] = _signed((-1) ** (a - m - 1), val)
    return MultivectorField(t.chart, a - 1, out)


def _x_derivative(t: MultivectorField, name: str) -> MultivectorField:
    comps = {i: v.diff(name) for i, v in t.comps.items()}
    return MultivectorField(
        t.chart, t.degree, {i: v for i, v in comps.items() if not v.is_zero()}
    )


def _schouten_half(a: MultivectorField, b: MultivectorField) -> MultivectorField:
    chart = a.chart
    if a.degree == 0:
        return MultivectorField.zero(chart, b.degree - 1)
    parts = []
    for k, name in enumerate(chart.coords):
        da = _xi_right_derivative(a, k)
        if da.is_zero():
            continue
        db = _x_derivative(b, name)
        if not db.is_zero():
            parts.append(da.wedge(db))
    return MultivectorField.sum_of(chart, a.degree + b.degree - 1, parts)


def schouten_bracket(a: MultivectorField, b: MultivectorField) -> MultivectorField:
    """Schouten bracket [[A, B]] of multivector fields.

    Degree is a + b - 1; for vector fields this is the Lie bracket, and
    [[Pi, Pi]] = 0 is the Jacobi identity for the bivector Pi.
    """
    if a.chart != b.chart:
        raise ValueError("charts differ")
    if a.degree + b.degree == 0:
        return MultivectorField.zero(a.chart, 0)
    first = _schouten_half(a, b)
    # the halves coincide for [[A, A]], the Jacobiator
    second = first if b is a else _schouten_half(b, a)
    sign = -1 if ((a.degree - 1) * (b.degree - 1)) % 2 == 0 else 1
    # [[A,B]] = A*B - (-1)^((a-1)(b-1)) B*A
    if sign == -1:
        return first - second
    return first + second


def vf_bracket(x: MultivectorField, y: MultivectorField) -> MultivectorField:
    """Lie bracket of vector fields."""
    if x.degree != 1 or y.degree != 1:
        raise ValueError("expects vector fields")
    return lie_derivative_multivector(x, y)


# ----------------------------------------------------------------------
# vector-valued forms
# ----------------------------------------------------------------------


class VectorValued1Form:
    """A (1,1)-tensor K: TM -> TM stored as a matrix K[i][j] = dx_i(K(d_j))."""

    def __init__(self, chart: Chart, matrix: Sequence[Sequence[object]]):
        n = chart.dim
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValueError("matrix shape must match chart dimension")
        self.chart = chart
        self.matrix: List[List[RationalFn]] = [
            [RationalFn.of(x) for x in row] for row in matrix
        ]

    def column(self, j: int) -> MultivectorField:
        """K(d_j) as a vector field."""
        return vector_field(
            self.chart, {i: self.matrix[i][j] for i in range(self.chart.dim)}
        )

    def apply(self, x: MultivectorField) -> MultivectorField:
        if x.degree != 1:
            raise ValueError("expects a vector field")
        comps: Dict[int, RationalFn] = {}
        for (j,), xj in x.comps.items():
            for i in range(self.chart.dim):
                kij = self.matrix[i][j]
                if kij.is_zero():
                    continue
                comps[i] = comps.get(i, RationalFn.zero()) + kij * xj
        return vector_field(self.chart, comps)

    def compose(self, other: "VectorValued1Form") -> "VectorValued1Form":
        return VectorValued1Form(self.chart, linalg.mat_mul(self.matrix, other.matrix))

    def __add__(self, other: "VectorValued1Form") -> "VectorValued1Form":
        return VectorValued1Form(
            self.chart,
            [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)],
        )

    def __sub__(self, other: "VectorValued1Form") -> "VectorValued1Form":
        return VectorValued1Form(
            self.chart,
            [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)],
        )

    def __neg__(self) -> "VectorValued1Form":
        return VectorValued1Form(self.chart, [[-x for x in row] for row in self.matrix])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorValued1Form):
            return NotImplemented
        return self.chart == other.chart and all(
            x == y
            for ra, rb in zip(self.matrix, other.matrix)
            for x, y in zip(ra, rb)
        )

    def __hash__(self) -> int:
        return hash((self.chart, tuple(tuple(r) for r in self.matrix)))

    def is_projection(self) -> bool:
        return self.compose(self) == self


class VectorValued2Form:
    """An antisymmetric TM x TM -> TM tensor, stored on increasing pairs."""

    def __init__(self, chart: Chart, values: Mapping[Tuple[int, int], MultivectorField]):
        self.chart = chart
        self.values = {ij: v for ij, v in values.items() if not v.is_zero()}

    def evaluate(self, u: MultivectorField, v: MultivectorField) -> MultivectorField:
        zero = RationalFn.zero()
        parts = []
        for (i, j), vec in self.values.items():
            ui, uj = u.comps.get((i,), zero), u.comps.get((j,), zero)
            vi, vj = v.comps.get((i,), zero), v.comps.get((j,), zero)
            parts.append(vec.scale(ui * vj - uj * vi))
        return MultivectorField.sum_of(self.chart, 1, parts)

    def is_zero(self) -> bool:
        return not self.values


def nijenhuis_torsion(p: VectorValued1Form) -> VectorValued2Form:
    """The Nijenhuis torsion of p, half its Froelicher-Nijenhuis bracket
    [p, p], on the coordinate frame, where [d_i, d_j] vanishes:

        N(d_i, d_j) = [P d_i, P d_j] - P(d_i(P d_j) - d_j(P d_i))

    with the columns P d_* differentiated componentwise.
    """
    chart = p.chart
    cols = [p.column(j) for j in range(chart.dim)]
    out: Dict[Tuple[int, int], MultivectorField] = {}
    for i, j in itertools.combinations(range(chart.dim), 2):
        shear = _x_derivative(cols[j], chart.coords[i]) - _x_derivative(cols[i], chart.coords[j])
        out[(i, j)] = vf_bracket(cols[i], cols[j]) - p.apply(shear)
    return VectorValued2Form(chart, out)


# ----------------------------------------------------------------------
# bigrading against a foliated chart with a connection
# (``coupling.Connection`` holds gamma and builds the adapted frames)
# ----------------------------------------------------------------------


def bigrade_decompose(
    t: _Tensor, conn: "Connection"
) -> Dict[Tuple[int, int], _Tensor]:
    """Split a tensor into its (p, q) parts (p base legs, q fiber legs).

    The legs are counted in the connection's adapted frames (see
    ``Connection``).  The parts are returned in coordinate components; they
    sum to ``t``.
    """
    if t.chart != conn.chart:
        raise ValueError("charts differ")
    fol = conn.fol
    k = t.degree
    out: Dict[Tuple[int, int], _Tensor] = {}
    if k == 0:
        if not t.is_zero():
            out[(0, 0)] = t
        return out
    is_form = isinstance(t, DifferentialForm)
    for p in range(0, k + 1):
        q = k - p
        if p > fol.b or q > fol.f:
            continue
        terms = []
        for bi in itertools.combinations(range(fol.b), p):
            for fj in itertools.combinations(range(fol.f), q):
                if is_form:
                    args = [conn.lift(i) for i in bi] + [conn.vertical(j) for j in fj]
                    basis_factors = [conn.dx(i) for i in bi] + [conn.eta(j) for j in fj]
                else:
                    args = [conn.dx(i) for i in bi] + [conn.eta(j) for j in fj]
                    basis_factors = [conn.lift(i) for i in bi] + [conn.vertical(j) for j in fj]
                coeff = t.evaluate(*args)
                if coeff.is_zero():
                    continue
                basis = type(t).from_scalar(conn.chart, 1)
                for fct in basis_factors:
                    basis = basis.wedge(fct)
                terms.append(basis.scale(coeff))
        part = type(t).sum_of(conn.chart, k, terms)
        if not part.is_zero():
            out[(p, q)] = part
    return out


def is_horizontal_form(t: DifferentialForm, conn: "Connection") -> bool:
    """True when every leg is a base-coordinate leg (no dy components)."""
    fiber = set(conn.fol.fiber)
    return all(not (set(idx) & fiber) for idx in t.comps)


def is_vertical_multivector(t: MultivectorField, conn: "Connection") -> bool:
    base = set(conn.fol.base)
    return all(not (set(idx) & base) for idx in t.comps)


def d10_horizontal(beta: DifferentialForm, conn: "Connection") -> DifferentialForm:
    """Covariant horizontal differential of a base-leg form.

    Defined by evaluating d(beta) on tuples of lifted frame fields; the result
    again has only base legs.
    """
    if not is_horizontal_form(beta, conn):
        raise ValueError("form must have only base-coordinate legs")
    dbeta = exterior_derivative(beta)
    k1 = beta.degree + 1
    terms = []
    for bi in itertools.combinations(range(conn.fol.b), k1):
        coeff = dbeta.evaluate(*[conn.lift(i) for i in bi])
        if coeff.is_zero():
            continue
        basis = DifferentialForm.from_scalar(conn.chart, 1)
        for i in bi:
            basis = basis.wedge(conn.dx(i))
        terms.append(basis.scale(coeff))
    return DifferentialForm.sum_of(conn.chart, k1, terms)
