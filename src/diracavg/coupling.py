"""Fibered charts with connections and the coupling correspondence.

A foliation here is a coordinate fibration: base coordinates x_i label the
leaf space, fiber coordinates y_j the leaves.  A connection is a matrix of
lift coefficients; together with a horizontal 2-form sigma and a vertical
bivector P it forms the geometric data of a coupling structure.  The module
checks the three structure equations, converts data to the associated Poisson
bivector and Dirac frame and back, tests Hamiltonian sections, and applies
the gauge transformation attached to a horizontal 1-form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .dirac import DiracFrame, DiracSection
from .reports import CheckResult, failed, passed
from .rings import RationalFn
from .sampling import VerificationError
from .tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    VectorValued1Form,
    VectorValued2Form,
    d_scalar,
    exterior_derivative,
    interior_product,
    is_horizontal_form,
    is_vertical_multivector,
    lie_derivative_multivector,
    nijenhuis_torsion,
    one_form,
    schouten_bracket,
    sharp_bivector,
    vector_field,
    vf_bracket,
)

if TYPE_CHECKING:
    from .derivation import Derivation


@dataclass(frozen=True)
class Foliation:
    """A coordinate fibration: leaves are the level sets of the base block."""

    chart: Chart
    base: Tuple[int, ...]
    fiber: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.base) < 1 or len(self.fiber) < 1:
            raise ValueError("need at least one base and one fiber coordinate")
        if sorted(self.base + self.fiber) != list(range(self.chart.dim)):
            raise ValueError("base and fiber must partition the chart")

    @property
    def b(self) -> int:
        return len(self.base)

    @property
    def f(self) -> int:
        return len(self.fiber)


class Connection:
    """Lift coefficients over a foliation and the adapted frames they define.

    ``gamma[j][i]`` is the fiber-j component of the lift of the i-th base
    coordinate field, so the lifted frame is

        h_i = d_{base[i]} + sum_j gamma[j][i] d_{fiber[j]}.

    A (p, q) tensor has p base-type legs and q fiber-type legs in the frame
    (dx_i, eta_j = dy_j - sum_i gamma[j][i] dx_i) and dually (h_i, d_{y_j}).
    """

    def __init__(self, fol: Foliation, gamma: Sequence[Sequence[object]]):
        self.fol = fol
        if len(gamma) != fol.f or any(len(r) != fol.b for r in gamma):
            raise ValueError("gamma must be a fiber x base matrix")
        self.gamma: List[List[RationalFn]] = [
            [RationalFn.of(x) for x in row] for row in gamma
        ]
        if not self.projector().is_projection():
            raise AssertionError("vertical projector fails gamma o gamma = gamma")

    @property
    def chart(self) -> Chart:
        return self.fol.chart

    def lift(self, i: int) -> MultivectorField:
        comps: Dict[int, RationalFn] = {self.fol.base[i]: RationalFn.const(1)}
        for j in range(self.fol.f):
            g = self.gamma[j][i]
            if not g.is_zero():
                comps[self.fol.fiber[j]] = g
        return vector_field(self.chart, comps)

    def vertical(self, j: int) -> MultivectorField:
        return vector_field(self.chart, {self.fol.fiber[j]: RationalFn.const(1)})

    def dx(self, i: int) -> DifferentialForm:
        return one_form(self.chart, {self.fol.base[i]: RationalFn.const(1)})

    def eta(self, j: int) -> DifferentialForm:
        comps: Dict[int, RationalFn] = {self.fol.fiber[j]: RationalFn.const(1)}
        for i in range(self.fol.b):
            g = self.gamma[j][i]
            if not g.is_zero():
                comps[self.fol.base[i]] = -g
        return one_form(self.chart, comps)

    def projector(self) -> VectorValued1Form:
        """The projection onto the fiber directions along the lifted frame."""
        n = self.chart.dim
        m = [[RationalFn.zero() for _ in range(n)] for _ in range(n)]
        for j, fj in enumerate(self.fol.fiber):
            m[fj][fj] = RationalFn.const(1)
            for i, bi in enumerate(self.fol.base):
                g = self.gamma[j][i]
                if not g.is_zero():
                    m[fj][bi] = -g
        return VectorValued1Form(self.chart, m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Connection):
            return NotImplemented
        return self.fol == other.fol and all(
            a == b
            for ra, rb in zip(self.gamma, other.gamma)
            for a, b in zip(ra, rb)
        )

    def __hash__(self) -> int:
        return hash((self.fol, tuple(tuple(r) for r in self.gamma)))


@dataclass
class Curvature:
    """Curvature of a connection, with lift-pair values precomputed."""

    conn: Connection
    vv2: VectorValued2Form
    on_lifts: Dict[Tuple[int, int], MultivectorField]


def curvature(conn: Connection) -> Curvature:
    """Curvature via the vector-valued bracket, cross-checked on lifts.

    Computes the Nijenhuis torsion of the vertical projector, half its
    bracket with itself, and asserts, pair by pair, that evaluating it on lifted frame fields agrees
    with projecting their Lie bracket; also that vertical insertions vanish.
    A disagreement means the bracket conventions drifted and raises.
    """
    fol = conn.fol
    proj = conn.projector()
    vv2 = nijenhuis_torsion(proj)
    lifts = [conn.lift(i) for i in range(fol.b)]
    verts = [conn.vertical(j) for j in range(fol.f)]
    on_lifts: Dict[Tuple[int, int], MultivectorField] = {}
    for i in range(fol.b):
        for j in range(i + 1, fol.b):
            via_bracket = vv2.evaluate(lifts[i], lifts[j])
            via_lift = proj.apply(vf_bracket(lifts[i], lifts[j]))
            if via_bracket != via_lift:
                raise VerificationError(
                    "SE3", f"curvature routes disagree on lift pair ({i}, {j})"
                )
            on_lifts[(i, j)] = via_lift
    for v in verts:
        for w in lifts + verts:
            if not vv2.evaluate(v, w).is_zero():
                raise VerificationError("SE3", "curvature does not kill vertical insertions")
    return Curvature(conn, vv2, on_lifts)


@dataclass
class GeometricData:
    """A connection with a horizontal 2-form and a vertical bivector."""

    conn: Connection
    sigma: DifferentialForm
    p: MultivectorField
    integrable: str = "unchecked"  # "unchecked" | "verified" | "failed"
    witness: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.sigma.degree != 2 or self.sigma.chart != self.conn.chart:
            raise ValueError("sigma must be a 2-form on the connection chart")
        if self.p.degree != 2 or self.p.chart != self.conn.chart:
            raise ValueError("p must be a bivector on the connection chart")
        if not is_horizontal_form(self.sigma, self.conn):
            raise ValueError("sigma must have only base-coordinate legs")
        if not is_vertical_multivector(self.p, self.conn):
            raise ValueError("p must have only fiber-coordinate legs")

    def require_verified(self, op: str) -> None:
        if self.integrable != "verified":
            raise ValueError(
                f"{op} needs structure-checked data; run structure_eq_check first "
                f"(current flag: {self.integrable})"
            )

    def p_bracket(self, fa: RationalFn, fb: RationalFn) -> RationalFn:
        """The fiberwise bracket {f, g} = P(df, dg)."""
        chart = self.conn.chart
        return self.p.evaluate(d_scalar(fa, chart), d_scalar(fb, chart))


def d10_scalar(conn: Connection, f: RationalFn) -> DifferentialForm:
    """Covariant horizontal differential of a function: sum h_i(f) dx_i."""
    fol = conn.fol
    comps: Dict[int, RationalFn] = {}
    for i in range(fol.b):
        hi = conn.lift(i)
        v = RationalFn.zero()
        for (k,), c in hi.comps.items():
            dfk = f.diff(conn.chart.coords[k])
            if not dfk.is_zero():
                v = v + c * dfk
        if not v.is_zero():
            comps[fol.base[i]] = v
    return DifferentialForm(conn.chart, 1, {(i,): c for i, c in comps.items()})


def structure_eq_check(gd: GeometricData) -> Tuple[GeometricData, List[CheckResult]]:
    """Check SE1 (flat vertical part), SE2 (closed sigma), SE3 (curvature).

    SE1: the lifted frame fields preserve P.
    SE2: the horizontal differential of sigma vanishes on lift triples.
    SE3: the curvature on a lift pair equals -P# d(sigma(h_i, h_j)).
    Returns the data with its integrability flag updated plus per-equation
    results; failures carry a witness, nothing is thrown.
    """
    conn = gd.conn
    fol = conn.fol
    results: List[CheckResult] = []
    witness: Optional[Dict[str, object]] = None

    # SE1: lifts generate the projectable horizontal sections
    se1_bad = None
    for i in range(fol.b):
        lv = lie_derivative_multivector(conn.lift(i), gd.p)
        if not lv.is_zero():
            se1_bad = {"lift": i, "residual": repr(lv.comps)}
            break
    if se1_bad is None:
        results.append(passed("SE1"))
    else:
        results.append(failed("SE1", witness=se1_bad))
        witness = witness or {"SE1": se1_bad}

    # SE2: d sigma evaluated on lift triples
    dsigma = exterior_derivative(gd.sigma)
    se2_bad = None
    lifts = [conn.lift(i) for i in range(fol.b)]
    for tri in itertools.combinations(range(fol.b), 3):
        v = dsigma.evaluate(*[lifts[i] for i in tri])
        if not v.is_zero():
            se2_bad = {"triple": list(tri), "residual": repr(v)}
            break
    if se2_bad is None:
        results.append(passed("SE2"))
    else:
        results.append(failed("SE2", witness=se2_bad))
        witness = witness or {"SE2": se2_bad}

    # SE3: curvature against the fiberwise Hamiltonian field of sigma(h_i, h_j)
    se3_bad = None
    try:
        cur = curvature(conn)
    except ArithmeticError as exc:  # pragma: no cover - internal guard
        se3_bad = {"error": str(exc)}
        cur = None
    if cur is not None:
        for i in range(fol.b):
            for j in range(i + 1, fol.b):
                sij = gd.sigma.evaluate(lifts[i], lifts[j])
                rhs = -sharp_bivector(gd.p, d_scalar(sij, conn.chart))
                lhs = cur.on_lifts.get((i, j), MultivectorField.zero(conn.chart, 1))
                if lhs != rhs:
                    se3_bad = {
                        "pair": [i, j],
                        "curvature": repr(lhs.comps),
                        "expected": repr(rhs.comps),
                    }
                    break
            if se3_bad is not None:
                break
    if se3_bad is None:
        results.append(passed("SE3"))
    else:
        results.append(failed("SE3", witness=se3_bad))
        witness = witness or {"SE3": se3_bad}

    ok = all(r.passed for r in results)
    out = replace(gd, integrable="verified" if ok else "failed", witness=witness)
    return out, results


@dataclass
class CouplingPoisson:
    """The bivector of a coupling structure, split by bidegree."""

    conn: Connection
    pi20: MultivectorField
    pi02: MultivectorField

    @cached_property
    def pi(self) -> MultivectorField:
        # one object per structure, so a derivation can key on it
        return self.pi20 + self.pi02


def sigma_on_lifts(gd: GeometricData) -> List[List[RationalFn]]:
    fol = gd.conn.fol
    lifts = [gd.conn.lift(i) for i in range(fol.b)]
    return [
        [gd.sigma.evaluate(lifts[i], lifts[j]) for j in range(fol.b)]
        for i in range(fol.b)
    ]


def data_to_poisson(gd: GeometricData) -> CouplingPoisson:
    """Build the Poisson bivector whose horizontal block inverts -sigma.

    With S the matrix of sigma on lifts and W = -S^{-1}, the horizontal part
    is sum_{i<j} W[i][j] h_i ^ h_j and the vertical part is P.  The output is
    verified to be Poisson coefficient-exactly.
    """
    gd.require_verified("data_to_poisson")
    conn = gd.conn
    fol = conn.fol
    s = sigma_on_lifts(gd)
    try:
        w = linalg.inverse(s)
    except ArithmeticError as exc:
        raise ValueError(
            "sigma is singular on the horizontal frame; not a coupling candidate"
        ) from exc
    w = [[-x for x in row] for row in w]
    cp = CouplingPoisson(conn, _lift_bivector(conn, lambda i, j: w[i][j]), gd.p)
    pi = cp.pi
    jac = schouten_bracket(pi, pi)
    if not jac.is_zero():
        raise VerificationError(
            "JAC", f"constructed bivector violates the Jacobi identity: {jac.comps!r}"
        )
    return cp


def poisson_to_data(
    pi: MultivectorField, fol: Foliation, jacobiator: Optional[MultivectorField] = None
) -> GeometricData:
    """Extract (connection, sigma, P) from a coupling Poisson bivector.

    The horizontal distribution is the image of the base coframe under Pi#;
    writing those fields in the lifted frame yields the connection, the
    inverse of their base block gives sigma, and the vertical remainder is P.
    Round-trips with data_to_poisson coefficient-exactly.  ``jacobiator``,
    when given, is [[Pi, Pi]] already computed.
    """
    if pi.degree != 2 or pi.chart != fol.chart:
        raise ValueError("expects a bivector on the foliation chart")
    jac = schouten_bracket(pi, pi) if jacobiator is None else jacobiator
    if not jac.is_zero():
        raise ValueError(f"bivector is not Poisson: [[Pi,Pi]] = {jac.comps!r}")
    b, f = fol.b, fol.f
    images = []
    for i in range(b):
        dx = one_form(fol.chart, {fol.base[i]: RationalFn.const(1)})
        images.append(sharp_bivector(pi, dx))
    a = [
        [images[i].comps.get((fol.base[l],), RationalFn.zero()) for i in range(b)]
        for l in range(b)
    ]
    bm = [
        [images[i].comps.get((fol.fiber[j],), RationalFn.zero()) for i in range(b)]
        for j in range(f)
    ]
    try:
        a_inv = linalg.inverse(a)
    except ArithmeticError as exc:
        raise ValueError(
            "coupling condition fails: the horizontal image degenerates "
            "against the vertical distribution"
        ) from exc
    gamma = linalg.mat_mul(bm, a_inv)
    conn = Connection(fol, gamma)

    # sigma from the inverse of the base block: S = -(A^T)^{-1}
    sigma = base_two_form(fol, lambda i, j: -a_inv[j][i])
    pi20 = _lift_bivector(conn, lambda i, j: a[j][i])  # W = A^T
    p = pi - pi20
    if not is_vertical_multivector(p, conn):
        raise VerificationError("coupling", "mixed-degree remainder; adapted splitting failed")

    gd = GeometricData(conn, sigma, p)
    gd, results = structure_eq_check(gd)
    if gd.integrable != "verified":
        bad = [r.check for r in results if not r.passed]
        raise VerificationError(
            bad[0],
            f"structure equations fail on extracted data ({', '.join(bad)}); "
            "this contradicts the Jacobi identity and signals a convention bug"
        )
    return gd


def base_two_form(fol: Foliation, coeff: Callable[[int, int], RationalFn]) -> DifferentialForm:
    """sum_{i<j} coeff(i, j) dx_i ^ dx_j over the base coordinates."""
    pairs = itertools.combinations(range(fol.b), 2)
    return DifferentialForm.sum_of(fol.chart, 2, (
        DifferentialForm.basis(fol.chart, (fol.base[i], fol.base[j])).scale(coeff(i, j))
        for i, j in pairs))


def _lift_bivector(conn: Connection, coeff: Callable[[int, int], RationalFn]) -> MultivectorField:
    """sum_{i<j} coeff(i, j) h_i ^ h_j over the lifted frame."""
    lifts = [conn.lift(i) for i in range(conn.fol.b)]
    terms = []
    for i, j in itertools.combinations(range(conn.fol.b), 2):
        c = coeff(i, j)
        if not c.is_zero():
            terms.append(lifts[i].wedge(lifts[j]).scale(c))
    return MultivectorField.sum_of(conn.chart, 2, terms)


def data_to_dirac(gd: GeometricData) -> DiracFrame:
    """The Dirac frame {(h_i, -i_{h_i} sigma)} + {(P# eta_j, eta_j)}.

    On the columns {vector base, covector fiber} the lifts hold the identity
    and any covector fiber part, and the eta_j hold their vector base parts
    and the identity.  Where every P# eta_j has zero base components, as a
    vertical P gives, that block is [[I, *], [0, I]], of determinant 1, so
    the frame has rank n wherever its rows are finite and is built with no
    poles (Courant, *Dirac manifolds*, 1990).  Otherwise its rank is left to
    elimination.
    """
    gd.require_verified("data_to_dirac")
    conn = gd.conn
    fol = conn.fol
    sections: List[DiracSection] = []
    for i in range(fol.b):
        hi = conn.lift(i)
        sections.append(DiracSection(hi, -interior_product(hi, gd.sigma)))
    for j in range(fol.f):
        ej = conn.eta(j)
        sections.append(DiracSection(sharp_bivector(gd.p, ej), ej))
    return DiracFrame(sections, poles=() if _unit_block(sections, fol) else None)


def _unit_block(sections: Sequence[DiracSection], fol: Foliation) -> bool:
    """True when the columns {vector base, covector fiber} of the sections
    hold [[I, *], [0, I]], compared symbolically."""
    one, zero = RationalFn.const(1), RationalFn.zero()

    def unit(form: MultivectorField | DifferentialForm, cols: Tuple[int, ...],
             one_at: Optional[int]) -> bool:
        # the form's entries on cols: 1 at place one_at, 0 elsewhere
        return all(form.comps.get((k,), zero) == (one if c == one_at else zero)
                   for c, k in enumerate(cols))

    lifts, etas = sections[:fol.b], sections[fol.b:]
    return (all(unit(s.vector, fol.base, i) for i, s in enumerate(lifts))
            and all(unit(s.vector, fol.base, None) and unit(s.covector, fol.fiber, j)
                    for j, s in enumerate(etas)))


def is_horizontal_one_form(q: DifferentialForm, conn: Connection) -> bool:
    return q.degree == 1 and is_horizontal_form(q, conn)


def q_gauge(
    gd: GeometricData, q: DifferentialForm, derivation: Optional["Derivation"] = None
) -> GeometricData:
    """Gauge the geometric data by a horizontal 1-form Q.

    The connection shifts by the fiberwise Hamiltonian fields of the
    coefficients of Q and sigma by the horizontal differential of Q plus half
    the P-pairing of Q with itself:

        new h_i  = h_i + P# d(Q(h_i))
        new sigma(h_i, h_j) = sigma(h_i, h_j) - dQ(h_i, h_j) - {Q(h_i), Q(h_j)}_P

    The result is re-checked against the structure equations, through the
    derivation when one is given, so its results are kept for later readers.
    """
    gd.require_verified("q_gauge")
    conn = gd.conn
    fol = conn.fol
    if not is_horizontal_one_form(q, conn):
        raise ValueError("gauge 1-form must be horizontal (base legs only)")
    chart = conn.chart
    lifts = [conn.lift(i) for i in range(fol.b)]
    qi = [q.evaluate(lifts[i]) for i in range(fol.b)]

    new_gamma = [list(row) for row in conn.gamma]
    for i in range(fol.b):
        xi = sharp_bivector(gd.p, d_scalar(qi[i], chart))
        for (k,), val in xi.comps.items():
            j = fol.fiber.index(k)
            new_gamma[j][i] = new_gamma[j][i] + val
    new_conn = Connection(conn.fol, new_gamma)

    dq = exterior_derivative(q)
    new_sigma = base_two_form(fol, lambda i, j: (
        gd.sigma.evaluate(lifts[i], lifts[j])
        - dq.evaluate(lifts[i], lifts[j])
        - gd.p_bracket(qi[i], qi[j])
    ))

    out = GeometricData(new_conn, new_sigma, gd.p)
    check = structure_eq_check if derivation is None else derivation.structure
    out, results = check(out)
    if out.integrable != "verified":
        bad = [r.check for r in results if not r.passed]
        raise VerificationError(
            bad[0],
            f"gauged data fails structure equations ({', '.join(bad)}); "
            "gauge transformations must preserve them"
        )
    return out
