"""End-to-end averaging of coupling structures under a circle or torus action.

Given geometric data (connection, horizontal 2-form, vertical bivector) and a
compatible action, the pipeline computes the homotopy 1-forms Theta and Q,
gauges the data to its invariant average, and verifies every identity it
relies on by two independent routes wherever the construction provides one.
All identities are coefficient-exact; pointwise span checks use exact
rational sample points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .actions import Action, CircleAction, TorusAction, lie_vv1
from .coupling import (
    CouplingPoisson,
    Foliation,
    GeometricData,
    base_two_form,
    d10_scalar,
    q_gauge,
)
from .derivation import Derivation
from .dirac import gauge_transform, same_span_at
from .reports import CheckResult, failed, passed
from .rings import Poly, RationalFn
from .sampling import Point, PointwiseRun, VerificationError, format_point, sweep, verdict
from .tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    bigrade_decompose,
    d10_horizontal,
    d_scalar,
    exterior_derivative,
    lie_derivative,
    sharp_bivector,
    sharp_matrix,
)

MODES = ("compatible", "locally-hamiltonian", "hamiltonian")


def _verify_at(
    points: List[Point], probe: Callable[[Point], bool], check: str, what: str
) -> PointwiseRun:
    """Sweep an identity at points; a check the sweep rule fails raises for `check`."""
    run, first_fail = sweep(points, probe)
    failure = None if first_fail is None else failed(
        check, witness=f"{what} at {format_point(first_fail)}")
    result = verdict(check, run, failure, {})
    if not result.passed:
        raise VerificationError(check, result.witness)
    return run


@dataclass
class CompatibilityCertificate:
    """A verified link between an action and a (bi)vector via 1-forms mu.

    mode "compatible": a_M = Pi# mu_a for the full bivector.
    mode "locally-hamiltonian": a_M = P# mu_a with every mu_a closed.
    mode "hamiltonian": mu_a = d(J_a) for supplied scalars J_a.
    """

    action: Action
    bivector: MultivectorField
    mu: List[DifferentialForm]
    mode: str
    j: Optional[List[RationalFn]] = None
    verified: bool = False
    failures: List[CheckResult] = field(default_factory=list)

    @property
    def circles(self) -> Tuple[CircleAction, ...]:
        if isinstance(self.action, TorusAction):
            return self.action.circles
        return (self.action,)


def check_compatibility(
    action: Action,
    bivector: MultivectorField,
    mu: Optional[Sequence[DifferentialForm]] = None,
    mode: str = "locally-hamiltonian",
    j: Optional[Sequence[RationalFn]] = None,
) -> CompatibilityCertificate:
    """Verify, exactly, that the action is generated through the bivector."""
    if mode not in MODES:
        raise ValueError(f"unknown compatibility mode {mode!r}")
    circles = action.circles if isinstance(action, TorusAction) else (action,)
    chart = bivector.chart
    if mode == "hamiltonian":
        if j is None or len(j) != len(circles):
            raise ValueError("hamiltonian mode needs one scalar J per generator")
        mu_list = [d_scalar(RationalFn.of(f), chart) for f in j]
        j_list: Optional[List[RationalFn]] = [RationalFn.of(f) for f in j]
    else:
        if mu is None or len(mu) != len(circles):
            raise ValueError("need one 1-form mu per generator")
        mu_list = list(mu)
        j_list = None
    failures: List[CheckResult] = []
    for k, circ in enumerate(circles):
        gen = circ.generator()
        img = sharp_bivector(bivector, mu_list[k])
        if img != gen:
            failures.append(
                failed(
                    "compat-generator",
                    witness={"generator": k, "expected": repr(gen.comps), "got": repr(img.comps)},
                )
            )
        if mode in ("locally-hamiltonian", "hamiltonian"):
            dmu = exterior_derivative(mu_list[k])
            if not dmu.is_zero():
                failures.append(
                    failed("compat-closed", witness={"generator": k, "d_mu": repr(dmu.comps)})
                )
    return CompatibilityCertificate(
        action=action,
        bivector=bivector,
        mu=mu_list,
        mode=mode,
        j=j_list,
        verified=not failures,
        failures=failures,
    )


def gauge_poisson(
    pi: MultivectorField,
    b: DifferentialForm,
    points: Optional[List[Point]] = None,
    derivation: Optional[Derivation] = None,
) -> MultivectorField:
    """The gauge image of Pi under a closed 2-form b.

    Realizes sharp(new) = sharp(Pi) o (Id + sharp(b) o sharp(Pi))^{-1} by
    exact matrix inversion.  The output is antisymmetric and Poisson; both
    are verified.  With sample points given, the inverted matrix is checked
    to be nonsingular at each usable point.  A failed identity raises
    ``VerificationError`` for GT1.  The gauge matrix, its determinant and
    inverse, and the image's Jacobiator are kept in the derivation.
    """
    if pi.degree != 2 or b.degree != 2 or pi.chart != b.chart:
        raise ValueError("expects a bivector and a 2-form on one chart")
    if not exterior_derivative(b).is_zero():
        raise ValueError("gauge 2-form must be closed")
    d = derivation or Derivation()
    chart = pi.chart
    n = chart.dim
    sp = sharp_matrix(pi)
    if points is not None:
        det_m = d.gauge_matrix(pi, b)[1]

        def probe(p: Point) -> bool:
            # the integer pairs of the determinant, as in the coupling probe
            if det_m.den.vanishes_at(p):
                raise ZeroDivisionError("denominator vanishes at sample point")
            return not det_m.num.vanishes_at(p)

        _verify_at(points, probe, "GT1", "gauge matrix singular")
    try:
        inv = d.gauge_inverse(pi, b)
    except ArithmeticError as exc:
        raise ValueError("gauge matrix is identically singular") from exc
    new_sharp = linalg.mat_mul(sp, inv)
    comps: Dict[Tuple[int, int], RationalFn] = {}
    for i in range(n):
        for j in range(i + 1, n):
            val = new_sharp[j][i]
            mirrored = -new_sharp[i][j]
            if val != mirrored:
                raise VerificationError("GT1", "gauge image is not antisymmetric")
            if not val.is_zero():
                comps[(i, j)] = val
    out = MultivectorField(chart, 2, comps)
    jac = d.jacobiator(out)
    if not jac.is_zero():
        raise VerificationError(
            "GT1", f"gauge image violates the Jacobi identity: {jac.comps!r}"
        )
    return out


@dataclass
class AveragingResult:
    """Everything produced by averaging one set of geometric data."""

    theta: DifferentialForm
    q: DifferentialForm
    data: GeometricData
    poisson: Optional[CouplingPoisson]
    certificate: CompatibilityCertificate
    source: GeometricData
    logs: List[str] = field(default_factory=list)


def _assert_invariant(result: AveragingResult) -> None:
    gd = result.data
    proj = gd.conn.projector()
    for circ in result.certificate.circles:
        gen = circ.generator()
        lg = lie_vv1(gen, proj)
        if any(not x.is_zero() for row in lg.matrix for x in row):
            raise VerificationError("OB3", "averaged connection is not invariant")
        if not lie_derivative(gen, gd.sigma).is_zero():
            raise VerificationError("OB1", "averaged 2-form is not invariant")
        if not lie_derivative(gen, gd.p).is_zero():
            raise VerificationError("OB3", "vertical bivector is not invariant")


def _average_once(
    gd: GeometricData,
    circ: CircleAction,
    mu: DifferentialForm,
    logs: List[str],
    derivation: Derivation,
) -> Tuple[GeometricData, DifferentialForm, DifferentialForm]:
    """One circle-averaging step: returns (new data, Q, Theta)."""
    fol = gd.conn.fol
    parts = bigrade_decompose(mu, gd.conn)
    mu10 = parts.get((1, 0), DifferentialForm.zero(gd.conn.chart, 1))
    mu01 = parts.get((0, 1), DifferentialForm.zero(gd.conn.chart, 1))
    q = -circ.delta_g(mu10)
    theta = circ.delta_g(mu01)
    # closed mu makes both exterior derivatives agree
    if exterior_derivative(theta) != exterior_derivative(q):
        raise VerificationError("OB1", "d(Theta) differs from d(Q) for closed mu")
    new_gd = q_gauge(gd, q, derivation)

    # the connection must also be the plain average of the old one
    avg_proj = circ.average(gd.conn.projector())
    if avg_proj != new_gd.conn.projector():
        raise VerificationError(
            "OB3", "averaged-connection routes disagree: gauge shift vs direct average"
        )
    logs.append("connection average equals gauge shift (dual route)")

    # the 2-form must match its independent averaged expression:
    # <sigma> + (1/2)<{Q ^ Q}_P> - d10(<Q>) against the new connection
    lifts = [gd.conn.lift(i) for i in range(fol.b)]
    qi = [q.evaluate(lifts[i]) for i in range(fol.b)]
    qq = base_two_form(fol, lambda i, j: gd.p_bracket(qi[i], qi[j]))
    avg_sigma = circ.average(gd.sigma)
    avg_qq = circ.average(qq)
    avg_q = circ.average(q)
    d10_avg_q = d10_horizontal(avg_q, new_gd.conn)
    indep = avg_sigma + avg_qq - d10_avg_q
    if indep != new_gd.sigma:
        raise VerificationError(
            "OB1",
            "averaged-2-form routes disagree: "
            f"gauge formula {new_gd.sigma.comps!r} vs direct average {indep.comps!r}"
        )
    logs.append("2-form average equals gauge formula (dual route)")

    # vertical part of the gauge form vanishes for closed mu
    b = -exterior_derivative(theta)
    b02 = bigrade_decompose(b, gd.conn).get((0, 2))
    if b02 is not None and not b02.is_zero():
        raise VerificationError("OB1", "vertical gauge block is nonzero for closed mu")
    logs.append("vertical gauge block vanishes")
    return new_gd, q, theta


def average_coupling(
    gd: GeometricData,
    cert: CompatibilityCertificate,
    points: Optional[List[Point]] = None,
    derivation: Optional[Derivation] = None,
) -> AveragingResult:
    """Average the data to an invariant configuration (gauge by Q).

    Runs one homotopy step per circle.  Every derived identity is verified:
    the new connection equals the direct average of the old one, the new
    2-form matches its independent averaged expression, the structure
    equations still hold, the result is invariant, and (with sample points)
    the Dirac frame of the output spans the gauge transform of the input
    frame.  A failed identity raises ``VerificationError`` for its check.
    The structure results, bivector and frames it derives are kept in the
    derivation.
    """
    gd.require_verified("average_coupling")
    d = derivation or Derivation()
    if not cert.verified:
        raise ValueError("certificate is not verified")
    if cert.mode not in ("locally-hamiltonian", "hamiltonian"):
        raise ValueError("averaging needs a closed-mu certificate")
    if cert.bivector != gd.p:
        raise ValueError("certificate bivector differs from the data's vertical part")
    logs: List[str] = []
    cur = gd
    chart = gd.conn.chart
    qs: List[DifferentialForm] = []
    thetas: List[DifferentialForm] = []
    for circ, mu in zip(cert.circles, cert.mu):
        cur, q_c, theta_c = _average_once(cur, circ, mu, logs, d)
        qs.append(q_c)
        thetas.append(theta_c)
    q_total = DifferentialForm.sum_of(chart, 1, qs)
    theta_total = DifferentialForm.sum_of(chart, 1, thetas)

    poisson: Optional[CouplingPoisson]
    try:
        poisson = d.coupling(cur)
    except ValueError:
        poisson = None
        logs.append("averaged 2-form singular on lifts; no Poisson bivector")

    result = AveragingResult(
        theta=theta_total,
        q=q_total,
        data=cur,
        poisson=poisson,
        certificate=cert,
        source=gd,
    )
    _assert_invariant(result)
    logs.append("averaged data invariant under every generator")

    if points is not None:
        before = d.dirac(gd)
        after = d.dirac(cur)
        gauged = gauge_transform(before, -exterior_derivative(q_total))

        def probe(p: Point) -> bool:
            return same_span_at(after, gauged, p)

        run = _verify_at(
            points, probe, "GT1", "averaged frame does not span the gauge transform"
        )
        logs.append(f"frame gauge identity verified at {run.usable} points")
    result.logs = logs
    return result


def tr4_check(
    pi: MultivectorField,
    pi_bar: MultivectorField,
    theta: DifferentialForm,
    fol: Foliation,
    derivation: Optional[Derivation] = None,
) -> List[CheckResult]:
    """Blockwise consistency of a gauge pair: vertical and horizontal laws.

    With B = -d(Theta): the vertical block of the new bivector must equal
    the old vertical block conjugated through (Id - B02# P#)^{-1}, and the
    horizontal part must be the projected image of the old horizontal part
    under the full gauge inverse.  Each side reads the coupling data of its
    own bivector: the data it was built from, or ``poisson_to_data`` for one
    that was not built from data.  The gauge inverse is the derivation's.
    """
    d = derivation or Derivation()
    results: List[CheckResult] = []
    gd, pi20 = d.data(pi, fol)
    gd_bar, pi20_bar = d.data(pi_bar, fol)
    n = fol.chart.dim
    # b = -B
    b = d.gauge_form(theta)

    # vertical law on the fiber block: Id - B02# P# = Id + b02# P#
    f = fol.f
    p_block = [
        [gd.p.component((fol.fiber[i], fol.fiber[j])) for i in range(f)]
        for j in range(f)
    ]
    b02 = [
        [b.component((fol.fiber[i], fol.fiber[j])) for i in range(f)]
        for j in range(f)
    ]
    pbar_block = [
        [gd_bar.p.component((fol.fiber[i], fol.fiber[j])) for i in range(f)]
        for j in range(f)
    ]
    m = linalg.mat_add(linalg.identity(f), linalg.mat_mul(b02, p_block))
    try:
        rhs = linalg.mat_mul(p_block, linalg.inverse(m))
        ok = all(
            (rhs[i][j] - pbar_block[i][j]).is_zero()
            for i in range(f)
            for j in range(f)
        )
        if ok:
            results.append(passed("TR4"))
        else:
            results.append(
                failed(
                    "TR4",
                    witness={
                        "got": [[repr(x) for x in row] for row in pbar_block],
                        "expected": [[repr(x) for x in row] for row in rhs],
                    },
                )
            )
    except ArithmeticError:
        results.append(failed("TR4", witness={"error": "vertical gauge block singular"}))

    # horizontal law on the full matrices, through the gauge matrix
    # Id - B# Pi# = Id + b# Pi#
    try:
        inv = d.gauge_inverse(pi, b)
        sp20 = sharp_matrix(pi20)
        proj_bar = gd_bar.conn.projector()
        horiz = linalg.mat_add(
            linalg.identity(n),
            linalg.mat_scale(proj_bar.matrix, RationalFn.const(-1)),
        )
        lhs = sharp_matrix(pi20_bar)
        rhs2 = linalg.mat_mul(horiz, linalg.mat_mul(sp20, inv))
        ok2 = all(
            (lhs[i][j] - rhs2[i][j]).is_zero()
            for i in range(n)
            for j in range(n)
        )
        if ok2:
            results.append(passed("AL"))
        else:
            results.append(
                failed(
                    "AL",
                    witness={
                        "got": [[repr(x) for x in row] for row in lhs],
                        "expected": [[repr(x) for x in row] for row in rhs2],
                    },
                )
            )
    except ArithmeticError:
        results.append(failed("AL", witness={"error": "gauge matrix singular"}))
    return results


@dataclass
class AdiabaticReport:
    """Outcome of the invariant-Hamiltonian obstruction computation."""

    is_hamiltonian: bool
    zeta: List[DifferentialForm]  # one base 1-form per generator
    dzeta_zero: bool
    fiberwise_symplectic: bool
    exact: Optional[bool]  # None when P is degenerate on fibers
    potentials: List[Optional[RationalFn]]
    notes: List[str] = field(default_factory=list)


def adiabatic_check(result: AveragingResult, j: Sequence[RationalFn]) -> AdiabaticReport:
    """Obstruction to making the action Hamiltonian after averaging.

    Computes, per generator, the average of the horizontal differential of
    J; its lift coefficients must be Casimirs of P (checked).  The action is
    Hamiltonian for the averaged structure iff that 1-form vanishes.  When P
    is symplectic on fibers the coefficients must be base functions and
    exactness of the base form is decided by a radial potential; otherwise
    only closedness (evaluated on lift pairs) is reported.  A failed
    internal check raises ``VerificationError`` for AD2.
    """
    cert = result.certificate
    if cert.mode != "hamiltonian":
        raise ValueError("adiabatic check needs a hamiltonian-mode certificate")
    src = result.source
    conn = src.conn
    fol = conn.fol
    chart = conn.chart
    js = [RationalFn.of(f) for f in j]
    if len(js) != len(cert.circles):
        raise ValueError("need one J per generator")
    notes: List[str] = []

    fiber_names = [chart.coords[k] for k in fol.fiber]
    p_block = [
        [src.p.component((fol.fiber[a], fol.fiber[b])) for a in range(fol.f)]
        for b in range(fol.f)
    ]
    fiber_symp = not linalg.det(p_block).is_zero() if fol.f > 0 else False

    zetas: List[DifferentialForm] = []
    potentials: List[Optional[RationalFn]] = []
    all_zero = True
    dz_zero = True
    exact: Optional[bool] = True if fiber_symp else None
    for circ, jf in zip(cert.circles, js):
        nu = d10_scalar(conn, jf)
        for c in cert.circles:
            nu = c.average(nu)
        # Casimir property of the lift coefficients
        coeffs: List[RationalFn] = []
        for i in range(fol.b):
            ci = nu.evaluate(conn.lift(i))
            coeffs.append(ci)
            if not sharp_bivector(src.p, d_scalar(ci, chart)).is_zero():
                raise VerificationError(
                    "AD2", "lift coefficient of the averaged differential is not a Casimir"
                )
        zeta = nu  # horizontal with Casimir coefficients
        zetas.append(zeta)
        if not zeta.is_zero():
            all_zero = False
        # closedness on lift pairs
        dnu = exterior_derivative(nu)
        for a in range(fol.b):
            for b in range(a + 1, fol.b):
                if not dnu.evaluate(conn.lift(a), conn.lift(b)).is_zero():
                    dz_zero = False
        if fiber_symp:
            for c in coeffs:
                if not c.is_poly() or _mentions(c, fiber_names):
                    raise VerificationError(
                        "AD2",
                        "fiberwise-symplectic P forces base coefficients; "
                        "found fiber dependence"
                    )
            pot = _radial_potential(chart, fol, coeffs)
            if pot is None:
                exact = False
            potentials.append(pot)
        else:
            potentials.append(None)
    if not fiber_symp:
        notes.append("vertical bivector degenerate on fibers; exactness not decided")
    return AdiabaticReport(
        is_hamiltonian=all_zero,
        zeta=zetas,
        dzeta_zero=dz_zero,
        fiberwise_symplectic=fiber_symp,
        exact=exact,
        potentials=potentials,
        notes=notes,
    )


def _mentions(f: RationalFn, names: Sequence[str]) -> bool:
    """Does the function use any of the named variables?"""
    for poly in (f.num, f.den):
        for pos, v in enumerate(poly.vars):
            if v in names and any(e[pos] > 0 for e in poly.terms):
                return True
    return False


def _radial_potential(
    chart: Chart, fol: Foliation, coeffs: List[RationalFn]
) -> Optional[RationalFn]:
    """Potential of a polynomial base 1-form on a star-shaped box, if exact.

    Integrates along straight rays from the origin:
    k = sum_i int_0^1 c_i(t x) x_i dt, termwise on monomials; the candidate
    is then verified by differentiation.
    """
    base_names = [chart.coords[i] for i in fol.base]
    total = Poly.zero()
    for i, c in enumerate(coeffs):
        if c.is_zero():
            continue
        if not c.is_poly():
            return None
        p = c.as_poly()
        xi = Poly.var(base_names[i])
        for exps, coeff in p.terms.items():
            deg = sum(
                e for v, e in zip(p.vars, exps) if v in base_names
            )
            mono = Poly(p.vars, {exps: coeff}) * xi
            total = total + mono.scale(Fraction(1, deg + 1))
    cand = RationalFn.from_poly(total)
    for i, c in enumerate(coeffs):
        if (cand.diff(base_names[i]) - c).is_zero():
            continue
        return None
    return cand
