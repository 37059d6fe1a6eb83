"""File-driven command line: verify, average, and gauge coupling models.

Commands read a model file (or a bundled fixture by name), run the matching
verification pipeline, and emit a human summary on stdout plus an optional
machine report.  Machine reports are canonical JSON (sorted keys, checks
ordered by identifier then insertion) so identical inputs give identical
bytes.  Exit codes: 0 all checks passed, 1 a check failed (an internal
verification error reports the check it breaks), 2 usage or parse problems.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import sys
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from . import fixtures
from .averaging import (
    AveragingResult,
    adiabatic_check,
    average_coupling,
    check_compatibility,
    gauge_poisson,
    tr4_check,
)
from .derivation import Derivation
from .dirac import (
    gauge_transform,
    graph_of_bivector,
    involutivity_check,
    same_span_at,
    coupling_test,
)
from .linalg import Jets
from .modelspec import (
    ModelSpec,
    SpecError,
    _ratfn_literal,
    _tensor_literal,
    parse_spec,
    serialize_spec,
)
from .moser import (
    FlowConfig,
    NumericEvaluator,
    flow_and_verify,
    homotopy_residuals,
    z_batch,
)
from .reports import CheckResult, failed, passed
from .rings import _zmul, _zpi, dot, equal_products, over_one, qpi
from .sampling import (
    Point,
    PointwiseRun,
    VerificationError,
    format_point,
    sample_box,
    sweep,
)
from .tensors import MultivectorField, schouten_bracket

FLOW_TOL = 1e-6
LEAF_TOL = 1e-12

COMMANDS = (
    "check-jacobi",
    "check-structure",
    "average",
    "gauge",
    "dirac-verify",
    "adiabatic",
    "moser-verify",
    "full-pipeline",
)

def _error_check(exc: ArithmeticError) -> CheckResult:
    check = exc.check if isinstance(exc, VerificationError) else "internal"
    return CheckResult(check=check, status="error", witness=str(exc))


class StructureFailure(Exception):
    """The structure equations fail, so the model yields no bivector."""

    def __init__(self, checks: Sequence[CheckResult]):
        bad = next(c.check for c in checks if not c.passed)
        super().__init__(f"cannot derive a bivector: structure check {bad} fails")
        self.checks = list(checks)


# -- shared plumbing --------------------------------------------------------


def _resolve_spec(arg: str) -> Tuple[str, Optional[str]]:
    """The model file for --spec, and its fixture name if it names one."""
    if not os.path.exists(arg) and os.sep not in arg and arg in fixtures.FIXTURES:
        return str(fixtures.fixture_path(arg)), arg
    return arg, None


def _points(spec: ModelSpec, args: argparse.Namespace) -> List[Point]:
    return sample_box(spec.chart, spec.get_box(args.box), args.samples, args.seed)


def _source(spec: ModelSpec, d: Derivation):
    """The model's coupling data, structure-checked, and the check results."""
    return d.structure(d.once("source", (spec,), spec.geometric_data))


def _bivector(
    spec: ModelSpec, d: Derivation
) -> Tuple[MultivectorField, Optional[MultivectorField]]:
    """The model's bivector, and its Jacobiator when deriving it computed one.

    A bivector built from coupling data is checked Poisson on the way, so its
    Jacobiator is known to vanish; one read from the file is not checked here.
    """
    t = spec.tensors.get("pi")
    if t is not None:
        if not isinstance(t, MultivectorField) or t.degree != 2:
            raise ValueError("'pi' must be a degree-2 multivector")
        return t, None
    gd, results = _source(spec, d)
    if not all(r.passed for r in results):
        raise StructureFailure(results)
    pi = d.coupling(gd).pi
    return pi, d.jacobiator(pi)


def _certificate(spec: ModelSpec, d: Derivation):
    """Build and verify the action certificate; returns (cert, failures)."""
    if spec.action is None or spec.certificate_mode is None:
        raise ValueError("model has no action or certificate block")
    bivector = spec.tensors.get("p")
    if bivector is None:
        bivector = _bivector(spec, d)[0]
    cert = check_compatibility(
        spec.action,
        bivector,
        mu=spec.certificate_mu,
        mode=spec.certificate_mode,
        j=spec.certificate_j,
    )
    return cert, list(cert.failures)


def _tag(checks: Sequence[CheckResult], stage: str) -> List[CheckResult]:
    for c in checks:
        c.info.setdefault("stage", stage)
    return list(checks)


def _averaged_spec(spec: ModelSpec, res: AveragingResult) -> ModelSpec:
    """The averaged configuration as a model that parses and round-trips."""
    tensors: Dict[str, object] = {
        "sigma": res.data.sigma,
        "p": res.data.p,
        "theta": res.theta,
        "q": res.q,
    }
    if res.poisson is not None:
        tensors["pi"] = res.poisson.pi
    return ModelSpec(
        chart=spec.chart,
        tensors=tensors,
        scalars={},
        foliation=res.data.conn.fol,
        connection=res.data.conn,
        action=spec.action,
        certificate_mode=spec.certificate_mode,
        certificate_j=spec.certificate_j,
        certificate_mu=spec.certificate_mu,
        boxes=spec.boxes,
        seed=spec.seed,
        samples=spec.samples,
    )


def _averaging_summary(res: AveragingResult) -> Dict[str, object]:
    out: Dict[str, object] = {
        "gamma_bar": [[_ratfn_literal(x) for x in row] for row in res.data.conn.gamma],
        "sigma_bar": _tensor_literal(res.data.sigma),
        "p": _tensor_literal(res.data.p),
        "theta": _tensor_literal(res.theta),
        "q": _tensor_literal(res.q),
    }
    if res.poisson is not None:
        out["pi_bar"] = _tensor_literal(res.poisson.pi)
    return out


# -- command bodies ---------------------------------------------------------


def _jacobi_checks(
    pi: MultivectorField, jac: Optional[MultivectorField], points: List[Point]
) -> List[CheckResult]:
    """JAC, the exact Jacobiator, and JAC-route, the coordinate identity at points.

    ``jac`` is the Jacobiator when it is already known; otherwise it is
    computed here.  JAC-route pairs the Jacobiator with coordinate
    differentials, Sum_cyc {x_i, {x_j, x_k}} = Sum_cyc Pi^{il} d_l Pi^{jk}:
    at each sample point, twice that sum, from exact first-order jets of
    Pi, must equal the (i, j, k) component exactly.  A point where a
    denominator vanishes is skipped.
    """
    checks: List[CheckResult] = []
    if jac is None:
        jac = schouten_bracket(pi, pi)
    if jac.is_zero():
        checks.append(passed("JAC"))
    else:
        idx, val = sorted(jac.comps.items())[0]
        checks.append(
            failed("JAC", witness={"component": list(idx), "value": repr(val)})
        )
    n = pi.chart.dim
    pairs = list(itertools.combinations(range(n), 2))
    width = len(pairs)
    col = {ab: c for c, ab in enumerate(pairs)}
    jets = Jets([pi.component(ab) for ab in pairs], pi.chart.coords)
    # per triple (i, j, k), getters of the terms sign Pi^{al} d_l Pi^{bc} of
    # Sum_l Pi^{il} d_l Pi^{jk} - Pi^{jl} d_l Pi^{ik} + Pi^{kl} d_l Pi^{ij}:
    # sign Pi^{al} among the values, then their negations (Pi^{al} = -Pi^{la}),
    # and d_l Pi^{bc} among the gradients, for (b, c) = pairs[c]
    triples = []
    for i, j, k in itertools.combinations(range(n), 3):
        us, vs = zip(*[(col[min(a, l), max(a, l)] + width * ((a > l) != (sign < 0)), l * width + c)
                       for a, c, sign in ((i, col[j, k], 1), (j, col[i, k], -1), (k, col[i, j], 1))
                       for l in range(n) if l != a])
        triples.append(((i, j, k), itemgetter(*us), itemgetter(*vs), jac.comps.get((i, j, k))))
    bad: Dict[str, object] = {}

    def probe(p: Point) -> bool:
        vals, grads = jets.at(p)
        # the values over one denominator and the gradients over another, so
        # that a cyclic sum is a numerator over their product
        (xs, x_den), (gs, g_den) = over_one(vals), over_one([g for grad in grads for g in grad])
        xs += [-x for x in xs] if type(x_den) is int else [_zmul(x, (-1,)) for x in xs]
        for (i, j, k), us, vs, w in triples:
            cyc = dot(us(xs), vs(gs))
            if w is None:
                same = not cyc
            else:
                (wn, ln), (wd, ld) = w.num._value_at(p), w.den._value_at(p)
                if not wd:
                    raise ZeroDivisionError("denominator vanishes at sample point")
                # 2 cyc / (x_den g_den) against (wn / ln) / (wd / ld)
                same = equal_products((2, cyc, ln, wd), (wn, ld, x_den, g_den))
            if not same:
                twice = qpi(_zmul(_zpi(cyc), (2,)), _zmul(_zpi(x_den), _zpi(g_den)))
                diff = twice - (0 if w is None else w.value_at(p))
                bad.setdefault("witness", {
                    "triple": [i, j, k], "point": format_point(p), "difference": str(diff),
                })
                return False
        return True

    run, _first = sweep(points, probe)
    counts = {"points_used": run.usable, "points_skipped": run.total - run.usable}
    witness = bad.get("witness") or run.shortfall()
    if witness is not None:
        checks.append(failed("JAC-route", witness=witness, **counts))
    else:
        checks.append(passed("JAC-route", **counts))
    return checks


def _cmd_check_jacobi(spec, args, d):
    pi, jac = _bivector(spec, d)
    pts = _points(spec, args)
    return _jacobi_checks(pi, jac, pts), {}


def _cmd_check_structure(spec, args, d):
    _gd, results = _source(spec, d)
    return results, {}


def _run_average(spec, args, pts, d):
    """Shared pipeline: structure check, certificate, averaging.

    The averaged structure results are the ones the averaging computed on
    the averaged data.
    """
    checks: List[CheckResult] = []
    gd, se = _source(spec, d)
    checks.extend(_tag(se, "input"))
    if any(not c.passed for c in se):
        return checks, None
    cert, cert_failures = _certificate(spec, d)
    if not cert.verified:
        checks.extend(cert_failures)
        return checks, None
    try:
        res = average_coupling(gd, cert, points=pts, derivation=d)
    except ArithmeticError as exc:
        checks.append(_error_check(exc))
        return checks, None
    checks.append(passed("OB3", route="connection average vs gauge shift"))
    checks.append(passed("OB1", route="2-form average vs gauge formula"))
    if pts is not None:
        checks.append(
            passed("GT1", route="frame span of gauge transform", points=len(pts))
        )
    checks.extend(_tag(d.structure(res.data)[1], "averaged"))
    return checks, res


def _cmd_average(spec, args, d):
    pts = _points(spec, args)
    checks, res = _run_average(spec, args, pts, d)
    extra: Dict[str, object] = {}
    if res is not None:
        extra = _averaging_summary(res)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(serialize_spec(_averaged_spec(spec, res)))
    return checks, extra


def _cmd_gauge(spec, args, d):
    checks: List[CheckResult] = []
    pi = _bivector(spec, d)[0]
    pts = _points(spec, args)
    theta = spec.tensors.get("theta")
    if theta is None:
        _pre, res = _run_average(spec, args, None, d)
        if res is None:
            checks.extend(_pre)
            return checks, {}
        theta = res.theta
    b_form = d.gauge_form(theta)
    try:
        pi_bar = gauge_poisson(pi, b_form, points=pts, derivation=d)
    except (ValueError, ArithmeticError) as exc:
        checks.append(failed("GT1", witness=str(exc)))
        return checks, {}
    checks.append(passed("GT1", route="exact inverse; antisymmetry and Jacobi hold"))

    gauged = gauge_transform(graph_of_bivector(pi), -b_form)
    bar_frame = graph_of_bivector(pi_bar)

    def probe(p: Point) -> bool:
        return same_span_at(bar_frame, gauged, p)

    run, first_fail = sweep(pts, probe)
    short = run.shortfall()
    if first_fail is not None:
        checks.append(failed("GT1", point=format_point(first_fail),
                             witness="gauged graph has a different span"))
    elif short is not None:
        checks.append(failed("GT1", witness=short, points=run.usable))
    else:
        checks.append(passed("GT1", route="graph span", points=run.usable))
    if spec.foliation is not None:
        checks.extend(tr4_check(pi, pi_bar, theta, spec.foliation, derivation=d))
    return checks, {"pi_bar": _tensor_literal(pi_bar)}


def _cmd_dirac_verify(spec, args, d):
    checks: List[CheckResult] = []
    pts = _points(spec, args)
    if spec.connection is not None and "sigma" in spec.tensors and "p" in spec.tensors:
        gd, se = _source(spec, d)
        checks.extend(se)
        if any(not c.passed for c in se):
            return checks, {}
        frame = d.dirac(gd)
        conn = gd.conn
    else:
        frame = graph_of_bivector(_bivector(spec, d)[0])
        conn = None
    checks.append(frame.validate_rank(pts))
    checks.append(involutivity_check(frame, pts))
    if conn is not None:
        coup, _h = coupling_test(frame, conn, pts)
        checks.append(coup)
    return checks, {}


def _cmd_adiabatic(spec, args, d):
    pts = _points(spec, args)
    checks, res = _run_average(spec, args, pts, d)
    if res is None:
        return checks, {}
    if spec.certificate_j is None:
        raise ValueError("adiabatic check needs a certificate with scalars j")
    try:
        rep = adiabatic_check(res, spec.certificate_j)
    except ArithmeticError as exc:
        checks.append(_error_check(exc))
        return checks, {}
    info = {
        "dzeta_zero": rep.dzeta_zero,
        "fiberwise_symplectic": rep.fiberwise_symplectic,
        "exact": rep.exact,
        "notes": rep.notes,
    }
    zeta_lit = [_tensor_literal(z) for z in rep.zeta]
    if rep.is_hamiltonian:
        checks.append(passed("AD2", **info))
    else:
        checks.append(failed("AD2", witness={"zeta": zeta_lit}, **info))
    extra = {
        "is_hamiltonian": rep.is_hamiltonian,
        "zeta": zeta_lit,
        "potentials": [None if p is None else _ratfn_literal(p) for p in rep.potentials],
    }
    return checks, extra


def _inner_box(box):
    """Starts for flow trajectories: the box shrunk by half about center."""
    out = {}
    for name, (lo, hi) in box.items():
        mid = (lo + hi) / 2
        rad = (hi - lo) / 4
        out[name] = (mid - rad, mid + rad)
    return out


def _cmd_moser_verify(spec, args, d):
    checks, res = _run_average(spec, args, None, d)
    if res is None:
        return checks, {}
    checks = [c for c in checks if c.info.get("stage") == "input"]
    pi = d.coupling(res.source).pi
    box = spec.get_box(args.box)
    probes = sample_box(spec.chart, box, 5, args.seed + 1)
    ev = NumericEvaluator(pi, res.theta, box, probes=probes)

    starts_frac = sample_box(spec.chart, _inner_box(box), args.samples, args.seed)
    starts = [{k: float(v) for k, v in p.items()} for p in starts_frac]
    leaf: List[Dict[str, float]] = []
    if spec.foliation is not None:
        fiber_names = [spec.chart.coords[i] for i in spec.foliation.fiber]
        seen = set()
        for p in starts:
            q = dict(p)
            for name in fiber_names:
                q[name] = 0.0
            key = tuple(sorted(q.items()))
            if key not in seen and all(
                float(box[c][0]) <= q[c] <= float(box[c][1]) for c in q
            ):
                seen.add(key)
                leaf.append(q)

    steps = args.steps if args.steps is not None else 1000
    cfg = FlowConfig(points=starts, steps=steps, tolerance=FLOW_TOL, leaf_points=leaf)
    rep = flow_and_verify(ev, cfg)
    info = {
        "max_deviation": rep.max_deviation,
        "mean_deviation": rep.mean_deviation,
        "aborted": rep.aborted,
        "leaf_max_error": rep.leaf_max_error,
        "steps": steps,
        "points": len(starts),
    }
    if rep.ok:
        checks.append(passed("PD", **info))
    else:
        checks.append(failed("PD", witness=rep.notes[:5], **info))

    if leaf:
        import numpy as np

        z, fails = z_batch(ev, 1.0, leaf)
        zs_run = PointwiseRun(total=len(leaf), usable=len(leaf) - len(fails))
        used = [row for row in range(len(leaf)) if row not in fails]
        zmax = float(np.max(np.abs(z[used]))) if used else 0.0
        counts = {"points_used": zs_run.usable, "points_skipped": len(fails)}
        # a NaN max_z fails too
        witness = zs_run.shortfall("leaf points") if zmax <= LEAF_TOL else {"max_z": zmax}
        if witness is not None:
            checks.append(failed("ZS", witness=witness, tolerance=LEAF_TOL, **counts))
        else:
            checks.append(passed("ZS", max_z=zmax, tolerance=LEAF_TOL, **counts))

    times = [Fraction(k, 4) for k in range(5)]
    hr_pts = starts[: min(10, len(starts))]
    hr_run = PointwiseRun(total=len(times) * len(hr_pts), usable=0)
    hr_max = 0.0
    hr_bad = None
    for t in times:
        residuals, skipped = homotopy_residuals(ev, t, hr_pts)
        for k, (p, r) in enumerate(zip(hr_pts, residuals)):
            if k in skipped:
                continue
            hr_run.usable += 1
            hr_max = max(hr_max, r)
            # a NaN residual is not within the tolerance
            if not r <= FLOW_TOL and hr_bad is None:
                hr_bad = {"t": str(t), "point": {k: repr(v) for k, v in sorted(p.items())},
                          "residual": r}
    counts = {"pairs_used": hr_run.usable, "pairs_skipped": hr_run.total - hr_run.usable}
    witness = hr_bad if hr_bad is not None else hr_run.shortfall("(t, point) pairs")
    if witness is not None:
        checks.append(failed("HR", witness=witness, tolerance=FLOW_TOL, **counts))
    else:
        checks.append(passed("HR", max_residual=hr_max, tolerance=FLOW_TOL, **counts))
    return checks, {}


def _cmd_full_pipeline(spec, args, d):
    pts = _points(spec, args)
    pi, jac = _bivector(spec, d)
    checks: List[CheckResult] = list(_jacobi_checks(pi, jac, pts))
    more, res = _run_average(spec, args, pts, d)
    checks.extend(more)
    extra: Dict[str, object] = {}
    if res is None:
        return checks, extra
    extra = _averaging_summary(res)

    frame = d.dirac(res.data)
    checks.append(frame.validate_rank(pts))
    checks.append(involutivity_check(frame, pts))
    coup, _h = coupling_test(frame, res.data.conn, pts)
    checks.append(coup)

    if res.poisson is not None:
        checks.extend(
            tr4_check(pi, res.poisson.pi, res.theta, res.data.conn.fol, derivation=d)
        )
    if spec.certificate_mode == "hamiltonian" and spec.certificate_j is not None:
        try:
            rep = adiabatic_check(res, spec.certificate_j)
        except ArithmeticError as exc:
            checks.append(_error_check(exc))
        else:
            if rep.is_hamiltonian:
                checks.append(passed("AD2"))
            else:
                checks.append(
                    failed("AD2", witness={"zeta": [_tensor_literal(z) for z in rep.zeta]})
                )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_spec(_averaged_spec(spec, res)))
    return checks, extra


_HANDLERS = {
    "check-jacobi": _cmd_check_jacobi,
    "check-structure": _cmd_check_structure,
    "average": _cmd_average,
    "gauge": _cmd_gauge,
    "dirac-verify": _cmd_dirac_verify,
    "adiabatic": _cmd_adiabatic,
    "moser-verify": _cmd_moser_verify,
    "full-pipeline": _cmd_full_pipeline,
}


# -- report emission --------------------------------------------------------


def _emit(args, command: str, checks: List[CheckResult], extra: Dict[str, object]) -> int:
    ordered = [c for _i, c in sorted(enumerate(checks), key=lambda t: (t[1].check, t[0]))]
    status = "pass" if ordered and all(c.passed for c in ordered) else "fail"
    payload: Dict[str, object] = {
        "command": command,
        "spec": args.spec,
        "box": args.box if args.box is not None else "default",
        "seed": args.seed,
        "samples": args.samples,
        "checks": [c.to_dict() for c in ordered],
        "status": status,
    }
    if extra:
        payload["result"] = extra
    text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.format == "json-like":
        sys.stdout.write(text)
    else:
        for c in ordered:
            line = f"{c.status.upper():5s} {c.check}"
            if c.witness is not None:
                line += f"  witness={json.dumps(c.witness, sort_keys=True, default=str)}"
            if c.point is not None:
                line += f"  point={json.dumps(c.point, sort_keys=True)}"
            print(line)
        print(f"{command}: {status} ({len(ordered)} checks)")
    return 0 if status == "pass" else 1


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built on the first request and reused: building costs 40 times a parse
    parser = argparse.ArgumentParser(
        prog="diracavg",
        description="verify, average, and gauge coupling models from files",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True,
                       help="model file path or bundled fixture name")
        p.add_argument("--box", default=None, help="named box from the model file")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--steps", type=int, default=None,
                       help="integration steps (moser-verify)")
        p.add_argument("--report", default=None, help="machine report path")
        p.add_argument("--out", default=None, help="averaged model output path")
        p.add_argument("--format", choices=("text", "json-like"), default="text")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    path, name = _resolve_spec(args.spec)
    try:
        spec = parse_spec(path)
    except SpecError as exc:
        for loc, msg in exc.diagnostics:
            print(f"error: {loc}: {msg}", file=sys.stderr)
        return 2
    # what the report records: the fixture name or the file's digest, and
    # the seed and sample count the run uses
    with open(path, "rb") as fh:
        args.spec = name or "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    if args.seed is None:
        args.seed = spec.seed
    if args.samples is None:
        args.samples = 20 if args.command == "moser-verify" else spec.samples
    try:
        # an unknown --box is a usage error even for commands that never sample
        if args.box is not None:
            spec.get_box(args.box)
        # the objects this request derives, each derived once
        checks, extra = _HANDLERS[args.command](spec, args, Derivation())
    except SpecError as exc:
        for loc, msg in exc.diagnostics:
            print(f"error: {loc}: {msg}", file=sys.stderr)
        return 2
    except StructureFailure as exc:
        checks, extra = exc.checks, {}
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        checks, extra = [_error_check(exc)], {}
    return _emit(args, args.command, checks, extra)


if __name__ == "__main__":
    sys.exit(main())
