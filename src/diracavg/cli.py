"""File-driven command line: verify, average, and gauge coupling models.

Commands read a model file (or a bundled fixture by name), run the matching
verification pipeline, and emit a human summary on stdout plus an optional
machine report.  Machine reports are canonical JSON (sorted keys, checks
ordered by identifier then insertion) so identical inputs give identical
bytes.  Exit codes: 0 all checks passed, 1 a check failed or an internal
verification error, 2 usage or parse problems.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction
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
from .coupling import (
    GeometricData,
    data_to_dirac,
    data_to_poisson,
    structure_eq_check,
)
from .dirac import (
    gauge_transform,
    graph_of_bivector,
    involutivity_check,
    same_span_at,
    coupling_test,
)
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
    homotopy_residual,
    z_field,
)
from .reports import CheckResult, failed, passed
from .rings import RationalFn
from .sampling import Point, PointwiseRun, SamplingError, format_point, sample_box, sweep
from .tensors import (
    DifferentialForm,
    MultivectorField,
    apply_vector,
    d_scalar,
    exterior_derivative,
    schouten_bracket,
    sharp_bivector,
)

JACOBI_TOL = 1e-9
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

# fragments of internal verification messages mapped to the check they break
_ERROR_CODES = (
    ("averaged-connection", "OB3"),
    ("not invariant", "OB3"),
    ("averaged-2-form", "OB1"),
    ("vertical gauge block", "OB1"),
    ("d(Theta) differs", "OB1"),
    ("antisymmetric", "GT1"),
    ("Jacobi identity", "GT1"),
    ("gauge matrix", "GT1"),
    ("frame does not span", "GT1"),
    ("Casimir", "AD2"),
)


def _code_for(message: str) -> str:
    for fragment, code in _ERROR_CODES:
        if fragment in message:
            return code
    return "internal"


def _error_check(exc: Exception) -> CheckResult:
    return CheckResult(check=_code_for(str(exc)), status="error", witness=str(exc))


class StructureFailure(Exception):
    """The structure equations fail, so the model yields no bivector."""

    def __init__(self, checks: Sequence[CheckResult]):
        bad = next(c.check for c in checks if not c.passed)
        super().__init__(f"cannot derive a bivector: structure check {bad} fails")
        self.checks = list(checks)


# -- shared plumbing --------------------------------------------------------


def _resolve_spec(arg: str) -> str:
    if not os.path.exists(arg) and os.sep not in arg and arg in fixtures.FIXTURES:
        return str(fixtures.fixture_path(arg))
    return arg


def _samples(spec: ModelSpec, args: argparse.Namespace, fallback: int) -> int:
    if args.samples is not None:
        return args.samples
    return fallback


def _points(spec: ModelSpec, args: argparse.Namespace, count: int) -> List[Point]:
    box = spec.get_box(args.box)
    seed = args.seed if args.seed is not None else spec.seed
    return sample_box(spec.chart, box, count, seed)


def _pi_of(spec: ModelSpec) -> MultivectorField:
    t = spec.tensors.get("pi")
    if t is not None:
        if not isinstance(t, MultivectorField) or t.degree != 2:
            raise ValueError("'pi' must be a degree-2 multivector")
        return t
    gd, results = structure_eq_check(spec.geometric_data())
    if not all(r.passed for r in results):
        raise StructureFailure(results)
    return data_to_poisson(gd).pi


def _certificate(spec: ModelSpec):
    """Build and verify the action certificate; returns (cert, failures)."""
    if spec.action is None or spec.certificate_mode is None:
        raise ValueError("model has no action or certificate block")
    bivector = spec.tensors.get("p")
    if bivector is None:
        bivector = _pi_of(spec)
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


def _jacobi_checks(pi: MultivectorField, points: List[Point]) -> List[CheckResult]:
    """Exact Jacobiator plus an independent sampled cyclic-sum route."""
    checks: List[CheckResult] = []
    jac = schouten_bracket(pi, pi).simplified()
    if jac.is_zero():
        checks.append(passed("JAC"))
    else:
        idx, val = sorted(jac.comps.items())[0]
        checks.append(
            failed("JAC", witness={"component": list(idx), "value": repr(val)})
        )
    chart = pi.chart

    def pb(f: RationalFn, g: RationalFn) -> RationalFn:
        return apply_vector(sharp_bivector(pi, d_scalar(f, chart)), g)

    coords = [RationalFn.var(c) for c in chart.coords]
    worst = 0.0
    bad: Optional[Dict[str, object]] = None
    for (i, j, k) in itertools.combinations(range(chart.dim), 3):
        f, g, h = coords[i], coords[j], coords[k]
        cyc = (pb(f, pb(g, h)) + pb(g, pb(h, f)) + pb(h, pb(f, g))).simplified()
        # the exact trivector pairs with coordinate differentials at twice
        # the cyclic sum; the sampled comparison keeps both routes honest
        delta = (cyc + cyc - jac.component((i, j, k))).simplified()
        if delta.is_zero():
            continue
        for p in points:
            try:
                v = abs(delta.eval_frac(p).eval_float({}))
            except ZeroDivisionError:
                continue
            worst = max(worst, v)
            if v > JACOBI_TOL and bad is None:
                bad = {
                    "triple": [i, j, k],
                    "point": format_point(p),
                    "difference": v,
                }
    if bad is not None:
        checks.append(failed("JAC-route", witness=bad, tolerance=JACOBI_TOL))
    else:
        checks.append(passed("JAC-route", max_difference=worst, tolerance=JACOBI_TOL))
    return checks


def _cmd_check_jacobi(spec, args):
    pi = _pi_of(spec)
    pts = _points(spec, args, _samples(spec, args, spec.samples))
    return _jacobi_checks(pi, pts), {}


def _cmd_check_structure(spec, args):
    _gd, results = structure_eq_check(spec.geometric_data())
    return list(results), {}


def _run_average(spec, args, pts):
    """Shared pipeline: structure check, certificate, averaging."""
    checks: List[CheckResult] = []
    gd, se = structure_eq_check(spec.geometric_data())
    checks.extend(_tag(se, "input"))
    if any(not c.passed for c in se):
        return checks, None
    cert, cert_failures = _certificate(spec)
    if not cert.verified:
        checks.extend(cert_failures)
        return checks, None
    try:
        res = average_coupling(gd, cert, points=pts)
    except ArithmeticError as exc:
        checks.append(_error_check(exc))
        return checks, None
    checks.append(passed("OB3", route="connection average vs gauge shift"))
    checks.append(passed("OB1", route="2-form average vs gauge formula"))
    if pts is not None:
        checks.append(
            passed("GT1", route="frame span of gauge transform", points=len(pts))
        )
    checks.extend(_tag(structure_eq_check(res.data)[1], "averaged"))
    return checks, res


def _cmd_average(spec, args):
    pts = _points(spec, args, _samples(spec, args, spec.samples))
    checks, res = _run_average(spec, args, pts)
    extra: Dict[str, object] = {}
    if res is not None:
        extra = _averaging_summary(res)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(serialize_spec(_averaged_spec(spec, res)))
    return checks, extra


def _cmd_gauge(spec, args):
    checks: List[CheckResult] = []
    pi = _pi_of(spec)
    pts = _points(spec, args, _samples(spec, args, spec.samples))
    theta = spec.tensors.get("theta")
    if theta is None:
        _pre, res = _run_average(spec, args, None)
        if res is None:
            checks.extend(_pre)
            return checks, {}
        theta = res.theta
    b_form = exterior_derivative(theta).simplified()
    try:
        pi_bar = gauge_poisson(pi, b_form, points=pts)
    except (ValueError, ArithmeticError) as exc:
        checks.append(failed("GT1", witness=str(exc)))
        return checks, {}
    checks.append(passed("GT1", route="exact inverse; antisymmetry and Jacobi hold"))

    gauged = gauge_transform(graph_of_bivector(pi), (-b_form).simplified())
    bar_frame = graph_of_bivector(pi_bar)

    def probe(p: Point) -> bool:
        return same_span_at(bar_frame, gauged, p)

    run, first_fail = sweep(pts, probe)
    if first_fail is not None:
        checks.append(failed("GT1", point=format_point(first_fail),
                             witness="gauged graph has a different span"))
    elif not run.healthy:
        checks.append(failed("GT1", witness=f"only {run.usable}/{run.total} points usable"))
    else:
        checks.append(passed("GT1", route="graph span", points=run.usable))
    if spec.foliation is not None:
        checks.extend(tr4_check(pi, pi_bar, theta, spec.foliation))
    return checks, {"pi_bar": _tensor_literal(pi_bar)}


def _cmd_dirac_verify(spec, args):
    checks: List[CheckResult] = []
    pts = _points(spec, args, _samples(spec, args, spec.samples))
    if spec.connection is not None and "sigma" in spec.tensors and "p" in spec.tensors:
        gd, se = structure_eq_check(spec.geometric_data())
        checks.extend(se)
        if any(not c.passed for c in se):
            return checks, {}
        frame = data_to_dirac(gd)
        ctx = gd.conn.context()
    else:
        frame = graph_of_bivector(_pi_of(spec))
        ctx = None
    checks.append(frame.validate_rank(pts))
    checks.append(involutivity_check(frame, pts))
    if ctx is not None:
        coup, _h = coupling_test(frame, ctx, pts)
        checks.append(coup)
    return checks, {}


def _cmd_adiabatic(spec, args):
    pts = _points(spec, args, _samples(spec, args, spec.samples))
    checks, res = _run_average(spec, args, pts)
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


def _cmd_moser_verify(spec, args):
    pts_count = _samples(spec, args, 20)
    checks, res = _run_average(spec, args, None)
    if res is None:
        return checks, {}
    checks = [c for c in checks if c.info.get("stage") == "input"]
    pi = data_to_poisson(res.source).pi
    box = spec.get_box(args.box)
    seed = args.seed if args.seed is not None else spec.seed
    probes = sample_box(spec.chart, box, 5, seed + 1)
    ev = NumericEvaluator(pi, res.theta, box, probes=probes)

    starts_frac = sample_box(spec.chart, _inner_box(box), pts_count, seed)
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

        zmax = max(float(np.max(np.abs(z_field(ev, 1.0, p)))) for p in leaf)
        if zmax <= LEAF_TOL:
            checks.append(passed("ZS", max_z=zmax, tolerance=LEAF_TOL))
        else:
            checks.append(failed("ZS", witness={"max_z": zmax}, tolerance=LEAF_TOL))

    times = [Fraction(k, 4) for k in range(5)]
    hr_pts = starts[: min(10, len(starts))]
    hr_run = PointwiseRun(total=len(times) * len(hr_pts), usable=0)
    hr_max = 0.0
    hr_bad = None
    for t in times:
        for p in hr_pts:
            try:
                r = homotopy_residual(ev, t, p)
            except (ArithmeticError, ZeroDivisionError):
                continue
            hr_run.usable += 1
            hr_max = max(hr_max, r)
            if r > FLOW_TOL and hr_bad is None:
                hr_bad = {"t": str(t), "point": {k: repr(v) for k, v in sorted(p.items())},
                          "residual": r}
    counts = {"pairs_used": hr_run.usable, "pairs_skipped": hr_run.total - hr_run.usable}
    if hr_bad is not None:
        checks.append(failed("HR", witness=hr_bad, tolerance=FLOW_TOL, **counts))
    elif not hr_run.healthy:
        checks.append(failed(
            "HR", witness=f"only {hr_run.usable}/{hr_run.total} (t, point) pairs usable",
            tolerance=FLOW_TOL, **counts,
        ))
    else:
        checks.append(passed("HR", max_residual=hr_max, tolerance=FLOW_TOL, **counts))
    return checks, {}


def _cmd_full_pipeline(spec, args):
    pts = _points(spec, args, _samples(spec, args, spec.samples))
    pi = _pi_of(spec)
    checks: List[CheckResult] = list(_jacobi_checks(pi, pts))
    more, res = _run_average(spec, args, pts)
    checks.extend(more)
    extra: Dict[str, object] = {}
    if res is None:
        return checks, extra
    extra = _averaging_summary(res)

    frame = data_to_dirac(res.data)
    checks.append(frame.validate_rank(pts))
    checks.append(involutivity_check(frame, pts))
    coup, _h = coupling_test(frame, res.data.conn.context(), pts)
    checks.append(coup)

    if res.poisson is not None:
        checks.extend(tr4_check(pi, res.poisson.pi, res.theta, res.data.conn.fol))
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
    if not ordered:
        status = "fail"
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


def _build_parser() -> argparse.ArgumentParser:
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
    args.spec = _resolve_spec(args.spec)
    try:
        spec = parse_spec(args.spec)
    except SpecError as exc:
        for loc, msg in exc.diagnostics:
            print(f"error: {loc}: {msg}", file=sys.stderr)
        return 2
    try:
        # an unknown --box is a usage error even for commands that never sample
        if args.box is not None:
            spec.get_box(args.box)
        checks, extra = _HANDLERS[args.command](spec, args)
    except SpecError as exc:
        for loc, msg in exc.diagnostics:
            print(f"error: {loc}: {msg}", file=sys.stderr)
        return 2
    except StructureFailure as exc:
        checks, extra = exc.checks, {}
    except (ValueError, KeyError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        checks, extra = [_error_check(exc)], {}
    return _emit(args, args.command, checks, extra)


if __name__ == "__main__":
    sys.exit(main())
