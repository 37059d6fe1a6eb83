"""File-driven command line: verify, average, and gauge coupling models.

Commands read a model file (or a bundled fixture by name), run their
stages in order (``COMMANDS``, named in ``_STAGES``), and emit a human
summary on stdout plus an optional machine report.  Machine reports are
canonical JSON (sorted keys, checks ordered by identifier then insertion)
so identical inputs give identical bytes.  Exit codes: 0 all checks passed, 1 a check failed (an internal
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
from dataclasses import replace
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import fixtures
from .averaging import (
    adiabatic_check, average_coupling, check_compatibility, gauge_poisson, tr4_check,
)
from .derivation import Derivation
from .dirac import (
    coupling_test, gauge_transform, graph_of_bivector, involutivity_check, same_span_at,
)
from .linalg import Jets
from .modelspec import (
    ModelSpec, SpecError, _ratfn_literal, _tensor_literal, parse_spec, serialize_spec,
)
from .moser import (
    FlowConfig, NumericEvaluator, flow_and_verify, flow_points, homotopy_check, leaf_check,
)
from .reports import CheckResult, failed, passed
from .rings import _zmul, _zpi, dot, equal_products, over_one, qpi
from .sampling import Point, VerificationError, format_point, sample_box, sweep, verdict
from .tensors import MultivectorField, schouten_bracket


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


def _averaged(spec: ModelSpec, d: Derivation, points: Optional[List[Point]]):
    """Structure check, certificate and averaging; returns (checks, result).

    The result is None when a check stops the averaging.  The averaged
    structure results are the ones the averaging computed on the averaged
    data.  With points, GT1 also checks the frame spans at them.
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
        res = average_coupling(gd, cert, points=points, derivation=d)
    except ArithmeticError as exc:
        checks.append(_error_check(exc))
        return checks, None
    checks.append(passed("OB3", route="connection average vs gauge shift"))
    checks.append(passed("OB1", route="2-form average vs gauge formula"))
    if points is not None:
        checks.append(
            passed("GT1", route="frame span of gauge transform", points=len(points))
        )
    checks.extend(_tag(d.structure(res.data)[1], "averaged"))
    return checks, res


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
    witness = bad.get("witness")
    failure = None if witness is None else failed("JAC-route", witness=witness, **counts)
    checks.append(verdict("JAC-route", run, failure, counts))
    return checks


# -- stages -----------------------------------------------------------------
# A stage(spec, args, d, done) finds the results of the stages before it in
# done, by stage name, adds its own, and returns (checks, report fields);
# fields of None end the command, as what later stages need is missing.

Args = argparse.Namespace
Done = Dict[str, object]
Stage = Tuple[List[CheckResult], Optional[Dict[str, object]]]


def _sample(spec: ModelSpec, args: Args, d: Derivation, done: Done) -> Stage:
    """The sample points of the pointwise checks."""
    done["sample"] = sample_box(spec.chart, spec.get_box(args.box), args.samples, args.seed)
    return [], {}


def _model_bivector(spec: ModelSpec, args: Args, d: Derivation, done: Done) -> Stage:
    """The model's bivector and, when known, its Jacobiator."""
    done["bivector"] = _bivector(spec, d)
    return [], {}


def _jacobi(spec: ModelSpec, args: Args, d: Derivation, done: Done) -> Stage:
    """JAC and JAC-route on the model's bivector."""
    return _jacobi_checks(*done["bivector"], done["sample"]), {}


def _structure(spec: ModelSpec, args: Args, d: Derivation, done: Done) -> Stage:
    """SE1-SE3 on the model's coupling data."""
    return _source(spec, d)[1], {}


def _average(spec: ModelSpec, args: Args, d: Derivation, done: Done) -> Stage:
    """Averaging, with GT1's frame spans at the sample points.

    Its averaged data give the Dirac frame, and its averaged bivector, with
    Theta and the foliation, the gauge pair that TR4 checks.
    """
    checks, res = _averaged(spec, d, done["sample"])
    if res is None:
        return checks, None
    done["average"] = res
    done["frame"] = (d.dirac(res.data), res.data.conn)
    if res.poisson is not None:
        done["gauged"] = (res.poisson.pi, res.theta, res.data.conn.fol)
    return checks, {}


def _summary(spec: ModelSpec, args: Args, d: Derivation, done: Done) -> Stage:
    """The averaged connection and tensors as report fields."""
    res = done["average"]
    out: Dict[str, object] = {
        "gamma_bar": [[_ratfn_literal(x) for x in row] for row in res.data.conn.gamma],
        "sigma_bar": _tensor_literal(res.data.sigma),
        "p": _tensor_literal(res.data.p),
        "theta": _tensor_literal(res.theta),
        "q": _tensor_literal(res.q),
    }
    if res.poisson is not None:
        out["pi_bar"] = _tensor_literal(res.poisson.pi)
    return [], out


def _write_averaged(spec: ModelSpec, args: Args, d: Derivation, done: Done) -> Stage:
    """With --out, the averaged model, as a file that parses and round-trips."""
    if args.out:
        res = done["average"]
        tensors = {"sigma": res.data.sigma, "p": res.data.p, "theta": res.theta, "q": res.q}
        if res.poisson is not None:
            tensors["pi"] = res.poisson.pi
        averaged = replace(spec, tensors=tensors, scalars={}, foliation=res.data.conn.fol,
                           connection=res.data.conn)
        _write(args.out, serialize_spec(averaged))
    return [], {}


def _gauge(spec: ModelSpec, args: Args, d: Derivation, done: Done) -> Stage:
    """GT1: the exact gauge image of the model's bivector by d(Theta), and
    its graph against the gauged graph at the points.

    Theta is the model's, or averaging's, whose checks count only when they
    stop it.
    """
    pi, pts = done["bivector"][0], done["sample"]
    theta = spec.tensors.get("theta")
    if theta is None:
        checks, res = _averaged(spec, d, None)
        if res is None:
            return checks, None
        theta = res.theta
    b_form = d.gauge_form(theta)
    try:
        pi_bar = gauge_poisson(pi, b_form, points=pts, derivation=d)
    except (ValueError, ArithmeticError) as exc:
        return [failed("GT1", witness=str(exc))], None
    done["gauged"] = (pi_bar, theta, spec.foliation)

    gauged = gauge_transform(graph_of_bivector(pi), -b_form)
    bar_frame = graph_of_bivector(pi_bar)

    def probe(p: Point) -> bool:
        return same_span_at(bar_frame, gauged, p)

    run, first_fail = sweep(pts, probe)
    failure = None if first_fail is None else failed(
        "GT1", point=format_point(first_fail), witness="gauged graph has a different span")
    return [
        passed("GT1", route="exact inverse; antisymmetry and Jacobi hold"),
        verdict("GT1", run, failure, {"points": run.usable}, route="graph span"),
    ], {"pi_bar": _tensor_literal(pi_bar)}


def _tr4(spec: ModelSpec, args: Args, d: Derivation, done: Done) -> Stage:
    """TR4 on the model's bivector and its gauge image, given a foliation."""
    pi_bar, theta, fol = done.get("gauged", (None, None, None))
    if fol is None:
        return [], {}
    return tr4_check(done["bivector"][0], pi_bar, theta, fol, derivation=d), {}


def _model_frame(spec: ModelSpec, args: Args, d: Derivation, done: Done) -> Stage:
    """The model's Dirac frame: its coupling data's, structure-checked, or
    its bivector's graph."""
    if spec.connection is not None and "sigma" in spec.tensors and "p" in spec.tensors:
        gd, se = _source(spec, d)
        if any(not c.passed for c in se):
            return se, None
        done["frame"] = (d.dirac(gd), gd.conn)
        return se, {}
    done["frame"] = (graph_of_bivector(_bivector(spec, d)[0]), None)
    return [], {}


def _dirac(spec: ModelSpec, args: Args, d: Derivation, done: Done) -> Stage:
    """frame-rank, involutivity and, given a connection, coupling."""
    (frame, conn), pts = done["frame"], done["sample"]
    checks = [frame.validate_rank(pts), involutivity_check(frame, pts)]
    if conn is not None:
        checks.append(coupling_test(frame, conn, pts)[0])
    return checks, {}


def _adiabatic(
    spec: ModelSpec, args: Args, d: Derivation, done: Done, *, detailed: bool
) -> Stage:
    """AD2, the adiabatic obstruction of the averaged data.

    The detailed form needs a hamiltonian certificate with scalars j, and
    records the obstruction in AD2's info and the report fields.  The bare
    form runs only on a model with such a certificate.
    """
    if not detailed and (spec.certificate_mode != "hamiltonian" or spec.certificate_j is None):
        return [], {}
    if spec.certificate_j is None:
        raise ValueError("adiabatic check needs a certificate with scalars j")
    try:
        rep = adiabatic_check(done["average"], spec.certificate_j)
    except ArithmeticError as exc:
        return [_error_check(exc)], {}
    zeta = [_tensor_literal(z) for z in rep.zeta]
    info: Dict[str, object] = {}
    fields: Dict[str, object] = {}
    if detailed:
        info = {"dzeta_zero": rep.dzeta_zero, "fiberwise_symplectic": rep.fiberwise_symplectic,
                "exact": rep.exact, "notes": rep.notes}
        fields = {"is_hamiltonian": rep.is_hamiltonian, "zeta": zeta,
                  "potentials": [None if p is None else _ratfn_literal(p) for p in rep.potentials]}
    if rep.is_hamiltonian:
        return [passed("AD2", **info)], fields
    return [failed("AD2", witness={"zeta": zeta}, **info)], fields


def _flow(spec: ModelSpec, args: Args, d: Derivation, done: Done) -> Stage:
    """PD, ZS (given leaf points) and HR on the flow between the model's
    bivector and its average.

    Of averaging's checks only the input structure checks are reported,
    unless a check stops it.
    """
    checks, res = _averaged(spec, d, None)
    if res is None:
        return checks, None
    box = spec.get_box(args.box)
    probes = sample_box(spec.chart, box, 5, args.seed + 1)
    ev = NumericEvaluator(d.coupling(res.source).pi, res.theta, box, probes=probes)
    starts, leaf = flow_points(spec.chart, box, args.samples, args.seed, spec.foliation)
    steps = args.steps if args.steps is not None else 1000
    checks = [c for c in checks if c.info.get("stage") == "input"]
    checks.append(flow_and_verify(ev, FlowConfig(points=starts, steps=steps, leaf_points=leaf)).check)
    if leaf:
        checks.append(leaf_check(ev, leaf))
    checks.append(homotopy_check(ev, starts))
    return checks, {}


_STAGES: Dict[str, Callable[..., Stage]] = {
    "sample": _sample,
    "bivector": _model_bivector,
    "jacobi": _jacobi,
    "structure": _structure,
    "average": _average,
    "summary": _summary,
    "write": _write_averaged,
    "gauge": _gauge,
    "TR4": _tr4,
    "model-frame": _model_frame,
    "dirac": _dirac,
    "adiabatic": functools.partial(_adiabatic, detailed=True),
    "adiabatic-bare": functools.partial(_adiabatic, detailed=False),
    "flow": _flow,
}

# each command's stages, in the order they run
COMMANDS: Dict[str, Tuple[str, ...]] = {
    "check-jacobi": ("bivector", "sample", "jacobi"),
    "check-structure": ("structure",),
    "average": ("sample", "average", "summary", "write"),
    "gauge": ("bivector", "sample", "gauge", "TR4"),
    "dirac-verify": ("sample", "model-frame", "dirac"),
    "adiabatic": ("sample", "average", "adiabatic"),
    "moser-verify": ("flow",),
    "full-pipeline": ("sample", "bivector", "jacobi", "average", "summary", "dirac", "TR4",
                      "adiabatic-bare", "write"),
}


def _run(spec: ModelSpec, args: Args) -> Tuple[List[CheckResult], Dict[str, object]]:
    """The checks and report fields of the command's stages, run in order."""
    d, done = Derivation(), {}
    checks: List[CheckResult] = []
    extra: Dict[str, object] = {}
    for name in COMMANDS[args.command]:
        more, fields = _STAGES[name](spec, args, d, done)
        checks.extend(more)
        if fields is None:
            break
        extra.update(fields)
    return checks, extra


# -- report emission --------------------------------------------------------


def _write(path: str, text: str) -> None:
    """Write a file an option names; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


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
        _write(args.report, text)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.samples is not None and args.samples < 1:
        parser.error("argument --samples: must be a positive integer")
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
        spec.get_box(args.box)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        try:
            checks, extra = _run(spec, args)
        except StructureFailure as exc:
            checks, extra = exc.checks, {}
        except ArithmeticError as exc:
            checks, extra = [_error_check(exc)], {}
        return _emit(args, args.command, checks, extra)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
