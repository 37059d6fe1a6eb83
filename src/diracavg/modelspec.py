"""File format for models: charts, tensors, actions, certificates.

A model file is JSON.  Rational coefficients are strings like "3/4" so the
file round-trips exactly; a polynomial literal is a list of monomials
``[coeff, {var: exponent}]`` and a rational-function literal is
``{"num": [...], "den": [...]}``.  Tensor components are keyed by
comma-joined increasing coordinate indices ("0,1" for a 2-form component).

Parsing is total: every problem becomes a located diagnostic (path into the
document plus a message) and the parse raises one SpecError carrying the
whole list, never a bare traceback.  Serialization is canonical (sorted
keys, sorted monomials) so parse/serialize round-trips byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .actions import Action, CircleAction, TorusAction
from .config import LIMITS, PI
from .coupling import Connection, Foliation, GeometricData
from .rings import Poly, RationalFn, format_fraction, parse_fraction
from .tensors import Chart, DifferentialForm, MultivectorField, _Tensor

TENSOR_KINDS = ("form", "multivector")


class SpecError(ValueError):
    """Carries every diagnostic collected while reading a model file."""

    def __init__(self, diagnostics: List[Tuple[str, str]]):
        self.diagnostics = diagnostics
        lines = "; ".join(f"{loc}: {msg}" for loc, msg in diagnostics)
        super().__init__(f"invalid model spec: {lines}")


class _Collector:
    def __init__(self) -> None:
        self.items: List[Tuple[str, str]] = []

    def add(self, loc: str, msg: str) -> None:
        self.items.append((loc, msg))

    def raise_if_any(self) -> None:
        if self.items:
            raise SpecError(self.items)


@dataclass
class ModelSpec:
    """A parsed model file, with every object validated and constructed."""

    chart: Chart
    tensors: Dict[str, _Tensor]
    scalars: Dict[str, RationalFn]
    foliation: Optional[Foliation] = None
    connection: Optional[Connection] = None
    action: Optional[Action] = None
    certificate_mode: Optional[str] = None
    certificate_j: Optional[List[RationalFn]] = None
    certificate_mu: Optional[List[DifferentialForm]] = None
    boxes: Dict[str, Dict[str, Tuple[Fraction, Fraction]]] = field(default_factory=dict)
    seed: int = 7
    samples: int = 50

    def get_box(self, name: Optional[str] = None) -> Dict[str, Tuple[Fraction, Fraction]]:
        """A named sampling box; the default is +-1/2 on every coordinate."""
        if name is None:
            if "default" in self.boxes:
                return dict(self.boxes["default"])
            half = Fraction(1, 2)
            return {c: (-half, half) for c in self.chart.coords}
        if name not in self.boxes:
            raise KeyError(f"model defines no box named {name!r}")
        return dict(self.boxes[name])

    def geometric_data(self) -> GeometricData:
        """The (connection, sigma, p) triple; raises if pieces are missing."""
        if self.connection is None:
            raise ValueError("model has no connection/foliation block")
        sigma = self.tensors.get("sigma")
        p = self.tensors.get("p")
        if sigma is None or p is None:
            raise ValueError("model needs 'sigma' and 'p' tensors for data")
        return GeometricData(self.connection, sigma, p)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"coordinates": list(self.chart.coords)}
        if self.foliation is not None:
            out["foliation"] = {
                "base": list(self.foliation.base),
                "fiber": list(self.foliation.fiber),
            }
        if self.connection is not None:
            out["connection"] = [
                [_ratfn_literal(x) for x in row] for row in self.connection.gamma
            ]
        tensors: Dict[str, object] = {}
        for name, t in sorted(self.tensors.items()):
            tensors[name] = _tensor_literal(t)
        for name, f in sorted(self.scalars.items()):
            tensors[name] = {"kind": "scalar", "value": _ratfn_literal(f)}
        if tensors:
            out["tensors"] = tensors
        if self.action is not None:
            circles = (
                self.action.circles
                if isinstance(self.action, TorusAction)
                else (self.action,)
            )
            out["action"] = {
                "circles": [
                    {
                        "planes": [[i, j] for (i, j, _w) in c.planes],
                        "weights": [w for (_i, _j, w) in c.planes],
                    }
                    for c in circles
                ]
            }
        if self.certificate_mode is not None:
            cert: Dict[str, object] = {"mode": self.certificate_mode}
            if self.certificate_j is not None:
                cert["j"] = [_ratfn_literal(f) for f in self.certificate_j]
            elif self.certificate_mu is not None:
                cert["mu"] = [_tensor_literal(m)["components"] for m in self.certificate_mu]
            out["certificate"] = cert
        if self.boxes:
            out["boxes"] = {
                box_name: {
                    name: [format_fraction(lo), format_fraction(hi)]
                    for name, (lo, hi) in sorted(b.items())
                }
                for box_name, b in sorted(self.boxes.items())
            }
        out["seed"] = self.seed
        out["samples"] = self.samples
        return out


# -- literal construction ---------------------------------------------------


def _poly_literal(p: Poly) -> List[List[object]]:
    out = []
    for exps, coeff in sorted(p.terms.items()):
        mono: Dict[str, int] = {}
        for name, e in zip(p.vars, exps):
            if e:
                mono[name] = e
        out.append([format_fraction(coeff), mono])
    if not out:
        out.append(["0", {}])
    return out


def _ratfn_literal(f: RationalFn) -> object:
    if f.is_poly():
        return _poly_literal(f.as_poly())
    return {"num": _poly_literal(f.num), "den": _poly_literal(f.den)}


def _tensor_literal(t: _Tensor) -> Dict[str, object]:
    kind = "form" if isinstance(t, DifferentialForm) else "multivector"
    comps: Dict[str, object] = {}
    for idx in sorted(t.comps):
        key = ",".join(str(i) for i in idx)
        comps[key] = _ratfn_literal(t.comps[idx])
    return {"kind": kind, "degree": t.degree, "components": comps}


# -- parsing ----------------------------------------------------------------


def _is_int(x: object) -> bool:
    """A JSON integer: ``true`` and ``1.0`` do not count."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_circle(
    c: object, col: _Collector, loc: str
) -> Optional[List[Tuple[int, int, int]]]:
    """The (i, j, weight) planes of one circle, or None after a diagnostic."""
    if isinstance(c, dict) and "plane" in c:
        pairs = [(f"{loc}.plane", c["plane"], f"{loc}.weight", c.get("weight", 1))]
    elif isinstance(c, dict) and isinstance(c.get("planes"), list) and isinstance(
        c.get("weights"), list
    ):
        if len(c["planes"]) != len(c["weights"]):
            col.add(loc, f"{len(c['planes'])} planes but {len(c['weights'])} weights")
            return None
        pairs = [
            (f"{loc}.planes[{k}]", p, f"{loc}.weights[{k}]", w)
            for k, (p, w) in enumerate(zip(c["planes"], c["weights"]))
        ]
    else:
        col.add(loc, "need 'plane' (and 'weight') or 'planes' and 'weights' lists")
        return None
    planes = []
    for ploc, p, wloc, w in pairs:
        if not (isinstance(p, list) and len(p) == 2 and all(_is_int(i) for i in p)):
            col.add(ploc, "a plane is a pair of integer coordinate indices")
        elif not _is_int(w):
            col.add(wloc, "a weight must be an integer")
        else:
            planes.append((p[0], p[1], w))
    return planes if len(planes) == len(pairs) else None


def _parse_poly(lit: object, chart: Chart, col: _Collector, loc: str) -> Poly:
    if not isinstance(lit, list):
        col.add(loc, "polynomial literal must be a list of [coeff, {var: exp}]")
        return Poly.zero()
    total = Poly.zero()
    for k, mono in enumerate(lit):
        mloc = f"{loc}[{k}]"
        if (
            not isinstance(mono, list)
            or len(mono) != 2
            or not isinstance(mono[0], str)
            or not isinstance(mono[1], dict)
        ):
            col.add(mloc, "monomial must be [coeff-string, {var: exp}]")
            continue
        try:
            coeff = parse_fraction(mono[0])
        except (ValueError, ZeroDivisionError):
            col.add(mloc, f"bad coefficient {mono[0]!r}")
            continue
        term = Poly.const(coeff)
        degree = 0
        ok = True
        for var, exp in mono[1].items():
            if var != PI and var not in chart.coords:
                col.add(mloc, f"unknown variable {var!r}")
                ok = False
                break
            if not _is_int(exp) or exp < 1:
                col.add(mloc, f"exponent of {var!r} must be a positive integer")
                ok = False
                break
            if var != PI:
                degree += exp
            term = term * Poly.var(var) ** exp
        if not ok:
            continue
        if degree > LIMITS.max_input_degree:
            col.add(mloc, f"monomial degree {degree} over cap {LIMITS.max_input_degree}")
            continue
        total = total + term
    return total


def _parse_ratfn(lit: object, chart: Chart, col: _Collector, loc: str) -> RationalFn:
    if isinstance(lit, dict):
        if set(lit) != {"num", "den"}:
            col.add(loc, "rational literal must have exactly 'num' and 'den'")
            return RationalFn.zero()
        num = _parse_poly(lit["num"], chart, col, f"{loc}.num")
        den = _parse_poly(lit["den"], chart, col, f"{loc}.den")
        if den.is_zero():
            col.add(f"{loc}.den", "denominator is identically zero")
            return RationalFn.zero()
        return RationalFn(num, den)
    return RationalFn.from_poly(_parse_poly(lit, chart, col, loc))


def _parse_components(
    obj: object,
    chart: Chart,
    degree: int,
    kind: str,
    col: _Collector,
    loc: str,
) -> Optional[_Tensor]:
    if not isinstance(obj, dict):
        col.add(loc, "components must be an object keyed by index tuples")
        return None
    cls = DifferentialForm if kind == "form" else MultivectorField
    comps: Dict[Tuple[int, ...], RationalFn] = {}
    for key, lit in sorted(obj.items()):
        kloc = f"{loc}[{key!r}]"
        try:
            idx = tuple(int(part) for part in key.split(",")) if key else ()
        except ValueError:
            col.add(kloc, "component key must be comma-joined integers")
            continue
        if len(idx) != degree:
            col.add(kloc, f"a degree-{degree} tensor needs {degree} indices")
            continue
        if any(i < 0 or i >= chart.dim for i in idx):
            col.add(kloc, "coordinate index out of range")
            continue
        if list(idx) != sorted(set(idx)):
            col.add(kloc, "indices must be strictly increasing")
            continue
        val = _parse_ratfn(lit, chart, col, kloc)
        if not val.is_zero():
            comps[idx] = val
    try:
        return cls(chart, degree, comps)
    except ValueError as exc:
        col.add(loc, str(exc))
        return None


def parse_spec_dict(doc: object) -> ModelSpec:
    """Validate a decoded model document; raises SpecError with locations."""
    col = _Collector()
    if not isinstance(doc, dict):
        col.add("$", "top level must be an object")
        col.raise_if_any()
    coords = doc.get("coordinates")
    if (
        not isinstance(coords, list)
        or not coords
        or not all(isinstance(c, str) for c in coords)
    ):
        col.add("coordinates", "need a nonempty list of coordinate names")
        col.raise_if_any()
    try:
        chart = Chart(tuple(coords))
    except Exception as exc:
        col.add("coordinates", str(exc))
        col.raise_if_any()
        raise AssertionError("unreachable")

    foliation: Optional[Foliation] = None
    if "foliation" in doc:
        fobj = doc["foliation"]
        if (
            not isinstance(fobj, dict)
            or not isinstance(fobj.get("base"), list)
            or not isinstance(fobj.get("fiber"), list)
        ):
            col.add("foliation", "need 'base' and 'fiber' index lists")
        elif not all(_is_int(i) for i in fobj["base"] + fobj["fiber"]):
            for part in ("base", "fiber"):
                for k, i in enumerate(fobj[part]):
                    if not _is_int(i):
                        col.add(f"foliation.{part}[{k}]", "index must be an integer")
        else:
            try:
                foliation = Foliation(
                    chart, tuple(fobj["base"]), tuple(fobj["fiber"])
                )
            except (ValueError, TypeError) as exc:
                col.add("foliation", str(exc))

    connection: Optional[Connection] = None
    if "connection" in doc:
        if foliation is None:
            col.add("connection", "a connection needs a foliation block")
        else:
            cobj = doc["connection"]
            f, b = foliation.f, foliation.b
            if (
                not isinstance(cobj, list)
                or len(cobj) != f
                or any(not isinstance(r, list) or len(r) != b for r in cobj)
            ):
                col.add("connection", f"need a {f} x {b} matrix of polynomial literals")
            else:
                gamma = [
                    [
                        _parse_ratfn(cobj[j][i], chart, col, f"connection[{j}][{i}]")
                        for i in range(b)
                    ]
                    for j in range(f)
                ]
                if not col.items:
                    try:
                        connection = Connection(foliation, gamma)
                    except (ValueError, AssertionError) as exc:
                        col.add("connection", str(exc))

    tensors: Dict[str, _Tensor] = {}
    scalars: Dict[str, RationalFn] = {}
    tobj = doc.get("tensors", {})
    if not isinstance(tobj, dict):
        col.add("tensors", "must be an object of named tensors")
        tobj = {}
    for name, spec in sorted(tobj.items()):
        tloc = f"tensors.{name}"
        if not isinstance(spec, dict) or "kind" not in spec:
            col.add(tloc, "tensor entry needs a 'kind'")
            continue
        kind = spec["kind"]
        if kind == "scalar":
            if "value" not in spec:
                col.add(tloc, "scalar tensors need a 'value' literal")
                continue
            scalars[name] = _parse_ratfn(spec["value"], chart, col, f"{tloc}.value")
            continue
        if kind not in TENSOR_KINDS:
            col.add(tloc, f"unknown kind {kind!r}")
            continue
        degree = spec.get("degree")
        if not _is_int(degree) or degree < 0 or degree > 4:
            col.add(f"{tloc}.degree", "degree must be an integer in 0..4")
            continue
        t = _parse_components(
            spec.get("components", {}), chart, degree, kind, col, f"{tloc}.components"
        )
        if t is not None:
            tensors[name] = t

    action: Optional[Action] = None
    if "action" in doc:
        aobj = doc["action"]
        circles_lit = aobj.get("circles") if isinstance(aobj, dict) else None
        if not isinstance(circles_lit, list):
            col.add("action", "need 'circles': a list of plane rotations")
        else:
            circles = []
            for k, c in enumerate(circles_lit):
                planes = _parse_circle(c, col, f"action.circles[{k}]")
                if planes is None:
                    continue
                try:
                    circles.append(CircleAction(chart, planes))
                except (ValueError, AssertionError) as exc:
                    col.add(f"action.circles[{k}]", f"bad action block: {exc}")
            if circles and len(circles) == len(circles_lit):
                try:
                    action = circles[0] if len(circles) == 1 else TorusAction(circles)
                except (ValueError, AssertionError) as exc:
                    col.add("action", f"bad action block: {exc}")

    cert_mode: Optional[str] = None
    cert_j: Optional[List[RationalFn]] = None
    cert_mu: Optional[List[DifferentialForm]] = None
    if "certificate" in doc:
        cobj = doc["certificate"]
        if not isinstance(cobj, dict) or "mode" not in cobj:
            col.add("certificate", "need a 'mode'")
        elif cobj["mode"] not in ("compatible", "locally-hamiltonian", "hamiltonian"):
            col.add(
                "certificate.mode",
                "must be 'compatible', 'locally-hamiltonian' or 'hamiltonian'",
            )
        else:
            cert_mode = cobj["mode"]
            if "j" in cobj and isinstance(cobj["j"], list):
                cert_j = [
                    _parse_ratfn(lit, chart, col, f"certificate.j[{k}]")
                    for k, lit in enumerate(cobj["j"])
                ]
            elif "mu" in cobj and isinstance(cobj["mu"], list):
                cert_mu = []
                for k, comp in enumerate(cobj["mu"]):
                    t = _parse_components(
                        comp, chart, 1, "form", col, f"certificate.mu[{k}]"
                    )
                    if t is not None:
                        cert_mu.append(t)
            else:
                col.add("certificate", "need 'j' scalars or 'mu' 1-forms")

    boxes: Dict[str, Dict[str, Tuple[Fraction, Fraction]]] = {}
    if "boxes" in doc:
        all_boxes = doc["boxes"]
        if not isinstance(all_boxes, dict):
            col.add("boxes", "must map box names to coordinate intervals")
            all_boxes = {}
        for box_name, bobj in sorted(all_boxes.items()):
            if not isinstance(bobj, dict):
                col.add(f"boxes.{box_name}", "must map coordinate names to [lo, hi]")
                continue
            box: Dict[str, Tuple[Fraction, Fraction]] = {}
            for name, pair in sorted(bobj.items()):
                bloc = f"boxes.{box_name}.{name}"
                if name not in chart.coords:
                    col.add(bloc, "unknown coordinate")
                    continue
                if not (isinstance(pair, list) and len(pair) == 2
                        and all(isinstance(x, str) for x in pair)):
                    col.add(bloc, "need a pair of fraction strings")
                    continue
                try:
                    lo, hi = parse_fraction(pair[0]), parse_fraction(pair[1])
                except (ValueError, ZeroDivisionError):
                    col.add(bloc, "need a pair of fraction strings")
                    continue
                if not lo < hi:
                    col.add(bloc, "empty interval")
                    continue
                box[name] = (lo, hi)
            missing = [n for n in chart.coords if n not in box]
            if missing:
                col.add(f"boxes.{box_name}", f"missing coordinates {missing}")
            else:
                boxes[box_name] = box

    seed = doc.get("seed", 7)
    samples = doc.get("samples", 50)
    if not _is_int(seed):
        col.add("seed", "must be an integer")
        seed = 7
    if not _is_int(samples) or samples < 1:
        col.add("samples", "must be a positive integer")
        samples = 50

    col.raise_if_any()
    return ModelSpec(
        chart=chart,
        tensors=tensors,
        scalars=scalars,
        foliation=foliation,
        connection=connection,
        action=action,
        certificate_mode=cert_mode,
        certificate_j=cert_j,
        certificate_mu=cert_mu,
        boxes=boxes,
        seed=seed,
        samples=samples,
    )


def parse_spec(path: str) -> ModelSpec:
    """Read and validate a model file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SpecError([("$", f"no such file: {path}")])
    except json.JSONDecodeError as exc:
        raise SpecError([(f"line {exc.lineno}", f"not valid JSON: {exc.msg}")])
    return parse_spec_dict(doc)


def serialize_spec(spec: ModelSpec) -> str:
    """Canonical text for a model: stable key order, exact coefficients."""
    return json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n"
