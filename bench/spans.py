"""Span recorders for the traced benchmark run.

The program records no spans of its own, so the traced run wraps each
layer's public functions from the outside.  A layer is a module of
``src/diracavg``.  Every name a caller looks a wrapped function up by is
patched, because modules import each other's functions by name, and the
originals are put back on exit.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# rings is absent: its operations run millions of times per request, so it
# gets counters on Poly multiplication in place of spans
LAYERS = (
    "modelspec",
    "tensors",
    "actions",
    "coupling",
    "averaging",
    "sampling",
    "dirac",
    "linalg",
    "moser",
    "cli",
)

# methods and private functions that are layer boundaries too:
# (module, class or None, attribute) -> span name within the module
EXTRA_SPANS = {
    ("modelspec", "ModelSpec", "geometric_data"): "geometric_data",
    ("actions", "CircleAction", "pullback_flow"): "pullback_flow",
    ("actions", "CircleAction", "average"): "average",
    ("actions", "TorusAction", "average"): "average",
    ("dirac", "DiracSection", "components_at"): "components_at",
    ("dirac", "DiracFrame", "__init__"): "frame_init",
    ("dirac", "DiracFrame", "validate_rank"): "validate_rank",
    ("moser", "NumericEvaluator", "__init__"): "evaluator_init",
    ("moser", "NumericEvaluator", "interp_matrix"): "interp_matrix",
    ("moser", "NumericEvaluator", "bracket_exact"): "bracket_exact",
    ("moser", "_CompiledEntries", "eval_stack"): "eval_stack",
    ("cli", None, "_jacobi_checks"): "jacobi_checks",
    ("cli", None, "_emit"): "emit",
}

# public helpers called once per tensor component or coordinate; a span on
# each would cost more than the work it times
SKIPPED = {
    ("tensors", "sort_with_sign"),
    ("tensors", "check_public_degree"),
    ("tensors", "vector_field"),
    ("tensors", "one_form"),
    ("sampling", "format_point"),
    # the body of parse_spec, which is the parsing span
    ("modelspec", "parse_spec_dict"),
}

Span = Tuple[Optional[int], int, Optional[int], str, float, float]


class Tracer:
    """Installs span wrappers on entry and removes every one on exit.

    ``spans`` holds (request, span id, parent span id, name, start, end);
    ``request`` is set by the caller before each request so that the spans
    of one request share it.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.request: Optional[int] = None
        self._stack: List[int] = []
        self._ids = itertools.count()
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.request, sid, parent, name, start, end))
            if observe is not None:
                observe(args, out)
            return out

        wrapper.bench_span = name
        return wrapper

    def _poly_mul(self, fn: Callable) -> Callable:
        counters = self.counters

        def wrapper(a, b):
            out = fn(a, b)
            counters["rings.poly_mul.calls"] += 1
            if len(out.terms) > counters["rings.max_terms"]:
                counters["rings.max_terms"] = len(out.terms)
            return out

        wrapper.bench_span = "rings.poly_mul"
        return wrapper

    def _observe_sweep(self, args, out) -> None:
        run, _first_fail = out
        self.counters["sampling.points_total"] += run.total
        self.counters["sampling.points_skipped"] += len(run.skipped)
        self.counters["sampling.points_usable"] += run.usable

    def _observe_flow_batch(self, args, out) -> None:
        self.counters["moser.trajectories"] += len(out)

    def _observe_flow(self, args, out) -> None:
        cfg = args[1]
        self.counters["moser.flow_trajectories"] += len(cfg.points) + len(cfg.leaf_points)
        self.counters["moser.aborted"] += out.aborted

    # -- install / uninstall ----------------------------------------------

    def _targets(self) -> List[Tuple[object, str, str, Optional[Callable]]]:
        """(owner, attribute, span name, observer) for every wrapped callable."""
        observers = {
            "sampling.sweep": self._observe_sweep,
            "moser.flow_batch": self._observe_flow_batch,
            "moser.flow_and_verify": self._observe_flow,
        }
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"diracavg.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and (layer, attr) not in SKIPPED
                ):
                    name = f"{layer}.{attr}"
                    out.append((mod, attr, name, observers.get(name)))
        for (layer, cls, attr), span in EXTRA_SPANS.items():
            mod = sys.modules[f"diracavg.{layer}"]
            owner = mod if cls is None else getattr(mod, cls)
            out.append((owner, attr, f"{layer}.{span}", None))
        return out

    def __enter__(self) -> "Tracer":
        import diracavg.cli  # noqa: F401  (loads every layer module)
        from diracavg.rings import Poly

        try:
            targets = self._targets()
            wrappers: Dict[int, Tuple[object, Callable]] = {}
            for owner, attr, name, observe in targets:
                orig = vars(owner)[attr]
                wrappers[id(orig)] = (orig, self._span(name, orig, observe))
            # patch every module-level name bound to a wrapped function,
            # including the by-name imports in other modules
            for modname, mod in list(sys.modules.items()):
                if modname != "diracavg" and not modname.startswith("diracavg."):
                    continue
                for attr, val in list(vars(mod).items()):
                    hit = wrappers.get(id(val))
                    if hit is not None and hit[0] is val:
                        self._patch(mod, attr, hit[1])
            for owner, attr, _name, _observe in targets:
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrappers[id(vars(owner)[attr])][1])
            self._patch(Poly, "__mul__", self._poly_mul(Poly.__mul__))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Counter]:
        """Per span name: total self time (duration minus child spans) and calls."""
        child: Dict[int, float] = defaultdict(float)
        for _req, _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for _req, sid, _parent, name, start, end in self.spans:
            self_s[name] += (end - start) - child[sid]
            calls[name] += 1
        return dict(self_s), calls

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tspan\tparent\tname\tstart\tend\n")
            for req, sid, parent, name, start, end in self.spans:
                fh.write(f"{req}\t{sid}\t{'' if parent is None else parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def installed_wrappers() -> List[str]:
    """Names in the package still bound to a benchmark wrapper."""
    left = []
    for modname, mod in list(sys.modules.items()):
        if modname != "diracavg" and not modname.startswith("diracavg."):
            continue
        for attr, val in vars(mod).items():
            if hasattr(val, "bench_span") and callable(val):
                left.append(f"{modname}.{attr}")
            if inspect.isclass(val) and val.__module__ == modname:
                for cattr, cval in vars(val).items():
                    if hasattr(cval, "bench_span"):
                        left.append(f"{modname}.{attr}.{cattr}")
    return left
