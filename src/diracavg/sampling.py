"""Deterministic rational sample points in a coordinate box.

Pointwise checks evaluate exact tensors at rational points drawn from a
seeded generator.  Points where a denominator vanishes (or a frame loses
rank) are skipped with a notice.  Every pointwise check reaches its
verdict by one rule, ``verdict``: a failing point or witness first, then
``PointwiseRun.shortfall``, which needs at least 80% of the run usable.
Library calls that verify an identity at points raise
``VerificationError`` carrying the check it breaks.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .reports import CheckResult, failed, passed
from .tensors import Chart

log = logging.getLogger("diracavg")

Box = Mapping[str, Tuple[Fraction, Fraction]]
Point = Dict[str, Fraction]

# grid resolution for drawn coordinates; small denominators keep exact
# arithmetic cheap downstream
_DENOM = 256

USABLE_FRACTION = Fraction(4, 5)


class VerificationError(ArithmeticError):
    """An identity the engine derives failed; ``check`` names the check it breaks."""

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


def sample_box(chart: Chart, box: Box, count: int, seed: int) -> List[Point]:
    """Draw `count` rational points uniformly from the box, reproducibly.

    A coordinate is lo + (hi - lo) k / _DENOM for a drawn k in [0, _DENOM],
    built as one Fraction over its side's common denominator.
    """
    sides = []
    for name in chart.coords:
        if name not in box:
            raise ValueError(f"box is missing coordinate {name!r}")
        lo, hi = box[name]
        if not lo < hi:
            raise ValueError(f"empty box interval for {name!r}")
        d = math.lcm(lo.denominator, hi.denominator)
        a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        sides.append((name, a * _DENOM, b - a, d * _DENOM))
    randint = random.Random(seed).randint
    return [
        {name: Fraction(a + w * randint(0, _DENOM), d) for name, a, w, d in sides}
        for _ in range(count)
    ]


@dataclass
class PointwiseRun:
    """Outcome of a per-point sweep under the skip policy."""

    total: int
    usable: int
    skipped: List[Point] = field(default_factory=list)

    def shortfall(self, unit: str = "sample points") -> Optional[str]:
        """None when at least 80% of the run was usable, else the failure witness."""
        if self.total and Fraction(self.usable, self.total) >= USABLE_FRACTION:
            return None
        return f"only {self.usable}/{self.total} {unit} usable"


def verdict(
    check: str,
    run: PointwiseRun,
    failure: Optional[CheckResult],
    info: Mapping[str, object],
    unit: str = "sample points",
    **pass_info: object,
) -> CheckResult:
    """A sweep's check: ``failure``, the check its first failing point or
    witness writes, if any; else the 80% rule, failing with the shortfall as
    witness or passing.  Both carry ``info``, and a pass ``pass_info`` too."""
    if failure is not None:
        return failure
    short = run.shortfall(unit)
    if short is not None:
        return failed(check, witness=short, **info)
    return passed(check, **info, **pass_info)


def sweep(points: List[Point], probe: Callable[[Point], bool]) -> Tuple[PointwiseRun, Optional[Point]]:
    """Run probe at each point; returns (run stats, first failing point).

    The probe returns True/False for pass/fail and raises ZeroDivisionError
    (or ArithmeticError) to mark the point degenerate.  Degenerate points are
    skipped with a notice; the caller judges the run by ``verdict``.
    """
    run = PointwiseRun(total=len(points), usable=0)
    first_fail: Optional[Point] = None
    for p in points:
        try:
            ok = probe(p)
        except (ZeroDivisionError, ArithmeticError):
            run.skipped.append(p)
            log.info("skipping degenerate sample point %s", format_point(p))
            continue
        run.usable += 1
        if not ok and first_fail is None:
            first_fail = p
    return run, first_fail


def format_point(p: Mapping[str, Fraction]) -> Dict[str, str]:
    return {k: str(v) for k, v in sorted(p.items())}
