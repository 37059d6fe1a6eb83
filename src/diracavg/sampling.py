"""Deterministic rational sample points in a coordinate box.

Pointwise checks evaluate exact tensors at rational points drawn from a
seeded generator.  Points where a denominator vanishes (or a frame loses
rank) are skipped with a notice.  A run needs at least 80% usable points:
``PointwiseRun.shortfall`` decides that rule for every pointwise check and
writes the witness of a run that misses it.  A failing point takes
precedence over a short run.  Library calls that verify an identity at
points raise ``VerificationError`` carrying the check it breaks.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Tuple

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


def sweep(points: List[Point], probe: Callable[[Point], bool]) -> Tuple[PointwiseRun, Optional[Point]]:
    """Run probe at each point; returns (run stats, first failing point).

    The probe returns True/False for pass/fail and raises ZeroDivisionError
    (or ArithmeticError) to mark the point degenerate.  Degenerate points are
    skipped with a notice; the caller applies the 80% rule through
    ``run.shortfall`` after looking at the failing point.
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
