"""Global capacity limits for the exact symbolic kernel.

The engine targets desk-scale models: a handful of chart coordinates and low
polynomial degree.  The coordinate cap is enforced by the ``Chart``
constructor and the degree cap when a model file is parsed.  Internal
arithmetic is allowed to exceed the degree cap, because exact intermediate
objects (determinants, cross-multiplied Jacobiators) legitimately grow past
it; runaway growth is stopped by the term-count guard in ``Poly.__mul__``
instead of by hanging.
"""

from __future__ import annotations

from dataclasses import dataclass


class CapacityError(Exception):
    """Raised when a symbolic object exceeds the configured limits."""


@dataclass
class Limits:
    max_variables: int = 8
    max_input_degree: int = 12
    # Guard against runaway intermediate blowup; generous on purpose.
    max_terms: int = 400_000


LIMITS = Limits()

# Reserved coefficient-ring symbol for the circle constant.  It is treated as
# a formal transcendental: never differentiated against, never substituted by
# coordinate evaluation, and mapped to math.pi only in floating-point code.
PI = "@pi"
