"""The exact objects one request derives, each derived once.

Several checks of one command read the same derived objects: the structure
results of the model's coupling data, a bivector's coupling data and
Jacobiator, the determinant and inverse of a gauge matrix.  A
``Derivation`` computes each on first use and hands the same result to
every later reader.  Entries are keyed by the identity of the objects they
derive from, not by value.  A value key would let a fact recorded for one
object, such as the vanishing Jacobiator ``data_to_poisson`` verified for
its bivector, pass to an equal object another route built; and
``GeometricData``, a mutable dataclass, has no hash at all.  Entries hold
those objects, so no id is reused while the derivation lives.  A
derivation lives for one request; nothing is shared between requests.

Sharing never makes a check compare a value with itself: each route of a
checked identity still computes its own side from its own inputs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

from . import linalg
from .coupling import (
    CouplingPoisson,
    Foliation,
    GeometricData,
    data_to_dirac,
    data_to_poisson,
    poisson_to_data,
    structure_eq_check,
)
from .dirac import DiracFrame
from .reports import CheckResult
from .rings import RationalFn
from .tensors import (
    DifferentialForm,
    MultivectorField,
    exterior_derivative,
    flat_matrix,
    schouten_bracket,
    sharp_matrix,
)

T = TypeVar("T")


class Derivation:
    """The derived objects of one request, each computed on first use."""

    def __init__(self) -> None:
        self._held: Dict[Tuple[object, ...], Tuple[Sequence[object], object]] = {}

    def once(self, kind: str, sources: Sequence[object], make: Callable[[], T]) -> T:
        """``make()`` on the first call for these source objects; its result after."""
        key = (kind, *map(id, sources))
        hit = self._held.get(key)
        if hit is None:
            hit = self._held[key] = (sources, make())
        return hit[1]

    def structure(self, gd: GeometricData) -> Tuple[GeometricData, List[CheckResult]]:
        """``structure_eq_check(gd)``, once per object.

        The checked object it returns maps to the same results.  Every
        caller gets its own copies, so tagging them reaches no other caller.
        """
        out, results = self.once("structure", (gd,), lambda: structure_eq_check(gd))
        self.once("structure", (out,), lambda: (out, results))
        return out, [replace(r, info=dict(r.info)) for r in results]

    def coupling(self, gd: GeometricData) -> CouplingPoisson:
        """``data_to_poisson(gd)``, once per object.

        Its bivector is recorded with the data it was built from and with
        its Jacobiator, which ``data_to_poisson`` verified to vanish.
        """

        def make() -> CouplingPoisson:
            cp = data_to_poisson(gd)
            self.once("data", (cp.pi,), lambda: (gd, cp.pi20))
            self.once("jacobiator", (cp.pi,), lambda: MultivectorField.zero(cp.pi.chart, 3))
            return cp

        return self.once("coupling", (gd,), make)

    def jacobiator(self, pi: MultivectorField) -> MultivectorField:
        """[[Pi, Pi]], once per bivector."""
        return self.once("jacobiator", (pi,), lambda: schouten_bracket(pi, pi))

    def data(self, pi: MultivectorField, fol: Foliation) -> Tuple[GeometricData, MultivectorField]:
        """The coupling data of a bivector and its horizontal part pi20.

        A bivector built from data gets the data it was built from.  Any
        other is split by ``poisson_to_data``, given its Jacobiator.
        """

        def make() -> Tuple[GeometricData, MultivectorField]:
            gd = poisson_to_data(pi, fol, jacobiator=self.jacobiator(pi))
            return gd, pi - gd.p

        return self.once("data", (pi,), make)

    def dirac(self, gd: GeometricData) -> DiracFrame:
        """``data_to_dirac(gd)``, once per object."""
        return self.once("dirac", (gd,), lambda: data_to_dirac(gd))

    def gauge_form(self, theta: DifferentialForm) -> DifferentialForm:
        """The closed 2-form d(Theta) that gauges by Theta."""
        return self.once("gauge_form", (theta,), lambda: exterior_derivative(theta))

    def gauge_matrix(
        self, pi: MultivectorField, b: DifferentialForm
    ) -> Tuple[linalg.Mat, RationalFn]:
        """The gauge matrix Id + b# Pi# and its determinant."""

        def make() -> Tuple[linalg.Mat, RationalFn]:
            m = linalg.mat_add(
                linalg.identity(pi.chart.dim), linalg.mat_mul(flat_matrix(b), sharp_matrix(pi))
            )
            return m, linalg.det(m)

        return self.once("gauge_matrix", (pi, b), make)

    def gauge_inverse(self, pi: MultivectorField, b: DifferentialForm) -> linalg.Mat:
        """The inverse of the gauge matrix; raises ArithmeticError where it is singular."""
        m = self.gauge_matrix(pi, b)[0]
        return self.once("gauge_inverse", (pi, b), lambda: linalg.inverse(m))
