"""Bundled example models, shipped as canonical model files.

The files under ``fixtures/`` are the only source of these models; the
names below are read from them.  Five integrable couplings plus two
negative controls:

- flat: trivial connection, constant symplectic base form.
- rotating_lift: nonflat lift and base form; averaging flattens both.
- transversal_leaf: rank-varying vertical bivector vanishing on the leaf
  through the origin; the flow verifier's main subject.
- obstructed_lift: a lift term blocking any invariant Hamiltonian choice.
- shifted_lift: same geometry, certificate shifted by a Casimir; unblocked.
- nonintegrable: a bivector with nonzero Jacobiator.
- nonclosed_sigma: coupling data whose base 2-form is not closed on lifts.
"""

from __future__ import annotations

import pathlib
from importlib import resources

from .modelspec import ModelSpec, parse_spec


def fixture_dir() -> pathlib.Path:
    return pathlib.Path(str(resources.files(__package__))) / "fixtures"


FIXTURES = tuple(sorted(p.stem for p in fixture_dir().glob("*.json")))


def fixture_path(name: str) -> pathlib.Path:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; have {', '.join(FIXTURES)}")
    return fixture_dir() / f"{name}.json"


def load(name: str) -> ModelSpec:
    """Parse a bundled fixture file."""
    return parse_spec(str(fixture_path(name)))
