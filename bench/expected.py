"""Expected verdicts, written by hand from the README and ROADMAP.

Nothing here is copied from the program's output.  A verdict is the exit
code plus the set of check ids whose status is not "pass"; a request whose
answer the README does not state is left out of the workloads.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

Verdict = Tuple[int, FrozenSet[str]]

# The fixtures, from the README's "Bundled fixtures":
#   flat              trivial connection, constant symplectic base form
#   rotating_lift     a lift twisted by x2; averaging flattens it
#   transversal_leaf  vertical bivector of varying rank vanishing on a leaf
#   obstructed_lift   no invariant Hamiltonian exists for the certificate
#   shifted_lift      the certificate shifted by a Casimir; obstruction clears
#   nonintegrable     a bivector with a nonzero Jacobiator (negative control)
#   nonclosed_sigma   base 2-form fails the closedness equation (negative control)
# and the torus model of ROADMAP item 5 (bench/torus.json), where every
# command but moser-verify is stated to pass.

# README, "Command line" and "Check identifiers": the checks each command
# reports.  ROADMAP item 5 adds the structure equations to every command,
# since each one must report the SE2 witness on nonclosed_sigma.
_STRUCTURE = {"SE1", "SE2", "SE3"}
_AVERAGE = _STRUCTURE | {"OB1", "OB3", "GT1"}
CHECKS = {
    "check-jacobi": _STRUCTURE | {"JAC", "JAC-route"},
    "check-structure": _STRUCTURE,
    "average": _AVERAGE,
    "gauge": _AVERAGE | {"TR4", "AL"},
    "dirac-verify": _STRUCTURE | {"frame-rank", "involutivity", "coupling"},
    "adiabatic": _AVERAGE | {"AD2"},
    "moser-verify": _AVERAGE | {"PD", "ZS", "HR"},
    "full-pipeline": _AVERAGE
    | {"JAC", "JAC-route", "TR4", "AL", "frame-rank", "involutivity", "coupling", "AD2"},
}

# README: the one check each negative fixture fails; every other fixture
# passes every check.  Exit codes: 0 all checks passed, 1 a check failed.
FAILS = {"obstructed_lift": "AD2", "nonintegrable": "JAC", "nonclosed_sigma": "SE2"}

# defects the ROADMAP records, with the behaviour they show today; each one
# still counts as a failed request
KNOWN_DEFECTS = {
    ("check-jacobi", "nonclosed_sigma"): (
        (2, frozenset()),
        "ROADMAP item 5: exits 2 with no report, where the README gives 1 and the SE2 witness",
    ),
}


def expected(command: str, model: str) -> Optional[Verdict]:
    """The README's verdict for a command on a model, or None if it states none."""
    bad = FAILS.get(model)
    if bad is None:
        return 0, frozenset()
    if bad in CHECKS[command]:
        return 1, frozenset({bad})
    if model == "obstructed_lift":
        # only the obstruction fails; the geometry is otherwise sound
        return 0, frozenset()
    # nonintegrable has no coupling data; the README gives no answer for
    # the commands that need it
    return None
