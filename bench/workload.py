"""Request lists for the benchmark workloads, generated from a seed.

A request is the argv of one ``diracavg`` command.  The workload seed only
draws each request's ``--seed``; which commands run on which models is
fixed per workload.  Paths in the argv are relative to the checkout root,
where the worker runs.
"""

from __future__ import annotations

import random
from typing import Dict, List

from expected import expected

# the seed used while the benchmark was written; claims of a gain must also
# hold on the held-out seed
DEV_SEED = 1
HELDOUT_SEED = 20261017

TORUS = "bench/torus.json"
TMP_DIR = ".bench_tmp"
REPORT = f"{TMP_DIR}/report.json"
AVERAGED = f"{TMP_DIR}/averaged.json"

PASSING = ("flat", "rotating_lift", "transversal_leaf", "obstructed_lift", "shifted_lift")
NEGATIVE = ("nonintegrable", "nonclosed_sigma")

# (commands, models, options); every model is at its default box.  The
# torus moser-verify is left out of "flow": it does not finish within
# 600 s, because the exact HR bracket stalls on unreduced fractions.
WORKLOADS = {
    "construct": (
        ("check-structure", "check-jacobi", "average", "adiabatic"),
        PASSING + NEGATIVE + (TORUS,),
        ("--samples", "5"),
    ),
    "sweep": (("dirac-verify", "gauge", "full-pipeline"), PASSING + (TORUS,), ()),
    "flow": (("moser-verify",), PASSING, ("--samples", "10", "--steps", "250")),
}


def model_name(spec: str) -> str:
    return "torus" if spec == TORUS else spec


def generate(workload: str, seed: int) -> List[Dict[str, object]]:
    """The request list of a workload; the same seed gives the same list."""
    commands, models, options = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    out: List[Dict[str, object]] = []
    for command in commands:
        for spec in models:
            if expected(command, model_name(spec)) is None:
                continue
            argv = [command, "--spec", spec, *options]
            argv += ["--seed", str(rng.randrange(1, 1 << 31)), "--report", REPORT]
            if command == "average":
                argv += ["--out", AVERAGED]
            out.append({"command": command, "model": model_name(spec), "argv": argv})
    return out


def models_used(workload: str) -> List[str]:
    """The --spec values of a workload, each once."""
    _commands, models, _options = WORKLOADS[workload]
    return list(models)
