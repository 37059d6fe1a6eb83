"""The diracavg benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload construct|sweep|flow --seed N --seconds S --trace 0|1

Generates the workload's requests from the seed, runs them in one worker
process through ``diracavg.cli.main`` and checks every verdict against the
hand-written table in ``expected.py``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the list untraced and then traced, and prints
per-layer self times and counts.  The last stdout line is the result JSON;
the line before it records provenance and details.  Full results and the
span dump go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from expected import KNOWN_DEFECTS, expected  # noqa: E402
from spans import LAYERS  # noqa: E402
from workload import DEV_SEED, HELDOUT_SEED, WORKLOADS, generate, models_used  # noqa: E402

# every run must exit within 180 s; the worker is stopped before that
RUN_LIMIT_S = 170.0
# the tail is the highest percentile with at least this many requests beyond
# it; a run of fewer than 20 requests puts it at or below the median
TAIL_BEYOND = 10
SETUP_REPEATS = 5
# share of the traced wall time the spans must cover
MIN_SPAN_COVERAGE = 0.95
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
OUT_DIR = ".bench_out"

SETUP_CODE = """
import sys
sys.path.insert(0, "src")
import diracavg.cli
from diracavg import fixtures
from diracavg.modelspec import parse_spec
for spec in sys.argv[1:]:
    parse_spec(str(fixtures.fixture_path(spec)) if spec in fixtures.FIXTURES else spec)
"""


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_ENV})
    # a fixed string hash keeps set iteration, and so the work done, the same
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(workload: str, deadline: float) -> Tuple[float, List[float]]:
    """Median time for a fresh interpreter to import the CLI and parse the models."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, *models_used(workload)], cwd=ROOT, env=worker_env()
        )
        # a blocking wait returns when the child exits; wait(timeout) polls
        # in steps of up to 50 ms, which would quantize the time
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited with {code}")
    return statistics.median(times), times


def source_identity() -> Dict[str, Optional[str]]:
    """The git commit when there is one, and a hash of src/ always."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def tail(times: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND requests beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} requests is too few for a tail")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def judge(requests, passes) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems): verdicts against the table, and determinism.

    A request fails when its exit code or its set of failing check ids
    differs from the table.  A problem is anything that makes the run
    incorrect: a failure other than a known defect, or a request whose
    report, averaged model or console output differs between passes.
    """
    attempted = failed = 0
    problems: List[str] = []
    first = passes[0]["requests"]
    for p in passes:
        for req, got, ref in zip(requests, p["requests"], first):
            attempted += 1
            verdict = (got["exit"], frozenset(got["fails"]))
            want = expected(req["command"], req["model"])
            if verdict != want:
                failed += 1
                known = KNOWN_DEFECTS.get((req["command"], req["model"]))
                if known is None or verdict != known[0] or got["error"]:
                    problems.append(
                        f"{' '.join(req['argv'])}: exit {got['exit']} fails {got['fails']}, "
                        f"expected exit {want[0]} fails {sorted(want[1])}"
                        + (f"\n{got['error']}" if got["error"] else "")
                    )
            if got["digest"] != ref["digest"]:
                problems.append(f"{' '.join(req['argv'])}: output differs between passes")
    return attempted, failed, problems


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(result, attempted, failed, setup_s) -> Tuple[Dict, Dict]:
    """End-to-end metrics of the untraced passes.

    Times are gated in units of the reference computation timed between
    requests (``reference.py``): the ``_rel`` metrics are the times in
    seconds divided by the run's median reference time.  The times in
    seconds are printed and recorded too.
    """
    plain = result["plain"]
    walls = [p["wall_s"] for p in plain]
    wall = statistics.median(walls)
    times = [r["time_s"] for p in plain for r in p["requests"]]
    tail_s, tail_pct = tail(times)
    p50 = statistics.median(times)
    ref = statistics.median(t for p in plain for t in p["reference_s"])
    checks = sum(r["checks"] for r in plain[0]["requests"])
    metrics = {
        "wall_rel": metric(wall / ref, "ref"),
        "request_p50_rel": metric(p50 / ref, "ref"),
        "request_tail_rel": metric(tail_s / ref, "ref"),
        "checks_per_ref": metric(checks * ref / wall, "1/ref"),
        "verdict_ok_frac": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    seconds = {
        "wall_s": metric(wall, "s"),
        "request_p50_s": metric(p50, "s"),
        "request_tail_s": metric(tail_s, "s"),
        "checks_per_s": metric(checks / wall, "1/s"),
        "reference_s": metric(ref, "s"),
    }
    details = {
        "seconds": seconds,
        "passes": len(plain),
        "pass_walls_s": walls,
        "request_times_s": [[r["time_s"] for r in p["requests"]] for p in plain],
        "reference_times_s": [p["reference_s"] for p in plain],
        "requests_timed": len(times),
        "tail_percentile": tail_pct,
        "checks_per_pass": checks,
        "failed_frac": failed / attempted,
    }
    return metrics, details


def per_layer(result) -> Tuple[Dict, Dict]:
    """Self times and counts of the traced passes, per pass over the list.

    A ratio with nothing to count (no swept points, no flow) reads 1.0,
    since nothing was skipped or aborted.
    """
    npass = len(result["traced"])
    self_s, calls, counters = result["self_s"], result["calls"], result["counters"]

    def s(name: str) -> Dict[str, object]:
        return metric(self_s.get(name, 0.0) / npass, "s")

    def c(name: str) -> Dict[str, object]:
        return metric(calls.get(name, 0) / npass, "count")

    def k(name: str) -> Dict[str, object]:
        return metric(counters.get(name, 0) / npass, "count")

    metrics: Dict[str, Dict[str, object]] = {}
    for name in (
        "modelspec.parse_spec",
        "modelspec.serialize_spec",
        "coupling.structure_eq_check",
        "coupling.data_to_poisson",
        "coupling.data_to_dirac",
        "tensors.schouten_bracket",
        "tensors.exterior_derivative",
        "actions.pullback_flow",
        "actions.average",
        "averaging.average_coupling",
        "averaging.tr4_check",
        "averaging.adiabatic_check",
        "averaging.gauge_poisson",
        "linalg.rank",
        "linalg.solve",
        "linalg.inverse",
        "linalg.det",
        "dirac.same_span_at",
        "dirac.involutivity_check",
        "dirac.components_at",
        "dirac.coupling_test",
        "moser.flow_batch",
        "moser.eval_stack",
        "moser.evaluator_init",
        "moser.homotopy_residual",
        "moser.bracket_exact",
        "cli.jacobi_checks",
        "cli.main",
    ):
        metrics[f"{name}.self_s"] = s(name)
    for name in (
        "tensors.schouten_bracket",
        "linalg.rank",
        "linalg.solve",
        "dirac.same_span_at",
        "dirac.components_at",
        "moser.flow_batch",
        "moser.eval_stack",
    ):
        metrics[f"{name}.calls"] = c(name)
    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer_s[name.split(".")[0]] += value
    for layer, value in layer_s.items():
        metrics[f"{layer}.self_s"] = metric(value / npass, "s")
    metrics["rings.poly_mul.calls"] = k("rings.poly_mul.calls")
    metrics["rings.max_terms"] = metric(counters.get("rings.max_terms", 0), "count")
    total = counters.get("sampling.points_total", 0)
    metrics["sampling.points_total"] = k("sampling.points_total")
    metrics["sampling.points_skipped"] = k("sampling.points_skipped")
    metrics["sampling.usable_ratio"] = metric(
        counters.get("sampling.points_usable", 0) / total if total else 1.0, "ratio"
    )
    flows = counters.get("moser.flow_trajectories", 0)
    metrics["moser.trajectories"] = k("moser.trajectories")
    metrics["moser.aborted"] = k("moser.aborted")
    metrics["moser.trajectory_ok_ratio"] = metric(
        (flows - counters.get("moser.aborted", 0)) / flows if flows else 1.0, "ratio"
    )
    plain = statistics.median(p["wall_s"] for p in result["plain"])
    traced = statistics.median(p["wall_s"] for p in result["traced"])
    metrics["trace.overhead_s"] = metric(traced - plain, "s")
    traced_total = sum(p["wall_s"] for p in result["traced"])
    span_total = sum(self_s.values())
    details = {
        "passes": npass,
        "plain_wall_s": plain,
        "traced_wall_s": traced,
        "span_coverage": span_total / traced_total,
        "layer_share": {k2: v / span_total for k2, v in layer_s.items()},
        "max_terms_limit": result["max_terms_limit"],
        "wrappers_left": result["wrappers_left"],
    }
    return metrics, details


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    if not (ROOT / "src" / "diracavg" / "cli.py").is_file():
        print(f"error: no diracavg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    requests = generate(args.workload, args.seed)
    os.makedirs(ROOT / OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_s, setup_runs = (None, []) if args.trace else measure_setup(args.workload, deadline)
    cfg = {
        "requests": requests,
        "seconds": args.seconds,
        "trace": args.trace,
        "min_samples": TAIL_BEYOND + 1,
        "blas_env": BLAS_ENV,
        "span_file": str(ROOT / OUT_DIR / f"spans-{tag}.tsv"),
        "deadline_s": deadline - time.perf_counter() - 5.0,
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(cfg), capture_output=True, text=True, cwd=ROOT,
        env=worker_env(), timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    passes = result["plain"] + result.get("traced", [])
    attempted, failed, problems = judge(requests, passes)
    if args.trace:
        metrics, details = per_layer(result)
        if details["wrappers_left"]:
            problems.append(f"wrappers left installed: {details['wrappers_left']}")
        if not MIN_SPAN_COVERAGE <= details["span_coverage"] <= 1.0 + 1e-9:
            problems.append(f"spans cover {details['span_coverage']:.4f} of the traced wall time")
    else:
        metrics, details = end_to_end(result, attempted, failed, setup_s)
        details["setup_runs_s"] = setup_runs

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "dev_seed": DEV_SEED,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 thread",
        "python": result["python"],
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "worker_blas_env": result["blas_env"],
        **source_identity(),
        "argv": [r["argv"] for r in requests],
        "details": details,
        "problems": problems,
    }
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(ROOT / OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**record, **out}, fh, indent=1, sort_keys=True)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, m in {**metrics, **details.get("seconds", {})}.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
