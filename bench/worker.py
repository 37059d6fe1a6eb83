"""Benchmark worker: runs a request list through ``diracavg.cli.main``.

One client, one thread, closed loop: each request starts when the previous
one has returned.  Reads its settings as JSON on stdin, runs from the
checkout root and prints one JSON result line on stdout.  The command's own
output is captured, so stdout carries only the result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import resource
import shutil
import sys
import time
import traceback
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reference import reference_time  # noqa: E402
from spans import Tracer, installed_wrappers  # noqa: E402
from workload import AVERAGED, REPORT, TMP_DIR  # noqa: E402


def _read(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def run_request(main, argv: List[str]) -> Dict[str, object]:
    """Run one request; returns its time, exit code, failing checks and digest."""
    for path in (REPORT, AVERAGED):
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a raised exception is a failed request, not a crash
        code, error = None, traceback.format_exc(limit=5)
    elapsed = time.perf_counter() - start
    report = _read(REPORT)
    fails: List[str] = []
    checks = 0
    if report is not None:
        payload = json.loads(report)
        checks = len(payload["checks"])
        fails = sorted({c["check"] for c in payload["checks"] if c["status"] != "pass"})
    digest = hashlib.sha256()
    for part in (report, _read(AVERAGED), out.getvalue().encode(), err.getvalue().encode()):
        digest.update(b"-" if part is None else part)
        digest.update(b"\0")
    return {
        "time_s": elapsed,
        "exit": code,
        "fails": fails,
        "checks": checks,
        "digest": digest.hexdigest(),
        "error": error,
    }


def run_passes(
    main,
    requests: List[List[str]],
    budget: float,
    min_samples: int,
    deadline: float,
    max_passes: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> List[Dict[str, object]]:
    """Whole passes over the list while the next one fits in the budget.

    Passes continue until ``min_samples`` requests have run, unless that
    would pass the hard ``deadline`` (a perf_counter value).  The reference
    computation is timed before each request, outside the request's time.
    """
    passes: List[Dict[str, object]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results, refs = [], []
        for i, argv in enumerate(requests):
            refs.append(reference_time())
            if tracer is not None:
                tracer.request = len(passes) * len(requests) + i
            results.append(run_request(main, argv))
        now = time.perf_counter()
        took = now - t0
        passes.append({"wall_s": took - sum(refs), "requests": results, "reference_s": refs})
        if max_passes is not None and len(passes) >= max_passes:
            break
        if now + took > deadline:
            break
        if len(passes) * len(requests) >= min_samples and now - start + took > budget:
            break
    return passes


def main() -> int:
    cfg = json.load(sys.stdin)
    os.chdir(ROOT)
    deadline = time.perf_counter() + cfg["deadline_s"]
    from diracavg import cli
    from diracavg.config import LIMITS
    import numpy

    requests = [r["argv"] for r in cfg["requests"]]
    os.makedirs(TMP_DIR, exist_ok=True)
    try:
        # lazy imports and first-call set-up happen here, untimed
        run_request(cli.main, ["check-structure", "--spec", requests[0][2], "--report", REPORT])
        result: Dict[str, object] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas_env": {k: os.environ.get(k) for k in cfg["blas_env"]},
            "max_terms_limit": LIMITS.max_terms,
        }
        seconds = cfg["seconds"]
        if not cfg["trace"]:
            result["plain"] = run_passes(cli.main, requests, seconds, cfg["min_samples"], deadline)
        else:
            # half the time untraced, then as many traced passes, so the
            # difference between the two is the tracing overhead
            plain = run_passes(cli.main, requests, seconds / 2, 1, deadline)
            tracer = Tracer()
            with tracer:
                traced = run_passes(
                    cli.main, requests, seconds / 2, 1, deadline,
                    max_passes=len(plain), tracer=tracer,
                )
            self_s, calls = tracer.self_times()
            tracer.write(cfg["span_file"])
            result.update(
                plain=plain,
                traced=traced,
                self_s=self_s,
                calls=dict(calls),
                counters=dict(tracer.counters),
                wrappers_left=installed_wrappers(),
            )
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
