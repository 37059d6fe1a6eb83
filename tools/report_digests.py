"""Print one sha256 per benchmark request, to compare the bytes of two checkouts.

Runs every request of the ``construct``, ``sweep`` and ``flow`` workloads
(``bench/workload.py``) on seeds 1 and 20261017 in-process, through
``diracavg.cli.main``, from the root of a checkout.  Each line holds the
sha256 over the request's exit code, stdout, stderr, report and ``--out``
bytes, then the workload, the seed, the command and the model.  Two
checkouts compare by diffing their outputs:

    python3 tools/report_digests.py > change.txt
    python3 tools/report_digests.py --root ../parent > parent.txt
    diff parent.txt change.txt

Standard library only; it writes only under the checkout's ``.bench_tmp/``,
which it removes afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import shutil
import sys
from typing import Optional, Sequence

SEEDS = (1, 20261017)


def _read(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def request_digest(main, argv: Sequence[str], outputs: Sequence[str]) -> str:
    """The sha256 of one request's exit code, stdout, stderr and output files."""
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raised exception is a result to compare
            code = f"raised {type(exc).__name__}: {exc}"
    digest = hashlib.sha256()
    parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
    for part in parts + [_read(path) for path in outputs]:
        digest.update(b"-" if part is None else part)
        digest.update(b"\0")
    return digest.hexdigest()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="the checkout to run (default: the one holding this script)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    os.chdir(root)
    from diracavg import cli
    import workload

    os.makedirs(workload.TMP_DIR, exist_ok=True)
    try:
        for name in ("construct", "sweep", "flow"):
            for seed in SEEDS:
                for req in workload.generate(name, seed):
                    digest = request_digest(
                        cli.main, req["argv"], (workload.REPORT, workload.AVERAGED)
                    )
                    print(digest, name, seed, req["command"], req["model"], flush=True)
    finally:
        shutil.rmtree(workload.TMP_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
