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

``--workload W`` runs one workload only.  ``--dump DIR`` also writes those
bytes, one directory per request and one file per part, so that two
checkouts compare value by value:

    python3 tools/report_digests.py --workload flow --dump change
    python3 tools/report_digests.py --workload flow --root ../parent --dump parent
    diff -r parent change

Standard library only; it writes only under the checkout's ``.bench_tmp/``,
which it removes afterwards, and under ``--dump``.
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
from typing import List, Optional, Sequence

SEEDS = (1, 20261017)
WORKLOADS = ("construct", "sweep", "flow")
# the file each part of a request is dumped to, in digest order
PARTS = ("exit_code", "stdout", "stderr", "report.json", "out.json")


def _read(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def run_request(main, argv: Sequence[str], outputs: Sequence[str]) -> List[Optional[bytes]]:
    """One request's exit code, stdout, stderr and output files, as bytes;
    None for an output file the request did not write."""
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
    parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
    return parts + [_read(path) for path in outputs]


def digest(parts: Sequence[Optional[bytes]]) -> str:
    out = hashlib.sha256()
    for part in parts:
        out.update(b"-" if part is None else part)
        out.update(b"\0")
    return out.hexdigest()


def dump(folder: pathlib.Path, parts: Sequence[Optional[bytes]]) -> None:
    """Write each part that exists to its own file under folder."""
    folder.mkdir(parents=True, exist_ok=True)
    for name, part in zip(PARTS, parts):
        if part is not None:
            (folder / name).write_bytes(part)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="the checkout to run (default: the one holding this script)",
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="run this workload only")
    parser.add_argument(
        "--dump", type=pathlib.Path, help="also write each request's bytes under this directory"
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    dump_dir = args.dump.resolve() if args.dump else None
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    os.chdir(root)
    from diracavg import cli
    import workload

    os.makedirs(workload.TMP_DIR, exist_ok=True)
    try:
        for name in [args.workload] if args.workload else WORKLOADS:
            for seed in SEEDS:
                for k, req in enumerate(workload.generate(name, seed)):
                    parts = run_request(
                        cli.main, req["argv"], (workload.REPORT, workload.AVERAGED)
                    )
                    if dump_dir is not None:
                        folder = f"{name}-{seed}-{k:02d}-{req['command']}-{req['model']}"
                        dump(dump_dir / folder, parts)
                    print(digest(parts), name, seed, req["command"], req["model"], flush=True)
    finally:
        shutil.rmtree(workload.TMP_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
