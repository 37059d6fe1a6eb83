"""Self-tests for the benchmark harness: request generation, verdicts, tracing."""

from __future__ import annotations

import os

import pytest

import run
import worker
from diracavg import cli, dirac, rings
from spans import Tracer, installed_wrappers
from workload import TMP_DIR, WORKLOADS, generate


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.makedirs(TMP_DIR)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_the_same_requests(workload):
    assert generate(workload, 5) == generate(workload, 5)
    assert generate(workload, 5) != generate(workload, 6)


def test_a_wrong_expectation_is_counted_as_failed(in_tmp, monkeypatch):
    requests = [
        r for r in generate("construct", 1) if r["command"] == "check-structure"
    ][:2]
    passes = [{"requests": [worker.run_request(cli.main, r["argv"]) for r in requests]}]
    assert run.judge(requests, passes)[1:] == (0, [])

    real = run.expected

    def wrong(command, model):
        if model == requests[0]["model"]:
            return 1, frozenset({"SE1"})
        return real(command, model)

    monkeypatch.setattr(run, "expected", wrong)
    attempted, failed, problems = run.judge(requests, passes)
    assert (attempted, failed, len(problems)) == (2, 1, 1)


def test_tracing_leaves_reports_unchanged_and_no_wrapper_installed(in_tmp):
    argv = ["dirac-verify", "--spec", "flat", "--samples", "3", "--report", worker.REPORT]
    plain = worker.run_request(cli.main, argv)
    originals = (cli.involutivity_check, dirac.DiracSection.components_at, rings.Poly.__mul__)
    tracer = Tracer()
    with tracer:
        assert cli.involutivity_check is not originals[0]
        traced = worker.run_request(cli.main, argv)
    assert traced["digest"] == plain["digest"]
    assert installed_wrappers() == []
    assert (cli.involutivity_check, dirac.DiracSection.components_at, rings.Poly.__mul__) == originals
    self_s, calls = tracer.self_times()
    assert calls["cli.main"] == 1 and calls["dirac.involutivity_check"] == 1
    assert calls["dirac.components_at"] > 0 and tracer.counters["rings.poly_mul.calls"] > 0
    root = [end - start for _r, _s, parent, _n, start, end in tracer.spans if parent is None]
    assert sum(self_s.values()) == pytest.approx(sum(root), rel=1e-9)
