"""The result parsing and the pair summary of ``tools/bench_pairs.py``."""

import importlib.util
import json
import os
import subprocess

import pytest

from conftest import REPO_ROOT


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO_ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pair(old, new, failed=(0, 0)):
    return {"old": {"wall_s": old} if old is not None else {}, "new": {"wall_s": new} if new is not None else {},
            "failed": {"old": failed[0], "new": failed[1]}}


def test_a_run_is_its_last_stdout_line_with_the_env_line_beside_it(bench):
    env = {"numpy": "2.4.6", "nproc": 2}
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
    stdout = f"workload w seed 1\nenv {json.dumps(env)}\n  wall_s 0.5 s\n{json.dumps(result)}\n"
    assert bench.parse_run(stdout) == {**result, "env": env}
    assert bench.parse_run(json.dumps(result)) == {**result, "env": None}
    assert bench.parse_run("") is None
    assert bench.parse_run("benchmark error: no sources\n") is None
    assert bench.parse_run('{"correct": true}\n') is None  # JSON, but no result


def test_the_summary_gives_medians_quartiles_and_wins(bench):
    pairs = [_pair(1.0, 0.9), _pair(2.0, 2.2), _pair(3.0, 3.0), _pair(4.0, 3.6, failed=(0, 2)), _pair(5.0, 4.5)]
    summary = bench.summarize(pairs)
    wall = summary["wall_s"]
    assert wall["old"] == {"median": 3.0, "q1": 1.5, "q3": 4.5}
    assert wall["new"] == pytest.approx({"median": 3.0, "q1": 1.55, "q3": 4.05}, rel=1e-15)
    assert wall["change"] == 0.0
    assert wall["wins"] == {"old": 1, "new": 3}  # the tie wins for neither
    assert summary["complete"] == 5 and summary["failed"] == {"old": 0, "new": 2}


def test_a_pair_without_a_result_counts_as_failed_and_leaves_the_statistics(bench):
    summary = bench.summarize([_pair(1.0, 2.0), _pair(None, 0.5, failed=(1, 0))])
    assert summary["wall_s"]["old"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert summary["wall_s"]["change"] == 1.0 and summary["wall_s"]["wins"] == {"old": 1, "new": 0}
    assert summary["complete"] == 1 and summary["failed"] == {"old": 1, "new": 0}
    assert bench.summarize([_pair(None, None, failed=(1, 1))]) == {"complete": 0, "failed": {"old": 1, "new": 1}}


def test_the_probe_is_summarized_over_the_pairs_that_gave_one(bench):
    pairs = [{**_pair(1.0, 1.0), "probe_s": probe} for probe in (0.003, None, 0.001, 0.002)]
    assert bench.summarize(pairs)["probe_s"] == {"median": 0.002, "q1": 0.001, "q3": 0.003}
    assert "probe_s" not in bench.summarize([{**_pair(1.0, 1.0), "probe_s": None}])


def test_the_probe_runs_in_a_child_with_the_given_thread_variables(bench, monkeypatch):
    assert 0.0 < bench.probe({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": None}) < 1.0
    seen = []

    def run(args, env, **kwargs):
        seen.append(env)
        return subprocess.CompletedProcess(args, 0, stdout="not a time\n", stderr="")

    monkeypatch.setattr(bench.subprocess, "run", run)
    assert bench.probe({"OMP_NUM_THREADS": "1", "BLIS_NUM_THREADS": None}) is None
    assert seen[0]["OMP_NUM_THREADS"] == "1" and seen[0].get("BLIS_NUM_THREADS") == os.environ.get("BLIS_NUM_THREADS")
