"""Workload process: one fresh interpreter that imports torspec and runs a plan.

    python3 worker.py setup <plan.json>        time imports and config loading only
    python3 worker.py run <plan.json> <pass>   also run the command list once

A pass runs the command list through ``torspec.cli.main`` in this process,
one command after the other, as a user's CLI calls would in fresh processes.
Odd passes of a traced plan record spans.  Results go to the plan's work
directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

from checks import check_command, read_artifacts
from tracing import Recorder

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MAX_PROBLEMS = 20


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _run_command(cli, argv: list[str]) -> tuple[int, float, float, str]:
    """Run one CLI command in-process; returns exit code, wall, cpu, stderr."""
    err = io.StringIO()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a stray exception is a failed command, not a crashed benchmark
            traceback.print_exc()
            code = -1
    return code, time.perf_counter() - start, _cpu_s() - cpu0, err.getvalue()


def _argv(command: dict, index: int) -> list[str]:
    return [arg.replace("{pass}", str(index)) for arg in command["argv"]]


def _out_dir(argv: list[str]) -> str:
    return argv[argv.index("--out") + 1]


def run_pass(plan: dict, index: int, cli) -> dict:
    """Run the command list once, checking each command's artifacts against
    the invariants and against the same command's artifacts from pass 0."""
    recorder = Recorder() if plan["trace"] and index % 2 == 1 else None
    record = {"traced": recorder is not None, "wall_s": 0.0, "cpu_s": 0.0, "by_kind": {},
              "attempted": 0, "failed": 0, "problems": []}
    if recorder is not None:
        recorder.install()
    for command in plan["commands"]:
        argv = _argv(command, index)
        if recorder is not None:
            recorder.command = f"{index}:{command['id']}"
            code, wall, cpu, err = recorder.span(f"command.{command['kind']}", _run_command)(cli, argv)
        else:
            code, wall, cpu, err = _run_command(cli, argv)
        record["wall_s"] += wall
        record["cpu_s"] += cpu
        record["by_kind"][command["kind"]] = record["by_kind"].get(command["kind"], 0.0) + wall
        reference = read_artifacts(command["kind"], _out_dir(_argv(command, 0))) if index else None
        found = check_command(command, code, read_artifacts(command["kind"], _out_dir(argv)), reference)
        record["attempted"] += 1
        if found:
            record["failed"] += 1
            if len(record["problems"]) < MAX_PROBLEMS:
                record["problems"].append({"pass": index, "command": argv[:3],
                                           "problems": found, "stderr": err[-2000:]})
    if recorder is not None:
        with open(os.path.join(plan["work_dir"], f"spans{index}.json"), "w") as handle:
            json.dump(recorder.dump(), handle)
    # ru_maxrss is in KiB; report MB (10**6 bytes), as discretize.operator_matrix.mb does
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return record


def main() -> int:
    mode, plan_path = sys.argv[1], sys.argv[2]
    with open(plan_path) as handle:
        plan = json.load(handle)

    start = time.perf_counter()
    import numpy  # noqa: F401  (timed: users pay the import on every CLI call)
    import torspec
    from torspec import cli
    from torspec.config import load_config

    for path in sorted({c["argv"][c["argv"].index("--config") + 1] for c in plan["commands"]}):
        load_config(path)
    setup_s = time.perf_counter() - start

    source = os.path.realpath(os.path.join(plan["root"], "src", "torspec"))
    if os.path.dirname(os.path.realpath(torspec.__file__)) != source:
        print(f"imported torspec from {torspec.__file__}, expected {source}", file=sys.stderr)
        return 2
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    index = int(sys.argv[3])
    result = {"setup_s": setup_s, "env": environment(), **run_pass(plan, index, cli)}
    with open(os.path.join(plan["work_dir"], f"pass{index}.json"), "w") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
