"""Benchmark of the torspec CLI at the documented scale limits.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --all

A run repeats the workload's command list until ``--seconds`` have passed,
each pass in a fresh interpreter that drives ``torspec.cli.main`` in a closed
loop with one client: each command starts when the previous one has finished.
BLAS runs on one thread.  Every command's output is checked, and a repeated
command must write the same report as in the first pass.  Set-up time is the
median over the passes and extra set-up-only processes.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
from spans around each layer.  The last line of standard output is the JSON
result.

``--self-test`` runs every workload at small grid sizes, checks that each
metric named in BENCHMARK.json appears with its unit, and checks that a
report with lambda shifted by 1e-3 counts as a failure.  ``--all`` runs every
workload once for each of the seeds 1 to 10 plus one traced run each, prints
the quartiles, and writes them with the source line count to
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import check_command, read_artifacts  # noqa: E402
from tracing import PER_LAYER, layer_metrics, unit  # noqa: E402
from worker import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS, build_plan  # noqa: E402

SETUP_SAMPLES = 41
SEEDS = range(1, 11)
TIME_LIMIT_S = 170.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
COMMAND_KINDS = {"analyze": "analyze_s", "bound": "bound_s", "evolve": "evolve_s"}


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update({name: "1" for name in THREAD_VARS})
    return env


def _worker(args: list[str], deadline: float) -> str:
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload process exceeded {TIME_LIMIT_S} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"workload process exited {done.returncode}:\n{done.stderr[-4000:]}")
    return done.stdout


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload in fresh processes and return its metrics and record."""
    if not os.path.isfile(os.path.join(ROOT, "src", "torspec", "__init__.py")):
        raise BenchmarkError(f"no torspec sources under {os.path.join(ROOT, 'src')}")
    if workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    deadline = time.monotonic() + TIME_LIMIT_S
    tag = f"{'smoke-' if smoke else ''}{workload}-seed{seed}-trace{int(trace)}"
    work_dir = os.path.join(HERE, ".runs", tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    plan = {"root": ROOT, "work_dir": work_dir, "trace": trace,
            "commands": build_plan(workload, seed, work_dir, smoke)}
    plan_path = os.path.join(work_dir, "plan.json")
    with open(plan_path, "w") as handle:
        json.dump(plan, handle, indent=1)

    def setup_only() -> float:
        return json.loads(_worker(["setup", plan_path], deadline).splitlines()[-1])["setup_s"]

    setup_only()  # untimed: compiles bytecode once per checkout
    # half the set-up samples come before the passes and the rest after, so
    # they span the whole run rather than one burst at its end
    setups = [] if trace else [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    passes = []
    end = time.monotonic() + seconds
    while not passes or time.monotonic() < end or (trace and len(passes) < 2):
        _worker(["run", plan_path, str(len(passes))], deadline)
        with open(os.path.join(work_dir, f"pass{len(passes)}.json")) as handle:
            passes.append(json.load(handle))
    untraced = [p for p in passes if not p["traced"]]
    setups += [p["setup_s"] for p in untraced]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(setup_only())

    summary = {"samples": {"setup_s": len(setups), "passes": len(untraced)}}
    if trace:
        traced = [i for i, p in enumerate(passes) if p["traced"]]
        per_pass = []
        for i in traced:
            with open(os.path.join(work_dir, f"spans{i}.json")) as handle:
                per_pass.append(layer_metrics(json.load(handle)))
        values = {m: statistics.median(p.get(m, 0.0) for p in per_pass) for m in PER_LAYER}
        values["trace.overhead_s"] = (statistics.median(passes[i]["wall_s"] for i in traced)
                                      - statistics.median(p["wall_s"] for p in untraced))
        metrics = {m: {"value": values[m], "unit": unit(m)} for m in PER_LAYER}
        summary["samples"]["traced_passes"] = len(traced)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
        # per-kind times apply only where the workload runs that kind of command
        summary["by_kind"] = {
            name: statistics.median(p["by_kind"][kind] for p in untraced)
            for kind, name in COMMAND_KINDS.items() if kind in untraced[0]["by_kind"]
        }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [problem for p in passes for problem in p["problems"]]
    summary["failed_frac"] = failed / attempted
    return {
        "workload": workload, "seed": seed, "trace": trace, "env": passes[0]["env"],
        "problems": problems, **summary,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def report_lines(run: dict) -> list[str]:
    res = run["result"]
    samples = run["samples"]
    lines = [f"workload {run['workload']} seed {run['seed']} trace {int(run['trace'])}: "
             f"{samples['passes']} untraced passes, {res['attempted']} commands checked",
             "env " + json.dumps(run["env"], sort_keys=True),
             "samples " + json.dumps(samples)]
    for name, metric in res["metrics"].items():
        lines.append(f"  {name:<46} {metric['value']:>14.6f} {metric['unit']}")
    for name, value in run.get("by_kind", {}).items():
        lines.append(f"  {name:<46} {value:>14.6f} s   (median of {samples['passes']} passes)")
    lines.append(f"  {'failed_frac':<46} {run['failed_frac']:>14.6f}   "
                 f"({res['failed']}/{res['attempted']} commands)")
    for problem in run["problems"]:
        lines.append("  FAILED " + json.dumps(problem))
    return lines


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def self_test() -> list[str]:
    """Small-size runs of every workload; returns the problems found."""
    spec = _benchmark_spec()
    problems = []
    layers_seen = set()
    for workload in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            run = run_workload(workload, 1, 0, trace, smoke=True)
            print("\n".join(report_lines(run)))
            metrics = run["result"]["metrics"]
            for entry in spec[section]:
                got = metrics.get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    problems.append(f"{workload}: metric {entry['name']} [{entry['unit']}] reported as {got}")
                elif trace and got["value"] != 0:
                    layers_seen.add(entry["name"])
            if not run["result"]["correct"]:
                problems.append(f"{workload}: checks failed on an untampered run")
            if trace and workload == "evolve-rk4" and metrics["discretize.assemble_birman_schwinger.calls"]["value"]:
                problems.append("evolve-rk4 assembles Q_mu, which its command never needs")
    # a layer that reads 0 on every workload is no longer wrapped: renamed or removed
    for entry in spec["per_layer"]:
        if entry["name"] not in layers_seen:
            problems.append(f"per-layer metric {entry['name']} is 0 on every workload")
    names = {e["name"] for e in spec["workloads"]}
    if names != set(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(names)} differ from {sorted(WORKLOADS)}")

    # a report whose lambda moved by 1e-3 must count as a failure
    with open(os.path.join(HERE, ".runs", "smoke-sweep-1d-seed1-trace0", "plan.json")) as handle:
        plan = json.load(handle)
    for command in plan["commands"]:
        if command["kind"] != "analyze":
            continue
        out_dir = command["argv"][command["argv"].index("--out") + 1].replace("{pass}", "0")
        texts = read_artifacts("analyze", out_dir)
        if check_command(command, 0, texts, texts):
            problems.append(f"untampered report of {command['argv'][:3]} fails its checks")
        report = json.loads(texts["report.json"])
        report["lambda"] += 1e-3
        tampered = {"report.json": json.dumps(report, indent=2)}
        if not check_command(command, 0, tampered, None):
            problems.append(f"tampered report of {command['argv'][:3]} passed its checks")
    return problems


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "values": values}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / q2 if q2 else None,
            "values": values}


def run_all(seconds: float) -> dict:
    """Every workload once per seed, untraced, plus one traced run each."""
    loc = 0
    for path in glob.glob(os.path.join(ROOT, "src", "torspec", "*.py")):
        with open(path) as handle:
            loc += sum(1 for _ in handle)
    seeds = list(SEEDS)
    baseline = {"src_loc": loc, "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            run = run_workload(workload, seed, seconds, False)
            print("\n".join(report_lines(run)), flush=True)
            runs.append(run)
        traced = run_workload(workload, seeds[0], seconds, True)
        print("\n".join(report_lines(traced)), flush=True)
        entry = {
            "env": runs[0]["env"],
            "failed_frac": sum(r["result"]["failed"] for r in runs) / sum(r["result"]["attempted"] for r in runs),
            "end_to_end": {m: _quartiles([r["result"]["metrics"][m]["value"] for r in runs]) for m in END_TO_END},
            "by_kind": {k: _quartiles([r["by_kind"][k] for r in runs]) for k in runs[0]["by_kind"]},
            "per_layer": {m: v["value"] for m, v in traced["result"]["metrics"].items()},
        }
        baseline["workloads"][workload] = entry
        for metric, stats in entry["end_to_end"].items():
            print(f"{workload:<12} {metric:<12} median {stats['median']:.6f} "
                  f"IQR/median {stats.get('iqr_share')}", flush=True)
    return baseline


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.self_test:
            problems = self_test()
            print("\n".join(["self-test FAILED:", *problems] if problems else ["self-test passed"]))
            return 1 if problems else 0
        seconds = args.seconds if args.seconds is not None else _benchmark_spec()["run_seconds"]
        if args.all:
            baseline = run_all(seconds)
            with open(os.path.join(HERE, "baseline.json"), "w") as handle:
                json.dump(baseline, handle, indent=1)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        run = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report_lines(run)))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
