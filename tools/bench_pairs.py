"""Run the benchmark on two checkouts in alternating pairs and summarize the pairs.

    python3 tools/bench_pairs.py OLD NEW --label L [--workloads W ...] [--pairs K] [--seconds S]

OLD and NEW are the roots of two checkouts.  For each workload (by default
``analyze-2d``, ``evolve-rk4`` and ``sweep-1d``) and each pair k = 1..K, both
sides run

    python3 perfbench/run.py --workload W --seed k --seconds S

in a fresh copy of their checkout's ``src/`` and ``perfbench/``, with
``PYTHONDONTWRITEBYTECODE=1``, so neither side reuses bytecode or run
directories from an earlier run.  OLD runs first in odd pairs and NEW in even
ones.  A side's result is the JSON on the last line of that command's
standard output; its ``env`` line gives the numpy and BLAS versions, the
thread variables and ``nproc`` the workers saw.

The tool writes ``BENCH_<L>.json`` in the current directory: every pair's
metrics and failure counts, and per workload and metric each side's median
and quartiles, the relative change of the medians and the pairs each side
wins (the lower value wins: every end-to-end metric of the benchmark is
better lower; equal values win for neither).  ``failed`` counts the commands
that failed their checks on each side, plus one for each run that printed
no result; ``/proc/loadavg`` is recorded before and after.  After each pair
a host-speed probe, the median time of ``PROBE_REPEATS`` products of a fixed
``PROBE_ORDER``-square matrix with itself, runs in a child process with the
thread variables that pair's runs saw; ``probe_s`` holds it per pair,
summarized by its median and quartiles over the pairs that gave one.  Exit
status 0 means no command failed on either side.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("analyze-2d", "evolve-rk4", "sweep-1d")
SIDES = ("old", "new")
COPIED = ("src", "perfbench")
PROBE_ORDER, PROBE_REPEATS = 256, 21
PROBE = f"""
import time
import numpy as np
a = np.linspace(0.0, 1.0, {PROBE_ORDER}**2).reshape({PROBE_ORDER}, {PROBE_ORDER})
times = []
for _ in range({PROBE_REPEATS}):
    start = time.perf_counter()
    a @ a
    times.append(time.perf_counter() - start)
print(sorted(times)[len(times) // 2])
"""


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _copy(checkout: str, dest: str) -> str:
    """Fresh copies of the checkout's ``src/`` and ``perfbench/`` under ``dest``."""
    for name in COPIED:
        shutil.copytree(os.path.join(checkout, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns("__pycache__", ".runs"))
    return dest


def parse_run(stdout: str) -> dict | None:
    """A run's result, the JSON of its last stdout line, with ``env`` from its ``env`` line;
    None when the last line is not a result."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if not isinstance(result, dict) or "metrics" not in result:
        return None
    env = [line[len("env "):] for line in lines if line.startswith("env ")]
    result["env"] = json.loads(env[0]) if env else None
    return result


def _run(root: str, workload: str, seed: int, seconds: float) -> tuple[dict | None, str]:
    """One benchmark run in ``root``: its parsed result and the tail of its stderr."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=root, env=env, capture_output=True, text=True)
    return (parse_run(done.stdout) if done.returncode == 0 else None), done.stderr[-2000:]


def probe(threads: dict | None) -> float | None:
    """The host-speed probe's median seconds, run in a child process with the thread
    variables ``threads`` set; None when it prints no time."""
    threads = {name: value for name, value in (threads or {}).items() if value is not None}
    done = subprocess.run([sys.executable, "-c", PROBE], env={**os.environ, **threads}, capture_output=True, text=True)
    try:
        return float(done.stdout)
    except ValueError:
        return None


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    """Per metric, each side's median and quartiles over the pairs in which both sides gave
    a result, the medians' relative change and the pairs each side wins; plus those pairs'
    count and the failures per side, and the median and quartiles of the pairs' probes.
    A pair is {"old": {metric: value}, "new": {...}, "failed": {"old": n, "new": n},
    "probe_s": seconds or None}, a side without a result an empty dict."""
    complete = [p for p in pairs if p["old"] and p["new"]]
    summary = {}
    for metric in complete[0]["old"] if complete else ():
        values = {side: [p[side][metric] for p in complete] for side in SIDES}
        stats = {side: _quartiles(values[side]) for side in SIDES}
        old, new = stats["old"]["median"], stats["new"]["median"]
        summary[metric] = {
            **stats,
            "change": (new - old) / abs(old) if old else None,
            "wins": {"old": sum(a < b for a, b in zip(values["old"], values["new"])),
                     "new": sum(b < a for a, b in zip(values["old"], values["new"]))},
        }
    summary["complete"] = len(complete)
    summary["failed"] = {side: sum(p["failed"][side] for p in pairs) for side in SIDES}
    probes = [p["probe_s"] for p in pairs if p.get("probe_s") is not None]
    if probes:
        summary["probe_s"] = _quartiles(probes)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="root of the checkout to compare against")
    parser.add_argument("new", help="root of the checkout under test")
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    checkouts = {"old": os.path.abspath(args.old), "new": os.path.abspath(args.new)}

    record = {"label": args.label, "pairs": args.pairs, "seconds": args.seconds, "workloads": {},
              "env": {}, "loadavg": {"before": _loadavg()}}
    for workload in args.workloads:
        pairs = []
        for k in range(1, args.pairs + 1):
            pair, threads = {"seed": k, "first": "old" if k % 2 else "new", "failed": {}}, None
            order = SIDES if k % 2 else SIDES[::-1]
            with tempfile.TemporaryDirectory(prefix="bench-pairs-") as work:
                for side in order:
                    result, stderr = _run(_copy(checkouts[side], os.path.join(work, side)), workload, k,
                                          args.seconds)
                    if result is None:
                        print(f"{workload} pair {k} {side}: no result\n{stderr}", file=sys.stderr)
                        pair[side], pair["failed"][side] = {}, 1
                        continue
                    record["env"].setdefault(side, result["env"])
                    threads = (result["env"] or {}).get("threads", threads)
                    pair[side] = {m: v["value"] for m, v in result["metrics"].items()}
                    pair["failed"][side] = result["failed"]
            pair["probe_s"] = probe(threads)
            pairs.append(pair)
            print(f"{workload} pair {k}: " + json.dumps({key: pair[key] for key in (*SIDES, "probe_s")}), flush=True)
        record["workloads"][workload] = {"summary": summarize(pairs), "pairs": pairs}
    record["loadavg"]["after"] = _loadavg()
    with open(f"BENCH_{args.label}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    failed = sum(w["summary"]["failed"][side] for w in record["workloads"].values() for side in SIDES)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
