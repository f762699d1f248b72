"""Workload definitions: the configs each workload runs and its fixed command list.

The configs are inline copies of the README's fixtures f1-f4 plus the two
scale-limit cases, so the benchmark's inputs do not move when ``fixtures/``
does.  ``smoke`` shrinks every grid for the self-test; the commands and
checks stay the same.
"""

from __future__ import annotations

import copy
import json
import math
import os

STEP = {"family": "step", "depth": 1.0, "width": 0.5}

CONFIGS = {
    "f1": {"dimension": 1, "grid_n": 128, "kernel": {"family": "constant", "value": 1.0},
           "potential": {"family": "constant", "depth": 0.3}},
    "f2": {"dimension": 1, "grid_n": 256, "kernel": {"family": "constant", "value": 1.0},
           "potential": STEP},
    "f3": {"dimension": 1, "grid_n": 256, "kernel": {"family": "gaussian", "sigma": 0.2},
           "potential": STEP},
    "f4": {"dimension": 1, "grid_n": 128, "kernel": {"family": "sine", "amplitude": 0.5},
           "potential": {"family": "constant", "depth": 0.3}},
    # documented 2-D limit: n = 48 per axis, N = 2304
    "gauss2d": {"dimension": 2, "grid_n": 48, "kernel": {"family": "gaussian", "sigma": 0.2},
                "potential": STEP},
    # 2 w n is an integer, so the wound tophat has quadrature mass exactly 1
    # and the gap bound applies; its primitivity power is 5 at n = 512
    "tophat": {"dimension": 1, "grid_n": 512, "kernel": {"family": "tophat", "width": 0.125},
               "potential": STEP},
}
for _name in ("f1", "f2", "f3", "f4"):
    CONFIGS[f"{_name}-eigen"] = {**CONFIGS[_name], "evolution": {"method": "eigenexpansion"}}

# Exact maximum eigenvalues stated in the README.
KNOWN_LAMBDA = {"f1": -0.3, "f2": -1.0 + 1.0 / math.sqrt(2.0)}

LIMIT_1D = 512
SMOKE_N = {1: 32, 2: 8}


def _sweep() -> list[tuple]:
    commands = []
    for name in ("f1", "f2", "f3", "f4"):
        commands += [("analyze", name, None), ("bound", name, None),
                     ("check-kernel", name, None), ("evolve", f"{name}-eigen", None)]
    commands += [("analyze", "f3", LIMIT_1D), ("analyze", "f4", LIMIT_1D)]
    commands += [("check-kernel", "tophat", None), ("analyze", "tophat", None),
                 ("bound", "tophat", None)]
    return commands


# Each workload's fixed command list; BENCHMARK.json says why each is there.
WORKLOADS = {
    "analyze-2d": [("analyze", "gauss2d", None)],
    "evolve-rk4": [("evolve", "f3", LIMIT_1D)],
    "sweep-1d": _sweep(),
}


def expectations(config_name: str) -> dict:
    """Values a correct report must show beyond the generic invariants."""
    base = config_name.split("-")[0]
    expect = {}
    if base in KNOWN_LAMBDA:
        expect["lambda"] = KNOWN_LAMBDA[base]
    if base == "tophat":
        # (2 w n - 1) k + 1 >= n first holds at k = 5 for n = 512 and n = 32
        expect["primitive_power"] = 5
    return expect


def build_plan(workload: str, seed: int, work_dir: str, smoke: bool = False) -> list[dict]:
    """Write the workload's configs under ``work_dir`` and return its commands.

    The seed reaches the program only as ``--seed``, folded into the
    non-negative range that numpy's generators accept.
    """
    config_dir = os.path.join(work_dir, "configs")
    os.makedirs(config_dir, exist_ok=True)
    plan = []
    for index, (kind, name, grid_n) in enumerate(WORKLOADS[workload]):
        config = copy.deepcopy(CONFIGS[name])
        if smoke:
            config["grid_n"] = SMOKE_N[config["dimension"]]
            grid_n = grid_n and SMOKE_N[1]
        path = os.path.join(config_dir, f"{name}.json")
        with open(path, "w") as handle:
            json.dump(config, handle, indent=2)
        # "{pass}" is filled in by the workload process
        argv = [kind, "--config", path, "--seed", str(seed % 2**32),
                "--out", os.path.join(work_dir, "out", "pass{pass}", f"{index:02d}-{kind}-{name}")]
        if grid_n is not None:
            argv += ["--grid-n", str(grid_n)]
        plan.append({"id": index, "kind": kind, "config": name, "argv": argv,
                     "expect": expectations(name)})
    return plan
