"""Diff the CLI outputs of two torspec checkouts, command by command.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the roots of two checkouts.  Both run the same 111
commands, each in a fresh ``python -m torspec`` with that
checkout's sources alone on ``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``:

- the commands of the benchmark's workloads ``analyze-2d``, ``evolve-rk4``
  and ``sweep-1d`` at seed 1, from ``perfbench/workloads.build_plan``;
- ``analyze``, ``bound``, ``evolve`` and ``check-kernel`` on twenty-two more
  configs (``EXTRA_CONFIGS``): a 1-D CSV kernel table, a 2-D one that is
  translation-invariant along its second axis only (a generic kernel's
  Bloch blocks and its fold over that axis), 1-D and 2-D ``modulated``
  kernels, ``exponential`` kernels with a ``step`` and a
  ``cosine``, a 1-D Gaussian with a ``cosine``, whose reflection s = 0
  fixes nodes, and a Gaussian with a ``zero`` potential; the reductions no
  workload takes (a 1-D reflection that fixes nodes, a 2-D ``constant``
  potential, a 2-D fibre), the first and the last again with
  ``eigenexpansion``, a 2-D ``sine`` kernel with a ``step``, whose Bloch
  pairs are complex blocks, a 2-D ``tophat`` with a ``step``, the product of
  a factor that is not even, so its kernel is not symmetric and its Bloch
  blocks come in complex pairs, a 2-D ``n = 48`` ``constant`` potential, whose
  order-1 ``evolve`` lifts its snapshots in eight blocks, and a 3-D ``n = 8``
  Gaussian with a ``step`` (Bloch blocks) and with a ``cosine`` (the
  reflection s = 0 of the whole matrix); and one config
  for each failure exit code: a non-primitive ``tophat`` (2, or 3 where
  ``evolve`` does not converge), a negative ``sigma`` (1), ``max_iter: 1``
  (3) and a CSV potential table with a positive value (2).

Every artifact is compared byte for byte, a JSON report up to its
``metadata`` block (``perfbench/checks.without_metadata``), and so are
stdout, stderr and the exit code.  Both sides write to the same output
path, so the paths they print agree.  Exit status 0 means every output is
identical and the temporary work directory is removed; 1 lists each
differing file and keeps that directory, with each side's outputs under
``old/`` and ``new/``.  Under a JSON report or ``trace.csv`` that differs
in its numbers, keys and list lengths alone, the list shows, one line each,
every key that one side lacks (``+ path`` added, ``- path`` removed), every
list whose length changed (``~ path: length old -> new``; its entries are
not paired) and every number that moved in the keys both share: its path,
the old and the new value and the relative change.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from checks import without_metadata  # noqa: E402
from workloads import build_plan  # noqa: E402

SEED = 1
WORKLOADS = ("analyze-2d", "evolve-rk4", "sweep-1d")
COMMANDS = ("analyze", "bound", "evolve", "check-kernel")
GAUSSIAN = {"family": "gaussian", "sigma": 0.2}
STEP = {"family": "step", "depth": 1.0, "width": 0.5}
CSV_N = 16
CSV_2D_N = 8
EXTRA_CONFIGS = {
    "csv-1d": {"dimension": 1, "grid_n": CSV_N, "kernel": {"family": "csv", "path": "kernel.csv"},
               "potential": STEP},
    "csv-2d": {"dimension": 2, "grid_n": CSV_2D_N, "kernel": {"family": "csv", "path": "kernel-2d.csv"},
               "potential": STEP},
    "modulated-1d": {"dimension": 1, "grid_n": 64,
                     "kernel": {"family": "modulated", "base": GAUSSIAN, "epsilon": 0.3},
                     "potential": STEP},
    "modulated-2d": {"dimension": 2, "grid_n": 16,
                     "kernel": {"family": "modulated", "base": GAUSSIAN, "epsilon": 0.3},
                     "potential": STEP},
    "exponential-1d": {"dimension": 1, "grid_n": 64, "kernel": {"family": "exponential", "scale": 0.2},
                       "potential": STEP},
    "exponential-2d": {"dimension": 2, "grid_n": 16, "kernel": {"family": "exponential", "scale": 0.2},
                       "potential": {"family": "cosine", "depth": 1.0}},
    "cosine-1d": {"dimension": 1, "grid_n": 64, "kernel": GAUSSIAN,
                  "potential": {"family": "cosine", "depth": 1.0}},
    "gaussian-zero": {"dimension": 1, "grid_n": 32, "kernel": GAUSSIAN, "potential": {"family": "zero"}},
    "sector-fixed-1d": {"dimension": 1, "grid_n": 18, "kernel": GAUSSIAN, "potential": STEP},
    "constant-2d": {"dimension": 2, "grid_n": 16, "kernel": GAUSSIAN,
                    "potential": {"family": "constant", "depth": 1.0}},
    "fibre-2d": {"dimension": 2, "grid_n": 16, "kernel": GAUSSIAN, "potential": STEP},
    "sector-fixed-1d-eigenexpansion": {"dimension": 1, "grid_n": 18, "kernel": GAUSSIAN, "potential": STEP,
                                       "evolution": {"method": "eigenexpansion"}},
    "fibre-2d-eigenexpansion": {"dimension": 2, "grid_n": 16, "kernel": GAUSSIAN, "potential": STEP,
                                "evolution": {"method": "eigenexpansion"}},
    "sine-2d": {"dimension": 2, "grid_n": 16, "kernel": {"family": "sine"}, "potential": STEP},
    "tophat-2d": {"dimension": 2, "grid_n": 16, "kernel": {"family": "tophat", "width": 0.125}, "potential": STEP},
    "constant-2d-48": {"dimension": 2, "grid_n": 48, "kernel": GAUSSIAN,
                       "potential": {"family": "constant", "depth": 1.0}},
    "gaussian-3d": {"dimension": 3, "grid_n": 8, "kernel": GAUSSIAN, "potential": STEP},
    "cosine-3d": {"dimension": 3, "grid_n": 8, "kernel": GAUSSIAN, "potential": {"family": "cosine", "depth": 1.0}},
    "nonprimitive-1d": {"dimension": 1, "grid_n": 16, "kernel": {"family": "tophat", "width": 1 / 32},
                        "potential": STEP},
    "bad-config": {"dimension": 1, "grid_n": 16, "kernel": {"family": "gaussian", "sigma": -1},
                   "potential": STEP},
    "max-iter-1": {"dimension": 1, "grid_n": 16, "kernel": GAUSSIAN, "potential": STEP,
                   "analysis": {"max_iter": 1}},
    "positive-csv": {"dimension": 1, "grid_n": CSV_N, "kernel": GAUSSIAN,
                     "potential": {"family": "csv", "path": "potential.csv"}},
}


def _sources(checkout: str) -> str:
    """The checkout's ``src`` directory, which holds the ``torspec`` package."""
    src = os.path.abspath(os.path.join(checkout, "src"))
    if not os.path.isdir(os.path.join(src, "torspec")):
        sys.exit(f"no src/torspec under {checkout}")
    return src


def _write_kernel_table(path: str, dimension: int, n: int) -> None:
    """The positive kernel table prod_a g(x_a - y_a) (1 + 0.3 sin 2 pi x_0), g a periodic
    Gaussian: not symmetric, and translation-invariant along every axis but the first.  Its header
    names x, y in 1-D and x1, ..., xd, y1, ..., yd otherwise, as torspec reads it."""
    header = [c if dimension == 1 else f"{c}{a}" for c in "xy" for a in range(1, dimension + 1)]
    nodes = list(product([i / n for i in range(n)], repeat=dimension))
    rows = []
    for x in nodes:
        for y in nodes:
            z = [(a - b + 0.5) % 1.0 - 0.5 for a, b in zip(x, y)]
            value = math.prod(math.exp(-t * t / 0.08) for t in z) * (1.0 + 0.3 * math.sin(2.0 * math.pi * x[0]))
            rows.append(",".join(map(repr, (*x, *y, value))) + "\n")
    with open(path, "w") as handle:
        handle.write(",".join(header) + ",value\n" + "".join(rows))


def _write_potential_table(path: str) -> None:
    """A step potential table whose node 0 is positive, the rest nonpositive."""
    values = [0.5] + [-1.0 if i < CSV_N // 2 else 0.0 for i in range(1, CSV_N)]
    with open(path, "w") as handle:
        handle.write("x,value\n" + "".join(f"{i / CSV_N!r},{v!r}\n" for i, v in enumerate(values)))


def _plan(work: str) -> list[tuple[str, list[str]]]:
    """Every command as (name, argv without ``--out``)."""
    plan = []
    for workload in WORKLOADS:
        for entry in build_plan(workload, SEED, os.path.join(work, "plans", workload)):
            argv = entry["argv"]
            at = argv.index("--out")
            name = f"{workload}/{os.path.basename(argv[at + 1])}"
            plan.append((name, argv[:at] + argv[at + 2:]))
    config_dir = os.path.join(work, "plans", "extra")
    os.makedirs(config_dir, exist_ok=True)
    _write_kernel_table(os.path.join(config_dir, "kernel.csv"), 1, CSV_N)
    _write_kernel_table(os.path.join(config_dir, "kernel-2d.csv"), 2, CSV_2D_N)
    _write_potential_table(os.path.join(config_dir, "potential.csv"))
    for config_name, config in EXTRA_CONFIGS.items():
        path = os.path.join(config_dir, f"{config_name}.json")
        with open(path, "w") as handle:
            json.dump(config, handle, indent=2)
        for command in COMMANDS:
            plan.append((f"extra/{command}-{config_name}", [command, "--config", path, "--seed", str(SEED)]))
    return plan


def _run(src: str, argv: list[str], out: str, keep: str) -> None:
    """Run one command into ``out``, then move its artifacts, stdout, stderr
    and exit code to ``keep``."""
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-m", "torspec", *argv, "--out", out],
                          env=env, capture_output=True, text=True)
    os.makedirs(out, exist_ok=True)
    for name, text in (("stdout", done.stdout), ("stderr", done.stderr), ("exit_code", f"{done.returncode}\n")):
        with open(os.path.join(out, name), "w") as handle:
            handle.write(text)
    os.makedirs(os.path.dirname(keep), exist_ok=True)
    shutil.move(out, keep)


def _comparable(path: str) -> str:
    with open(path) as handle:
        text = handle.read()
    return without_metadata(text) if path.endswith(".json") else text


def _differences(old: str, new: str) -> list[str]:
    names = sorted(set(os.listdir(old)) | set(os.listdir(new)))
    return [name for name in names
            if not (os.path.isfile(os.path.join(old, name)) and os.path.isfile(os.path.join(new, name)))
            or _comparable(os.path.join(old, name)) != _comparable(os.path.join(new, name))]


def _numeric_leaves(old, new, path: str, changes: list) -> bool:
    """Append to ``changes`` (path, old, new) for each number that differs between two
    parsed documents, "+ path" or "- path" for each key that only the new or only the
    old one holds, and "~ path: length old -> new" for each list whose length differs,
    whose entries are then not paired; False where they differ otherwise (a string, a type)."""
    if isinstance(old, dict) and isinstance(new, dict):
        at = lambda key: f"{path}.{key}" if path else key
        changes += [f"- {at(key)}" for key in old if key not in new]
        shared = all(_numeric_leaves(old[key], new[key], at(key), changes) for key in old if key in new)
        changes += [f"+ {at(key)}" for key in new if key not in old]
        return shared
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            changes.append(f"~ {path or '(top level)'}: length {len(old)} -> {len(new)}")
            return True
        return all(
            _numeric_leaves(a, b, f"{path}[{i}]", changes) for i, (a, b) in enumerate(zip(old, new)))
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)]
    if all(numbers) and repr(old) != repr(new):
        changes.append((path, old, new))
    return all(numbers) or old == new


def _parse(name: str, text: str):
    """A JSON report without its ``metadata``, or ``trace.csv`` as a list of rows keyed by column."""
    if name.endswith(".json"):
        document = json.loads(text)
        document.pop("metadata", None)
        return document
    header, *rows = text.splitlines()
    return [dict(zip(header.split(","), map(float, row.split(",")))) for row in rows]


def numeric_changes(name: str, old: str, new: str) -> list | None:
    """The numbers that moved between two texts of the artifact ``name``, a JSON report
    outside its ``metadata`` or ``trace.csv``, as (path, old, new), the keys only one
    text holds, as "+ path" (new) or "- path" (old), and the lists that changed length,
    as "~ path: length old -> new"; None where the texts differ in anything else, fail
    to parse, or are of another artifact."""
    if not (name.endswith(".json") or name == "trace.csv"):
        return None
    try:
        documents = _parse(name, old), _parse(name, new)
    except ValueError:  # json's decode error included
        return None
    changes: list = []
    return changes if _numeric_leaves(*documents, "", changes) else None


def _moved(old: str, new: str, name: str) -> list[str]:
    """One line per number that moved, per key added or removed and per list that changed
    length, in the file ``name`` between ``old`` and ``new``."""
    paths = [os.path.join(side, name) for side in (old, new)]
    if not all(map(os.path.isfile, paths)):
        return []
    texts = []
    for path in paths:
        with open(path) as handle:
            texts.append(handle.read())
    lines = []
    for change in numeric_changes(name, *texts) or []:
        if isinstance(change, str):  # a key one side lacks, or a list's lengths
            lines.append(f"  {change}")
            continue
        path, a, b = change
        relative = (b - a) / abs(a) if a else math.copysign(math.inf, b - a)
        lines.append(f"  {path}: {a!r} -> {b!r} ({relative:+.2e} relative)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Diff the CLI outputs of two torspec checkouts.")
    parser.add_argument("old", help="root of the checkout to compare against")
    parser.add_argument("new", help="root of the checkout under test")
    args = parser.parse_args(argv)
    sides = {"old": _sources(args.old), "new": _sources(args.new)}
    work = tempfile.mkdtemp(prefix="compare-outputs-")

    differing, listing = [], []
    plan = _plan(work)
    for name, command in plan:
        out = os.path.join(work, "out")  # one path for both sides, so their stdout agrees
        for side, src in sides.items():
            _run(src, command, out, os.path.join(work, side, name))
        old, new = os.path.join(work, "old", name), os.path.join(work, "new", name)
        for file in _differences(old, new):
            differing.append(f"{name}/{file}")
            listing += [differing[-1], *_moved(old, new, file)]
    if differing:
        print("\n".join(listing))
        print(f"{len(differing)} files differ; outputs kept under {work}")
        return 1
    shutil.rmtree(work)
    print(f"{len(plan)} commands: all outputs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
