"""The benchmark's traced run still finds every torspec layer it wraps.

``perfbench/tracing.py`` wraps functions and methods by name; a refactor that
renames or removes one of them, or stops calling it, breaks
``perfbench/run.py --trace 1`` or its ``--self-test``.  The checks run in a
fresh interpreter, so the wrapping does not leak into the other tests.
"""

import os
import subprocess
import sys

from conftest import REPO_ROOT

CHECK = """
import importlib
import inspect
import sys

from tracing import METHOD_SPANS, PER_LAYER, Recorder

Recorder().install()
spans = {(module.rsplit(".", 1)[-1], attr) for module, _, attr in METHOD_SPANS}
stale = []
for metric in PER_LAYER:
    module, _, rest = metric.partition(".")
    name, _, suffix = rest.rpartition(".")
    if suffix != "s" or importlib.util.find_spec(f"torspec.{module}") is None:
        continue
    obj = getattr(importlib.import_module(f"torspec.{module}"), name, None)
    defined = inspect.isfunction(obj) and obj.__module__ == f"torspec.{module}"
    if not defined and (module, name) not in spans:
        stale.append(metric)
if stale:
    sys.exit(f"per-layer metrics that name no torspec layer: {stale}")
"""

# every smoke command of every workload, traced as the benchmark's worker
# traces it; a per-layer metric they all leave at 0 names a layer no longer called
CALLED = """
import sys
import tempfile

from tracing import PER_LAYER, Recorder, layer_metrics
from workloads import WORKLOADS, build_plan
from torspec import cli

recorder = Recorder()
recorder.install()
with tempfile.TemporaryDirectory() as work_dir:
    for workload in WORKLOADS:
        for command in build_plan(workload, 1, f"{work_dir}/{workload}", smoke=True):
            recorder.command = f"{workload}:{command['id']}"
            argv = [arg.replace("{pass}", "0") for arg in command["argv"]]
            code = recorder.span(f"command.{command['kind']}", cli.main)(argv)
            if code != 0:
                sys.exit(f"{argv[:3]} exited {code}")
metrics = layer_metrics(recorder.dump())
idle = [m for m in PER_LAYER if m != "trace.overhead_s" and not metrics.get(m)]
if idle:
    sys.exit(f"per-layer metrics that no smoke command sets: {idle}")
"""


def _run(script):
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "perfbench"), str(REPO_ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )


def test_perfbench_tracer_installs_and_names_live_layers():
    proc = _run(CHECK)
    assert proc.returncode == 0, proc.stderr


def test_smoke_workloads_call_every_traced_layer():
    proc = _run(CALLED)
    assert proc.returncode == 0, proc.stderr
