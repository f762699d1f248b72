"""The benchmark's traced run still finds every torspec layer it wraps.

``perfbench/tracing.py`` wraps functions and methods by name; a refactor that
renames or removes one of them breaks ``perfbench/run.py --trace 1``.  The
check runs in a fresh interpreter, so the wrapping does not leak into the
other tests.
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


def test_perfbench_tracer_installs_and_names_live_layers():
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "perfbench"), str(REPO_ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    proc = subprocess.run(
        [sys.executable, "-c", CHECK], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
