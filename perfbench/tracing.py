"""Spans and counters for the traced run, recorded from outside the program.

``Recorder.install`` wraps every public torspec function at each module
namespace where the pipeline looks it up (``torspec.spectral.perron``,
``torspec.cli.analyze``, ...), plus a few methods on their classes.  Spans
stay in memory until the run ends.  ``layer_metrics`` turns the spans of one
pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

# Entry points the benchmark spans itself, and a per-float helper whose
# spans would cost more than the work they time.
UNTRACED = {"torspec.cli.main", "torspec.cli.run_command", "torspec.jsonio.format_float"}
METHOD_SPANS = [
    ("torspec.discretize", "OperatorMatrix", "shifted"),
    ("torspec.config", "RunConfig", "build_kernel"),
    ("torspec.config", "RunConfig", "build_potential"),
]
# Counters taken from a traced call's result.
RESULT_COUNTS = {
    "eigen.perron": "eigen.perron.iterations",
    "spectral.max_eigenvalue_bisection": "spectral.bisection.iterations",
}

PER_LAYER = [
    "discretize.assemble_birman_schwinger.calls",
    "discretize.assemble_birman_schwinger.s",
    "kernels.jump_rate.calls",
    "kernels.jump_rate.s",
    "eigen.perron.calls",
    "eigen.perron.iterations",
    "eigen.perron.s",
    "spectral.max_eigenvalue_bisection.s",
    "spectral.max_eigenvalue_bisection.self_s",
    "spectral.bisection.iterations",
    "eigen.full_spectrum.s",
    "spectral.max_eigenvalue_shifted_power.s",
    "spectral.analyze.calls",
    "spectral.analyze.self_s",
    "kernels.kernel_stats.s",
    "kernels.convolution_kernel.s",
    "kernels.wind_kernel.s",
    "discretize.assemble_generator.s",
    "discretize.shifted.s",
    "discretize.operator_matrix.mb",
    "discretize.matvec.calls",
    "evolution.evolve.s",
    "config.load_config.s",
    "config.build_kernel.s",
    "config.build_potential.s",
    "gapbound.gap_constants.s",
    "jsonio.dump.s",
    "jsonio.write_trace_csv.s",
    "command.analyze.s",
    "command.bound.s",
    "command.check-kernel.s",
    "command.evolve.s",
    "cli.command.self_s",
    "trace.overhead_s",
]


def unit(metric: str) -> str:
    if metric.endswith((".calls", ".iterations")):
        return "count"
    if metric.endswith(".mb"):
        return "MB"
    return "s"


def _short(module: str, name: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{name}"


class Recorder:
    """In-memory spans ``[name, start, end, parent index, command id]`` and
    counters keyed by ``(command id, name)``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.command: str | None = None
        self._stack: list[int] = []

    def span(self, name: str, fn):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.command])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                self.counts[(self.command, count)] += getattr(result, "iterations", 0)
            return result

        return traced

    def _counter(self, name: str, fn, amount):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[(self.command, name)] += amount(args)
            return result

        return counted

    def install(self) -> None:
        """Wrap the layers for the rest of the process.  A method listed here that
        the program no longer has raises ``AttributeError``."""
        import torspec

        wrapped = {}
        modules = {}
        for info in pkgutil.iter_modules(torspec.__path__):
            module = modules[f"torspec.{info.name}"] = importlib.import_module(f"torspec.{info.name}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("torspec.") or f"{obj.__module__}.{obj.__name__}" in UNTRACED:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self.span(_short(obj.__module__, obj.__name__), obj)
                setattr(module, attr, wrapped[obj])

        for module_name, cls_name, attr in METHOD_SPANS:
            cls = getattr(modules[module_name], cls_name)
            setattr(cls, attr, self.span(_short(module_name, attr), vars(cls)[attr]))
        cls = modules["torspec.discretize"].OperatorMatrix
        cls.matvec = self._counter("discretize.matvec.calls", vars(cls)["matvec"], lambda args: 1)
        cls.__post_init__ = self._counter(
            "discretize.operator_matrix.mb", vars(cls)["__post_init__"], lambda args: args[0].data.nbytes / 1e6)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": [[c, n, v] for (c, n), v in self.counts.items()]}


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``<span>.s`` sums the outermost spans of that name, ``<span>.self_s``
    subtracts the time covered by child spans, and ``cli.command.self_s`` is
    the self time of the command spans: CLI glue outside every wrapped layer.
    """
    spans = record["spans"]
    child_time = defaultdict(float)
    for name, start, end, parent, command in spans:
        if parent is not None:
            child_time[parent] += end - start
    metrics = defaultdict(float)
    for index, (name, start, end, parent, command) in enumerate(spans):
        duration = end - start
        self_s = duration - child_time[index]
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += self_s
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            metrics[f"{name}.s"] += duration
        if name.startswith("command."):
            metrics["cli.command.self_s"] += self_s
    for command, name, value in record["counts"]:
        metrics[name] += value
    return metrics
