"""Command-line front end: analyze, bound, evolve, check-kernel.

Exit codes: 0 success, 1 configuration error, 2 model-hypothesis violation
(including the boundary report of a vanishing potential), 3 numerical
failure.  Every error is also emitted as a JSON diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import datetime
import errno
import json
import os
import sys

import numpy as np

from . import __version__
from .config import RunConfig, config_from_dict, load_config
from .discretize import ReducedModel, assemble_generator
from .errors import (
    HYPOTHESIS_ERRORS,
    ConfigError,
    FloatingPointFailure,
    NotConverged,
    TorspecError,
    ValidationError,
)
from .evolution import check_extinction, default_dt, evolve
from .gapbound import gap_constants, verify_gap
from .jsonio import dump, write_trace_csv
from .kernels import GenericKernel, Potential, kernel_stats
from .spectral import analyze, max_eigenvalue_shifted_power


def _run_analyze(
    config: RunConfig, kernel: GenericKernel, potential: Potential, paths: list[str]
) -> tuple[dict, int]:
    report = analyze(kernel, potential, config.analysis)
    document = report.to_dict()
    diagnostics = document.pop("diagnostics")
    document["gap_bound"] = None
    try:
        bound = gap_constants(potential, kernel)
    except (TorspecError, ValidationError):
        pass
    else:
        gap = {**bound, **verify_gap(report, bound)}
        del gap["lambda"], gap["slack"]  # the report states lambda at top level
        document["gap_bound"] = gap
    document["diagnostics"] = diagnostics
    return document, 0 if report.diagnostics["conforming"] else 2


def _run_bound(
    config: RunConfig, kernel: GenericKernel, potential: Potential, paths: list[str]
) -> tuple[dict, int]:
    bound = gap_constants(potential, kernel)  # its hypotheses, checked before the solve
    report = analyze(kernel, potential, config.analysis)
    document = {
        "gap_bound": {**bound, **verify_gap(report, bound)},
        "lambda_by_method": dict(report.lambda_by_method),
    }
    return document, 0


def _run_evolve(
    config: RunConfig, kernel: GenericKernel, potential: Potential, paths: list[str]
) -> tuple[dict, int]:
    model = ReducedModel(kernel, potential)  # u0 = 1 lies in its range
    generator = assemble_generator(kernel, potential, model.axes)  # not model.generator: freed once reduced
    dt = default_dt(generator) if config.evolution["dt"] is None else config.evolution["dt"]
    generator = model.reduce(generator)
    estimate = max_eigenvalue_shifted_power(generator, config.analysis)
    t_max = config.evolution["t_max"]
    if t_max is None:  # 40/|lambda|, or 40 for a vanishing potential, whose lambda is 0
        t_max = 40.0 / -estimate.rho if estimate.rho < 0 else np.inf
        t_max = t_max if potential.diagnostics.eligible else 40.0
        if not np.isfinite(t_max):
            raise NotConverged(f"lambda estimate {estimate.rho!r} gives no horizon 40/|lambda|; set t_max")
    trace = evolve(
        generator,
        np.ones(kernel.grid.size),
        t_max=t_max,
        dt=dt,
        method=config.evolution["method"],
    )
    write_trace_csv(trace, paths[1])
    print(paths[1])
    document = {
        "t_max": t_max,
        "method": config.evolution["method"],
        "order": model.order,
        "lambda_estimate": estimate.rho,
        "decay_rate_fit": trace.decay_rate_fit,
        "fit_window": list(trace.fit_window),
        "min_value_seen": trace.min_value_seen,
        "rk4_step_min": trace.rk4_step_min,
        "extinction": check_extinction(trace),
    }
    return document, 0 if potential.diagnostics.eligible else 2


def _run_check_kernel(
    config: RunConfig, kernel: GenericKernel, potential: Potential, paths: list[str]
) -> tuple[dict, int]:
    rates, wound = kernel.w, kernel.wound
    stats_section = None
    error_section = None
    code = 0
    try:
        stats_section = kernel_stats(kernel, config.analysis.primitivity_max_power)
    except HYPOTHESIS_ERRORS as exc:
        error_section = {"error": type(exc).__name__, "message": str(exc)}
        code = 2
    if not potential.diagnostics.eligible:
        code = 2
    document = {
        "kernel_stats": stats_section,
        "kernel_error": error_section,
        "jump_rate": {"min": float(rates.min()), "max": float(rates.max())},
        "wound": None if wound is None else {
            "quadrature_mass": wound.quadrature_mass(),
            "wind_truncation": wound.wind_truncation,
            "tail_estimate": wound.tail_estimate,
        },
        "potential": potential.diagnostics.as_dict(),
    }
    return document, code


# each command's runner and the files it writes, its JSON document first
_RUNNERS = {
    "analyze": (_run_analyze, ("report.json",)),
    "bound": (_run_bound, ("gap_bound.json",)),
    "evolve": (_run_evolve, ("evolution.json", "trace.csv")),
    "check-kernel": (_run_check_kernel, ("kernel_check.json",)),
}


def run_command(command: str, config: RunConfig, out_dir: str | None = None) -> int:
    """Dispatch one command against a validated config; returns the exit code.

    Its runner gets the config's kernel and potential and the paths that
    ``_RUNNERS`` names, the first one JSON document: the config echo, the
    command's own sections, then run metadata.  The command runs with numpy's
    overflow, invalid-value and division traps raised, so a non-finite
    intermediate ends the run with a typed error instead of a warning:
    FloatingPointFailure, or Unstable for an evolve trajectory.  A file
    that cannot be read or written ends it with a ValidationError naming
    that file, and a model too large to allocate with one naming n^d; an
    output path that is a directory does so before the model is built, so
    nothing is written or printed.
    """
    if command not in _RUNNERS:
        raise ValidationError(f"unknown command {command!r}")
    if out_dir is None:
        out_dir = config.output["directory"]
    runner, names = _RUNNERS[command]
    paths = [os.path.join(out_dir, name) for name in names]
    try:
        os.makedirs(out_dir, exist_ok=True)
        for path in paths:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            grid = config.build_grid()
            body, code = runner(config, config.build_kernel(grid), config.build_potential(grid), paths)
        metadata = {
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "tool": f"torspec {__version__}",
        }
        dump({"config_echo": config.echo(), **body, "metadata": metadata}, paths[0])
    except FloatingPointError as exc:
        raise FloatingPointFailure(str(exc)) from exc
    except MemoryError as exc:
        raise ValidationError(f"n^d = {config.grid_n}^{config.dimension} is too large to allocate") from exc
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        raise ValidationError(f"{where}{exc.strerror or exc}") from exc
    print(paths[0])
    return code


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return 1
    return 2 if isinstance(exc, HYPOTHESIS_ERRORS) else 3


def _load_with_overrides(path: str, seed: int | None, grid_n: int | None) -> RunConfig:
    if seed is None and grid_n is None:
        return load_config(path)
    config = load_config(path)  # full validation of the file as written
    raw = config.echo()
    if seed is not None:
        raw["analysis"]["seed"] = seed
    if grid_n is not None:
        raw["grid_n"] = grid_n
    return config_from_dict(raw, base_dir=config.base_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="torspec",
        description="Spectra and density evolution of non-local jump operators "
        "with periodic potentials on the torus.",
    )
    parser.add_argument("command", choices=tuple(_RUNNERS))
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--grid-n", type=int, default=None, help="grid resolution override")
    args = parser.parse_args(argv)

    try:
        config = _load_with_overrides(args.config, args.seed, args.grid_n)
        return run_command(args.command, config, args.out)
    except (ConfigError, TorspecError) as exc:
        code = _exit_code_for(exc)
        diagnostic = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        print(json.dumps(diagnostic), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
