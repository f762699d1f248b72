"""Run configuration: schema validation, defaults, and model construction.

Configs are JSON.  Structural problems (bad syntax, unknown keys, wrong
types) raise ParseError; violated invariants are collected and raised
together as one ValidationError.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .grid import TorusGrid
from .kernels import (
    GenericKernel,
    Potential,
    WoundKernel,
    constant_potential,
    convolution_kernel,
    cosine_potential,
    exponential_kernel,
    gaussian_kernel,
    kernel_from_csv,
    modulated_convolution,
    potential_from_csv,
    step_potential,
    tophat_kernel,
    wind_kernel,
    wound_from_function,
    zero_potential,
)
from .spectral import AnalysisOptions

KERNEL_FAMILIES = {
    "constant": {"value"},
    "tophat": {"width"},
    "gaussian": {"sigma"},
    "exponential": {"scale"},
    "sine": {"amplitude"},
    "modulated": {"base", "epsilon"},
    "csv": {"path"},
}
CONVOLUTION_FAMILIES = {"constant", "tophat", "gaussian", "exponential", "sine"}

POTENTIAL_FAMILIES = {
    "constant": {"depth"},
    "step": {"depth", "width"},
    "cosine": {"depth"},
    "zero": set(),
    "csv": {"path"},
}


@dataclass(frozen=True)
class EvolutionSettings:
    t_max: float | None = None
    dt: float | None = None
    method: str = "rk4"


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "."


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description with defaults filled in."""

    dimension: int
    grid_n: int
    kernel: dict
    potential: dict
    analysis: AnalysisOptions = AnalysisOptions()
    wind_tail_tol: float = 1e-12
    evolution: EvolutionSettings = EvolutionSettings()
    output: OutputSettings = OutputSettings()
    base_dir: str = "."

    def build_grid(self) -> TorusGrid:
        return TorusGrid(self.dimension, self.grid_n)

    def build_kernel(self, grid: TorusGrid) -> tuple[WoundKernel | None, GenericKernel]:
        """Construct the kernel; the first element is its convolution form
        when one exists (used by the gap bound), else None."""
        wound = self._build_wound(grid, self.kernel)
        family = self.kernel["family"]
        if family == "modulated":
            base = self._build_wound(grid, self.kernel["base"])
            eps = float(self.kernel["epsilon"])

            def mu(x, y):
                phase = 2.0 * np.pi * (x + y)
                return 1.0 + eps * np.prod(np.cos(phase), axis=-1)

            return None, modulated_convolution(base, grid, mu)
        if family == "csv":
            return None, kernel_from_csv(self._resolve(self.kernel["path"]), grid)
        assert wound is not None
        return wound, convolution_kernel(wound, grid)

    def _build_wound(self, grid: TorusGrid, spec: dict) -> WoundKernel | None:
        family = spec["family"]
        if family == "constant":
            value = float(spec.get("value", 1.0))
            return wound_from_function(lambda mesh: np.full(mesh.shape[:-1], value), grid)
        if family == "tophat":
            return wind_kernel(
                tophat_kernel(grid.dimension, float(spec.get("width", 1.0))),
                grid.n, self.wind_tail_tol,
            )
        if family == "gaussian":
            return wind_kernel(
                gaussian_kernel(grid.dimension, float(spec.get("sigma", 0.2))),
                grid.n, self.wind_tail_tol,
            )
        if family == "exponential":
            return wind_kernel(
                exponential_kernel(grid.dimension, float(spec.get("scale", 0.2))),
                grid.n, self.wind_tail_tol,
            )
        if family == "sine":
            amp = float(spec.get("amplitude", 0.5))
            return wound_from_function(
                lambda mesh: 1.0 + amp * np.sin(2.0 * np.pi * mesh[..., 0]), grid
            )
        return None

    def build_potential(self, grid: TorusGrid) -> Potential:
        spec = self.potential
        family = spec["family"]
        if family == "constant":
            return constant_potential(grid, float(spec.get("depth", 1.0)))
        if family == "step":
            return step_potential(grid, float(spec.get("depth", 1.0)), float(spec.get("width", 0.5)))
        if family == "cosine":
            return cosine_potential(grid, float(spec.get("depth", 1.0)))
        if family == "zero":
            return zero_potential(grid)
        return potential_from_csv(self._resolve(spec["path"]), grid)

    def _resolve(self, path: str) -> str:
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)

    def echo(self) -> dict:
        """Config with defaults filled; itself a valid config dict."""
        analysis = asdict(self.analysis)
        analysis["wind_tail_tol"] = self.wind_tail_tol
        evolution = {k: v for k, v in asdict(self.evolution).items() if v is not None}
        return {
            "dimension": self.dimension,
            "grid_n": self.grid_n,
            "kernel": dict(self.kernel),
            "potential": dict(self.potential),
            "analysis": analysis,
            "evolution": evolution,
            "output": asdict(self.output),
        }


def _require_mapping(raw, context: str) -> dict:
    if not isinstance(raw, dict):
        raise ParseError(f"{context} must be a JSON object")
    return raw


def _check_keys(raw: dict, allowed: set, context: str) -> None:
    for key in raw:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in {context}")


def _number(raw: dict, key: str, context: str, default=None):
    if key not in raw:
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{context}.{key} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{context}.{key} must be finite")
    return number


def _integer(raw: dict, key: str, context: str, default=None):
    if key not in raw:
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{context}.{key} must be an integer")
    return int(value)


def _kernel_spec(raw, problems: list) -> dict:
    spec = _require_mapping(raw, "kernel")
    family = spec.get("family")
    if not isinstance(family, str) or family not in KERNEL_FAMILIES:
        raise ParseError(
            f"kernel.family must be one of {sorted(KERNEL_FAMILIES)}, got {family!r}"
        )
    _check_keys(spec, KERNEL_FAMILIES[family] | {"family"}, f"kernel ({family})")
    out = {"family": family}
    if family == "constant":
        out["value"] = _number(spec, "value", "kernel", 1.0)
        if out["value"] <= 0:
            problems.append("kernel.value must be positive")
    elif family == "tophat":
        out["width"] = _number(spec, "width", "kernel", 1.0)
        if out["width"] <= 0:
            problems.append("kernel.width must be positive")
    elif family == "gaussian":
        out["sigma"] = _number(spec, "sigma", "kernel", 0.2)
        if out["sigma"] <= 0:
            problems.append("kernel.sigma must be positive")
    elif family == "exponential":
        out["scale"] = _number(spec, "scale", "kernel", 0.2)
        if out["scale"] <= 0:
            problems.append("kernel.scale must be positive")
    elif family == "sine":
        out["amplitude"] = _number(spec, "amplitude", "kernel", 0.5)
        if abs(out["amplitude"]) > 1:
            problems.append("kernel.amplitude must lie in [-1, 1]")
    elif family == "modulated":
        if "base" not in spec:
            raise ParseError("kernel.base is required for the modulated family")
        base = _kernel_spec(spec["base"], problems)
        if base["family"] not in CONVOLUTION_FAMILIES:
            problems.append("kernel.base must be a convolution-form family")
        out["base"] = base
        out["epsilon"] = _number(spec, "epsilon", "kernel", 0.2)
        if not -1.0 < out["epsilon"] < 1.0:
            problems.append("kernel.epsilon must lie in (-1, 1)")
    elif family == "csv":
        path = spec.get("path")
        if not isinstance(path, str):
            raise ParseError("kernel.path must be a string")
        out["path"] = path
    return out


def _potential_spec(raw, problems: list) -> dict:
    spec = _require_mapping(raw, "potential")
    family = spec.get("family")
    if not isinstance(family, str) or family not in POTENTIAL_FAMILIES:
        raise ParseError(
            f"potential.family must be one of {sorted(POTENTIAL_FAMILIES)}, got {family!r}"
        )
    _check_keys(spec, POTENTIAL_FAMILIES[family] | {"family"}, f"potential ({family})")
    out = {"family": family}
    if family in ("constant", "step", "cosine"):
        out["depth"] = _number(spec, "depth", "potential", 1.0)
        if out["depth"] < 0:
            problems.append("potential.depth must be nonnegative")
    if family == "step":
        out["width"] = _number(spec, "width", "potential", 0.5)
        if not 0.0 < out["width"] <= 1.0:
            problems.append("potential.width must lie in (0, 1]")
    if family == "csv":
        path = spec.get("path")
        if not isinstance(path, str):
            raise ParseError("potential.path must be a string")
        out["path"] = path
    return out


_ANALYSIS_KEYS = {
    "power_tol", "max_iter", "seed", "bisection_tol", "cross_tol",
    "primitivity_max_power", "residual_tol", "spectrum_order_cap",
    "diagnostic", "wind_tail_tol",
}


def config_from_dict(raw: dict, base_dir: str = ".") -> RunConfig:
    """Validate a raw mapping and produce a RunConfig with defaults filled."""
    raw = _require_mapping(raw, "config")
    _check_keys(
        raw,
        {"dimension", "grid_n", "kernel", "potential", "analysis", "evolution", "output"},
        "config",
    )
    problems: list[str] = []

    dimension = _integer(raw, "dimension", "config")
    if dimension is None:
        raise ParseError("config.dimension is required")
    grid_n = _integer(raw, "grid_n", "config")
    if grid_n is None:
        raise ParseError("config.grid_n is required")
    if dimension not in (1, 2):
        problems.append("dimension must be 1 or 2")
    if grid_n < 2 or grid_n % 2 != 0:
        problems.append("grid_n must be a positive even integer")

    if "kernel" not in raw:
        raise ParseError("config.kernel is required")
    if "potential" not in raw:
        raise ParseError("config.potential is required")
    kernel = _kernel_spec(raw["kernel"], problems)
    potential = _potential_spec(raw["potential"], problems)

    analysis_raw = _require_mapping(raw.get("analysis", {}), "analysis")
    _check_keys(analysis_raw, _ANALYSIS_KEYS, "analysis")
    wind_tail_tol = _number(analysis_raw, "wind_tail_tol", "analysis", 1e-12)
    diagnostic = analysis_raw.get("diagnostic", False)
    if not isinstance(diagnostic, bool):
        raise ParseError("analysis.diagnostic must be a boolean")
    options = AnalysisOptions(
        power_tol=_number(analysis_raw, "power_tol", "analysis", 1e-11),
        max_iter=_integer(analysis_raw, "max_iter", "analysis", 100_000),
        seed=_integer(analysis_raw, "seed", "analysis", 0),
        bisection_tol=_number(analysis_raw, "bisection_tol", "analysis", 1e-12),
        cross_tol=_number(analysis_raw, "cross_tol", "analysis", 1e-7),
        primitivity_max_power=_integer(analysis_raw, "primitivity_max_power", "analysis", 16),
        residual_tol=_number(analysis_raw, "residual_tol", "analysis", 1e-8),
        spectrum_order_cap=_integer(analysis_raw, "spectrum_order_cap", "analysis", 4096),
        diagnostic=diagnostic,
    )
    for name in ("power_tol", "bisection_tol", "cross_tol", "residual_tol"):
        if getattr(options, name) <= 0:
            problems.append(f"analysis.{name} must be positive")
    if options.max_iter < 1:
        problems.append("analysis.max_iter must be at least 1")
    if options.seed < 0:
        problems.append("analysis.seed must be non-negative")
    if options.primitivity_max_power < 1:
        problems.append("analysis.primitivity_max_power must be at least 1")
    if dimension in (1, 2) and options.spectrum_order_cap < grid_n**dimension:
        problems.append(
            f"analysis.spectrum_order_cap must be at least the matrix order n^d = {grid_n**dimension}"
        )
    if wind_tail_tol <= 0:
        problems.append("analysis.wind_tail_tol must be positive")

    evolution_raw = _require_mapping(raw.get("evolution", {}), "evolution")
    _check_keys(evolution_raw, {"t_max", "dt", "method"}, "evolution")
    method = evolution_raw.get("method", "rk4")
    if method not in ("rk4", "eigenexpansion"):
        raise ParseError("evolution.method must be 'rk4' or 'eigenexpansion'")
    evolution = EvolutionSettings(
        t_max=_number(evolution_raw, "t_max", "evolution"),
        dt=_number(evolution_raw, "dt", "evolution"),
        method=method,
    )
    if evolution.t_max is not None and evolution.t_max <= 0:
        problems.append("evolution.t_max must be positive")
    if evolution.dt is not None and evolution.dt <= 0:
        problems.append("evolution.dt must be positive")

    output_raw = _require_mapping(raw.get("output", {}), "output")
    _check_keys(output_raw, {"directory"}, "output")
    directory = output_raw.get("directory", ".")
    if not isinstance(directory, str):
        raise ParseError("output.directory must be a string")

    for spec, label in ((kernel, "kernel"), (potential, "potential")):
        if spec.get("family") == "csv":
            path = spec["path"]
            full = path if os.path.isabs(path) else os.path.join(base_dir, path)
            if not os.path.isfile(full):
                problems.append(f"{label}.path does not exist: {path}")

    if problems:
        raise ValidationError("; ".join(problems))
    return RunConfig(
        dimension=dimension,
        grid_n=grid_n,
        kernel=kernel,
        potential=potential,
        analysis=options,
        wind_tail_tol=wind_tail_tol,
        evolution=evolution,
        output=OutputSettings(directory=directory),
        base_dir=base_dir,
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ValidationError(f"config file not readable: {path}: {exc.strerror}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond the int-conversion digit limit
        raise ParseError(f"{path}: {exc}") from exc
    return config_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))
