"""Run configuration: schema validation, defaults, and model construction.

Configs are JSON.  Structural problems (bad syntax, unknown keys, wrong
types) raise ParseError; violated invariants are collected and raised
together as one ValidationError.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

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

# Each family's parameters.  A number maps to (default, admissible,
# requirement); None marks the required non-numeric ``base`` and ``path``.
_POSITIVE = (lambda x: x > 0, "must be positive")
_DEPTH = (1.0, lambda x: x >= 0, "must be nonnegative")
KERNEL_FAMILIES = {
    "constant": {"value": (1.0, *_POSITIVE)},
    "tophat": {"width": (1.0, *_POSITIVE)},
    "gaussian": {"sigma": (0.2, *_POSITIVE)},
    "exponential": {"scale": (0.2, *_POSITIVE)},
    "sine": {"amplitude": (0.5, lambda x: abs(x) <= 1, "must lie in [-1, 1]")},
    "modulated": {"base": None, "epsilon": (0.2, lambda x: -1.0 < x < 1.0, "must lie in (-1, 1)")},
    "csv": {"path": None},
}
CONVOLUTION_FAMILIES = {"constant", "tophat", "gaussian", "exponential", "sine"}

POTENTIAL_FAMILIES = {
    "constant": {"depth": _DEPTH},
    "step": {"depth": _DEPTH, "width": (0.5, lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]")},
    "cosine": {"depth": _DEPTH},
    "zero": {},
    "csv": {"path": None},
}


@dataclass(frozen=True)
class EvolutionSettings:
    t_max: float | None = None
    dt: float | None = None
    method: str = field(default="rk4", metadata={"choices": ("rk4", "eigenexpansion")})


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
            return None, modulated_convolution(base, self.kernel["epsilon"])
        if family == "csv":
            return None, kernel_from_csv(_resolve(self.base_dir, self.kernel["path"]), grid)
        assert wound is not None
        return wound, convolution_kernel(wound)

    def _build_wound(self, grid: TorusGrid, spec: dict) -> WoundKernel | None:
        family = spec["family"]
        if family == "constant":
            value = spec["value"]
            return wound_from_function(lambda mesh: np.full(mesh.shape[:-1], value), grid)
        d, tol = grid.dimension, self.wind_tail_tol
        if family == "tophat":
            return wind_kernel(tophat_kernel(d, spec["width"]), grid.n, tol)
        if family == "gaussian":
            return wind_kernel(gaussian_kernel(d, spec["sigma"]), grid.n, tol)
        if family == "exponential":
            return wind_kernel(exponential_kernel(d, spec["scale"]), grid.n, tol)
        if family == "sine":
            amp = spec["amplitude"]
            return wound_from_function(
                lambda mesh: 1.0 + amp * np.sin(2.0 * np.pi * mesh[..., 0]), grid
            )
        return None

    def build_potential(self, grid: TorusGrid) -> Potential:
        spec = self.potential
        family = spec["family"]
        if family == "constant":
            return constant_potential(grid, spec["depth"])
        if family == "step":
            return step_potential(grid, spec["depth"], spec["width"])
        if family == "cosine":
            return cosine_potential(grid, spec["depth"])
        if family == "zero":
            return zero_potential(grid)
        return potential_from_csv(_resolve(self.base_dir, spec["path"]), grid)

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


def _string(raw: dict, key: str, context: str):
    value = raw.get(key)
    if not isinstance(value, str):
        raise ParseError(f"{context}.{key} must be a string")
    return value


_READERS = {"float": _number, "float | None": _number, "int": _integer, "str": _string}


def _settings(cls, raw, context: str, extra: set = frozenset()):
    """Settings dataclass ``cls`` from a JSON object; the fields of ``cls``
    name the keys (besides ``extra``), and give their types and defaults."""
    raw = _require_mapping(raw, context)
    _check_keys(raw, {f.name for f in fields(cls)} | extra, context)
    values = {}
    for f in fields(cls):
        if f.name not in raw:
            continue
        choices = f.metadata.get("choices")
        if choices is None:
            values[f.name] = _READERS[f.type](raw, f.name, context)
        elif raw[f.name] in choices:
            values[f.name] = raw[f.name]
        else:
            raise ParseError(f"{context}.{f.name} must be {' or '.join(map(repr, choices))}")
    return cls(**values)


def _family_spec(raw, context: str, families: dict, problems: list) -> dict:
    """Family parameters with defaults filled; range violations go to ``problems``."""
    spec = _require_mapping(raw, context)
    family = spec.get("family")
    if not isinstance(family, str) or family not in families:
        raise ParseError(
            f"{context}.family must be one of {sorted(families)}, got {family!r}"
        )
    _check_keys(spec, families[family].keys() | {"family"}, f"{context} ({family})")
    out = {"family": family}
    for key, number in families[family].items():
        if key == "path":
            out[key] = _string(spec, key, context)
        elif key == "base":
            if "base" not in spec:
                raise ParseError("kernel.base is required for the modulated family")
            out[key] = _family_spec(spec["base"], "kernel", KERNEL_FAMILIES, problems)
            if out[key]["family"] not in CONVOLUTION_FAMILIES:
                problems.append("kernel.base must be a convolution-form family")
        else:
            default, admissible, requirement = number
            out[key] = _number(spec, key, context, default)
            if not admissible(out[key]):
                problems.append(f"{context}.{key} {requirement}")
    return out


def _resolve(base_dir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


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
    try:
        kernel = _family_spec(raw["kernel"], "kernel", KERNEL_FAMILIES, problems)
        potential = _family_spec(raw["potential"], "potential", POTENTIAL_FAMILIES, problems)
    except RecursionError:  # a modulated base nested, or a value too deep to print
        raise ParseError("kernel or potential nests too deeply") from None

    analysis_raw = raw.get("analysis", {})
    options = _settings(AnalysisOptions, analysis_raw, "analysis", {"wind_tail_tol"})
    wind_tail_tol = _number(analysis_raw, "wind_tail_tol", "analysis", RunConfig.wind_tail_tol)
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

    evolution = _settings(EvolutionSettings, raw.get("evolution", {}), "evolution")
    if evolution.t_max is not None and evolution.t_max <= 0:
        problems.append("evolution.t_max must be positive")
    if evolution.dt is not None and evolution.dt <= 0:
        problems.append("evolution.dt must be positive")

    output = _settings(OutputSettings, raw.get("output", {}), "output")

    for spec, label in ((kernel, "kernel"), (potential, "potential")):
        if spec["family"] == "csv" and not os.path.isfile(_resolve(base_dir, spec["path"])):
            problems.append(f"{label}.path does not exist: {spec['path']}")

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
        output=output,
        base_dir=base_dir,
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValidationError(f"config file not readable: {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond the int-conversion digit limit
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path}: arrays or objects nest too deeply") from None
    return config_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))
