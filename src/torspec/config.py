"""Run configuration: schema validation, defaults, and model construction.

Configs are JSON.  Structural problems (bad syntax, unknown keys, wrong
types) raise ParseError; violated invariants are collected and raised
together as one ValidationError.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .grid import TorusGrid
from .kernels import (
    GenericKernel,
    Potential,
    WoundKernel,
    constant_kernel,
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
    zero_potential,
)
from .spectral import AnalysisOptions


def _require_mapping(raw, context: str) -> dict:
    if not isinstance(raw, dict):
        raise ParseError(f"{context} must be a JSON object")
    return raw


def _check_keys(raw: dict, allowed, context: str) -> None:
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


def _string(*choices):
    """Reader of a string, which must be one of ``choices`` if any are given."""

    def read(raw: dict, key: str, context: str, default=None):
        value = raw.get(key, default)
        if choices and value not in choices:
            raise ParseError(f"{context}.{key} must be {' or '.join(map(repr, choices))}")
        if not isinstance(value, str):
            raise ParseError(f"{context}.{key} must be a string")
        return value

    return read


def _winding(continuous, key: str):
    """Constructor of the kernel that a family on R^d with the one parameter ``key`` winds to."""
    return lambda spec, grid, config: convolution_kernel(
        wind_kernel(continuous(grid.dimension, spec[key]), grid.n, config.wind_tail_tol)
    )


# Every key of a family or a settings section: (reader taking (raw, key,
# context, default), default, admissible test or None, requirement).  A None
# reader marks the modulated family's base, a kernel spec read as kernel.base.
_POSITIVE = (lambda x: x > 0, "must be positive")
_AT_LEAST_ONE = (lambda x: x >= 1, "must be at least 1")
_DEPTH = (_number, 1.0, lambda x: x >= 0, "must be nonnegative")
_PATH = (_string(), None, None, None)

# Each kernel family: (keys, constructor taking (spec, grid, config)); the
# constructor of a convolution family sets the kernel's wound.
KERNEL_FAMILIES = {
    "constant": ({"value": (_number, 1.0, *_POSITIVE)},
                 lambda spec, grid, config: constant_kernel(grid, spec["value"])),
    "tophat": ({"width": (_number, 1.0, *_POSITIVE)}, _winding(tophat_kernel, "width")),
    "gaussian": ({"sigma": (_number, 0.2, *_POSITIVE)}, _winding(gaussian_kernel, "sigma")),
    "exponential": ({"scale": (_number, 0.2, *_POSITIVE)}, _winding(exponential_kernel, "scale")),
    "sine": (
        {"amplitude": (_number, 0.5, lambda x: abs(x) <= 1, "must lie in [-1, 1]")},
        lambda spec, grid, config: convolution_kernel(WoundKernel(grid, np.repeat(  # repeated along x_2
            1.0 + spec["amplitude"] * np.sin(2.0 * np.pi * (np.arange(grid.n) / grid.n)), grid.size // grid.n
        ).reshape((grid.n,) * grid.dimension))),
    ),
    "modulated": (
        {
            "base": (None, None, lambda base: base["family"] not in ("modulated", "csv"),
                     "must be a convolution-form family"),
            "epsilon": (_number, 0.2, lambda x: -1.0 < x < 1.0, "must lie in (-1, 1)"),
        },
        lambda spec, grid, config: modulated_convolution(
            KERNEL_FAMILIES[spec["base"]["family"]][1](spec["base"], grid, config).wound, spec["epsilon"]
        ),
    ),
    "csv": (
        {"path": _PATH},
        lambda spec, grid, config: kernel_from_csv(os.path.join(config.base_dir, spec["path"]), grid),
    ),
}

# Each potential family: (keys, constructor taking (spec, grid, config)).
POTENTIAL_FAMILIES = {
    "constant": ({"depth": _DEPTH}, lambda spec, grid, config: constant_potential(grid, spec["depth"])),
    "step": (
        {"depth": _DEPTH, "width": (_number, 0.5, lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]")},
        lambda spec, grid, config: step_potential(grid, spec["depth"], spec["width"]),
    ),
    "cosine": ({"depth": _DEPTH}, lambda spec, grid, config: cosine_potential(grid, spec["depth"])),
    "zero": ({}, lambda spec, grid, config: zero_potential(grid)),
    "csv": (
        {"path": _PATH},
        lambda spec, grid, config: potential_from_csv(os.path.join(config.base_dir, spec["path"]), grid),
    ),
}

# The settings sections; AnalysisOptions states the analysis defaults.
_OPTIONS = AnalysisOptions()
SETTINGS = {
    "analysis": {
        "power_tol": (_number, _OPTIONS.power_tol, *_POSITIVE),
        "max_iter": (_integer, _OPTIONS.max_iter, *_AT_LEAST_ONE),
        "seed": (_integer, _OPTIONS.seed, lambda x: x >= 0, "must be non-negative"),
        "bisection_tol": (_number, _OPTIONS.bisection_tol, *_POSITIVE),
        "cross_tol": (_number, _OPTIONS.cross_tol, *_POSITIVE),
        "primitivity_max_power": (_integer, _OPTIONS.primitivity_max_power, *_AT_LEAST_ONE),
        "residual_tol": (_number, _OPTIONS.residual_tol, *_POSITIVE),
        "spectrum_order_cap": (_integer, _OPTIONS.spectrum_order_cap, None, None),
        "wind_tail_tol": (_number, 1e-12, *_POSITIVE),
    },
    "evolution": {
        "t_max": (_number, None, *_POSITIVE),
        "dt": (_number, None, *_POSITIVE),
        "method": (_string("rk4", "eigenexpansion"), "rk4", None, None),
    },
    "output": {"directory": (_string(), ".", None, None)},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description with defaults filled in."""

    dimension: int
    grid_n: int
    kernel: dict
    potential: dict
    analysis: AnalysisOptions
    wind_tail_tol: float
    evolution: dict
    output: dict
    base_dir: str = "."

    def build_grid(self) -> TorusGrid:
        return TorusGrid(self.dimension, self.grid_n)

    def build_kernel(self, grid: TorusGrid) -> GenericKernel:
        """The kernel; its ``wound`` is set for every family but ``modulated`` and ``csv``."""
        return KERNEL_FAMILIES[self.kernel["family"]][1](self.kernel, grid, self)

    def build_potential(self, grid: TorusGrid) -> Potential:
        return POTENTIAL_FAMILIES[self.potential["family"]][1](self.potential, grid, self)

    def echo(self) -> dict:
        """Config with defaults filled; itself a valid config dict."""
        return {
            "dimension": self.dimension,
            "grid_n": self.grid_n,
            "kernel": dict(self.kernel),
            "potential": dict(self.potential),
            "analysis": {**asdict(self.analysis), "wind_tail_tol": self.wind_tail_tol},
            "evolution": {k: v for k, v in self.evolution.items() if v is not None},
            "output": dict(self.output),
        }


def _read(raw, table: dict, context: str, problems: list, where: str | None = None) -> dict:
    """The values of ``table``'s keys in the JSON object ``raw`` with defaults
    filled; each value its admissible test refuses adds its requirement to
    ``problems``.  An unknown key is named as in ``where`` (default ``context``)."""
    _check_keys(_require_mapping(raw, context), table, where or context)
    values = {}
    for key, (read, default, admissible, requirement) in table.items():
        if read is not None:
            values[key] = read(raw, key, context, default)
        elif key in raw:
            values[key] = _family_spec(raw[key], f"{context}.{key}", KERNEL_FAMILIES, problems)
        else:
            raise ParseError(f"{context}.{key} is required for the modulated family")
        if admissible is not None and values[key] is not None and not admissible(values[key]):
            problems.append(f"{context}.{key} {requirement}")
    return values


def _family_spec(raw, context: str, families: dict, problems: list) -> dict:
    """Family parameters with defaults filled; range violations go to ``problems``."""
    spec = _require_mapping(raw, context)
    family = spec.get("family")
    if not isinstance(family, str) or family not in families:
        raise ParseError(f"{context}.family must be one of {sorted(families)}, got {family!r}")
    params = {key: value for key, value in spec.items() if key != "family"}
    return {"family": family, **_read(params, families[family][0], context, problems, f"{context} ({family})")}


def config_from_dict(raw: dict, base_dir: str = ".") -> RunConfig:
    """Validate a raw mapping and produce a RunConfig with defaults filled."""
    raw = _require_mapping(raw, "config")
    _check_keys(raw, {"dimension", "grid_n", "kernel", "potential", *SETTINGS}, "config")
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

    for name in ("kernel", "potential"):
        if name not in raw:
            raise ParseError(f"config.{name} is required")
    try:
        kernel = _family_spec(raw["kernel"], "kernel", KERNEL_FAMILIES, problems)
        potential = _family_spec(raw["potential"], "potential", POTENTIAL_FAMILIES, problems)
    except RecursionError:  # a modulated base nested, or a value too deep to print
        raise ParseError("kernel or potential nests too deeply") from None

    settings = {name: _read(raw.get(name, {}), table, name, problems) for name, table in SETTINGS.items()}
    wind_tail_tol = settings["analysis"].pop("wind_tail_tol")
    options = AnalysisOptions(**settings["analysis"])

    if dimension in (1, 2):
        order = grid_n**dimension
        if 8 * order**2 > sys.maxsize:
            problems.append(f"grid_n^dimension = {grid_n}^{dimension} is too large: "
                            "its dense float64 matrix cannot be addressed")
        if options.spectrum_order_cap < order:
            problems.append(f"analysis.spectrum_order_cap must be at least the matrix order n^d = {order}")
    for spec, label in ((kernel, "kernel"), (potential, "potential")):
        if spec["family"] == "csv" and not os.path.isfile(os.path.join(base_dir, spec["path"])):
            problems.append(f"{label}.path does not exist: {spec['path']}")

    if problems:
        raise ValidationError("; ".join(problems))
    return RunConfig(dimension, grid_n, kernel, potential, options, wind_tail_tol,
                     settings["evolution"], settings["output"], base_dir)


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
