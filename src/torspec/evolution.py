"""Density evolution under the assembled generator and extinction diagnostics.

Norms use the grid quadrature (weight h^d), so a unit initial density has
unit L2 norm and unit mass regardless of resolution.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .discretize import OperatorMatrix
from .errors import DimensionMismatch, NotConverged, QRNotConverged, Unstable, ZeroNorm

DEFAULT_SNAPSHOTS = 200
GROWTH_GUARD = 10.0
# most RK4 substeps one trajectory may take; about 270 times the 37,014 of
# an RK4 run on the wound Gaussian fixture at n = 512
RK4_SUBSTEP_CAP = 10**7


@dataclass(frozen=True)
class EvolutionTrace:
    """Norm history of one trajectory plus a default-window decay fit."""

    times: np.ndarray
    l2_norms: np.ndarray
    sup_norms: np.ndarray
    masses: np.ndarray
    decay_rate_fit: float
    fit_window: tuple[float, float]
    min_value_seen: float


def _rk4_step(mat: OperatorMatrix, u: np.ndarray, dt: float) -> np.ndarray:
    k1 = mat.matvec(u)
    k2 = mat.matvec(u + 0.5 * dt * k1)
    k3 = mat.matvec(u + 0.5 * dt * k2)
    k4 = mat.matvec(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _log_slope(times: np.ndarray, l2: np.ndarray, window: tuple[float, float]) -> float:
    """Least-squares slope of log L2 over the window; ZeroNorm when a norm
    there is not positive, NaN when the window holds fewer than two samples."""
    mask = (times >= window[0]) & (times <= window[1])
    if np.any(l2[mask] <= 0.0):
        raise ZeroNorm("trace norm vanished inside the fit window")
    if mask.sum() < 2:
        return math.nan
    return float(np.polyfit(times[mask], np.log(l2[mask]), 1)[0])


def evolve(
    generator: OperatorMatrix,
    u0: np.ndarray,
    t_max: float,
    dt: float | None = None,
    method: str = "rk4",
    snapshots: int = DEFAULT_SNAPSHOTS,
) -> EvolutionTrace:
    """Integrate du/dt = generator u and record norms at uniform output times.

    ``rk4`` takes fixed substeps of at most ``dt`` landing exactly on the
    output times (default dt is 0.01 over the operator's essential edge)
    and refuses, with NotConverged, a run of more than ``RK4_SUBSTEP_CAP``
    substeps; ``eigenexpansion`` diagonalizes once and reconstructs exactly,
    serving as the oracle for the integrator.
    """
    u0 = np.asarray(u0, dtype=float).ravel()
    if u0.size != generator.order:
        raise DimensionMismatch(f"initial vector length {u0.size} against order {generator.order}")
    if not np.any(u0 != 0.0):
        raise ValueError("initial density is identically zero")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if method not in ("rk4", "eigenexpansion"):
        raise ValueError(f"unknown method {method!r}")
    if dt is None:
        if generator.edge_sup is None or generator.edge_sup <= 0:
            raise ValueError("dt not given and the operator carries no essential edge")
        dt = 0.01 / generator.edge_sup
    if dt <= 0:
        raise ValueError("dt must be positive")

    weight = generator.grid.weight
    times = np.linspace(0.0, t_max, snapshots)
    states = np.empty((snapshots, u0.size))
    states[0] = u0
    min_seen = float(u0.min())

    unstable_message = (
        f"trajectory norm grew beyond {GROWTH_GUARD} times its initial value; "
        "reduce dt or check the operator"
    )
    try:
        if method == "rk4":
            spans = np.diff(times)
            with np.errstate(over="ignore"):  # a count beyond the float range is above the cap too
                counts = np.maximum(np.ceil(spans / dt - 1e-12), 1.0)
                total = counts.sum()
            if total > RK4_SUBSTEP_CAP:
                raise NotConverged(
                    f"RK4 would take {total:.3e} substeps of at most dt = {dt!r}, "
                    f"above the cap {RK4_SUBSTEP_CAP:.0e}; raise dt or lower t_max"
                )
            u = u0.copy()
            for k, (span, substeps) in enumerate(zip(spans, counts.astype(int)), start=1):
                h = span / substeps
                for _ in range(substeps):
                    u = _rk4_step(generator, u, h)
                    min_seen = min(min_seen, float(u.min()))
                states[k] = u
        else:
            try:
                evals, vectors = np.linalg.eig(generator.data)
            except np.linalg.LinAlgError as exc:
                raise QRNotConverged(str(exc)) from exc
            coeff = np.linalg.solve(vectors, u0.astype(complex))
            for k in range(1, snapshots):
                u = (vectors @ (coeff * np.exp(evals * times[k]))).real
                states[k] = u
                min_seen = min(min_seen, float(u.min()))

        l2 = np.sqrt(weight * np.sum(states**2, axis=1))
        sup = np.max(np.abs(states), axis=1)
        masses = weight * np.sum(states, axis=1)
    except FloatingPointError as exc:  # numpy traps overflow: the trajectory left the float range
        raise Unstable(unstable_message) from exc

    initial = l2[0]
    if initial > 0 and np.any(l2 > GROWTH_GUARD * initial):
        raise Unstable(unstable_message)

    window = (float(times[snapshots // 2]), float(times[-1]))
    try:
        rate = _log_slope(times, l2, window)
    except ZeroNorm:
        rate = math.nan
    return EvolutionTrace(
        times=times,
        l2_norms=l2,
        sup_norms=sup,
        masses=masses,
        decay_rate_fit=rate,
        fit_window=window,
        min_value_seen=min_seen,
    )


def fit_decay_rate(trace: EvolutionTrace, window: tuple[float, float]) -> float:
    """Least-squares slope of log L2 norm over the window (NaN when it holds
    fewer than two snapshots)."""
    t0, t1 = window
    if t0 < trace.times[0] - 1e-12 or t1 > trace.times[-1] + 1e-12 or t1 <= t0:
        raise ValueError("window outside the trace")
    return _log_slope(trace.times, trace.l2_norms, window)


@dataclass(frozen=True)
class ExtinctionSummary:
    """Whether the trajectory died out, with the supporting numbers."""

    extinct: bool
    ratio: float
    monotone_from: float
    threshold: float

    def as_dict(self) -> dict:
        return asdict(self)


def check_extinction(trace: EvolutionTrace, threshold: float = 1e-3) -> ExtinctionSummary:
    """Extinct when the norms are eventually non-increasing and the final
    norm has dropped below ``threshold`` times the initial one."""
    l2 = trace.l2_norms
    decreasing = l2[1:] <= l2[:-1] * (1.0 + 1e-12)
    onset = len(l2) - 1
    for k in range(len(l2) - 2, -1, -1):
        if decreasing[k]:
            onset = k
        else:
            break
    monotone_tail = onset < len(l2) - 1
    ratio = float(l2[-1] / l2[0]) if l2[0] > 0 else math.inf
    return ExtinctionSummary(
        extinct=bool(monotone_tail and ratio < threshold),
        ratio=ratio,
        monotone_from=float(trace.times[onset]),
        threshold=threshold,
    )
