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
EXTINCTION_THRESHOLD = 1e-3  # final-to-initial L2 ratio below which a trajectory is extinct


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class EvolutionTrace:
    """Norm history of one trajectory plus a default-window decay fit.

    ``min_value_seen`` is the least entry over the snapshots;
    ``rk4_step_min`` the least entry of the RK4 one-substep map (None for
    the eigenexpansion).  When it and the initial state are nonnegative,
    every substep stays nonnegative.
    """

    times: np.ndarray
    l2_norms: np.ndarray
    sup_norms: np.ndarray
    masses: np.ndarray
    decay_rate_fit: float
    fit_window: tuple[float, float]
    min_value_seen: float
    rk4_step_min: float | None = None


def _rk4_propagator(m: np.ndarray, h: float, substeps: int) -> tuple[np.ndarray, float]:
    """``P**substeps`` for the RK4 step map ``P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24``,
    and ``min(P)``.

    P is built by Horner's rule and powered left to right by binary
    digits; exactly three N x N buffers are live: P, the power and one
    scratch, ping-ponged through ``matmul(out=)``.
    """
    order = m.shape[0]
    p = np.multiply(m, h / 4.0)
    scratch = np.empty_like(p)
    p.reshape(-1)[:: order + 1] += 1.0
    for c in (h / 3.0, h / 2.0, h):
        np.matmul(m, p, out=scratch)
        scratch *= c
        scratch.reshape(-1)[:: order + 1] += 1.0
        p, scratch = scratch, p
    power = p.copy()
    for digit in bin(substeps)[3:]:
        np.matmul(power, power, out=scratch)
        power, scratch = scratch, power
        if digit == "1":
            np.matmul(power, p, out=scratch)
            power, scratch = scratch, power
    return power, float(p.min())


def _iterates(propagator: np.ndarray, u: np.ndarray, count: int):
    """``propagator^k u`` for k = 1, ..., count, one matvec each."""
    for _ in range(count):
        u = propagator @ u
        yield u


def _norms(u: np.ndarray, weight: float) -> tuple[float, float, float]:
    """Quadrature L2 norm, sup norm and mass of one state."""
    l2 = np.sqrt(weight * np.sum(u**2))
    return float(l2), float(np.max(np.abs(u))), float(weight * np.sum(u))


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
    output times (default dt is 0.01 over the largest -M_ii)
    and refuses, with NotConverged, a run of more than ``RK4_SUBSTEP_CAP``
    substeps.  Every interval has the same substep count, so the RK4 map
    of one interval is formed once as a matrix and applied once per
    snapshot.  ``eigenexpansion`` diagonalizes once and reconstructs
    exactly, serving as the oracle for the integrator: a generator flagged
    ``symmetric`` takes ``eigh``, whose orthonormal eigenvectors V give the
    coefficients V^T u0, any other ``eig`` and a linear solve.
    """
    u0 = np.asarray(u0, dtype=float).ravel()
    if u0.size != generator.grid.size:
        raise DimensionMismatch(f"initial vector length {u0.size} against order {generator.grid.size}")
    if not np.any(u0 != 0.0):
        raise ValueError("initial density is identically zero")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if method not in ("rk4", "eigenexpansion"):
        raise ValueError(f"unknown method {method!r}")
    if dt is None:
        stiffness = float(-np.diagonal(generator.data).min())
        if stiffness <= 0:
            raise ValueError("dt not given and the operator has no negative diagonal entry")
        dt = 0.01 / stiffness
    if dt <= 0:
        raise ValueError("dt must be positive")

    weight = generator.grid.weight
    times = np.linspace(0.0, t_max, snapshots)
    min_seen = float(u0.min())
    step_min = None

    unstable_message = (
        f"trajectory norm grew beyond {GROWTH_GUARD} times its initial value; "
        "reduce dt or check the operator"
    )
    if method == "rk4":
        intervals = max(snapshots - 1, 1)
        span = float(t_max) / intervals
        # Python floats, untrapped: a count beyond the float range is inf, above the cap too
        substeps = max(float(np.ceil(span / float(dt) - 1e-12)), 1.0)
        total = substeps * intervals
        if total > RK4_SUBSTEP_CAP:
            raise NotConverged(
                f"RK4 would take {total:.3e} substeps of at most dt = {dt!r}, "
                f"above the cap {RK4_SUBSTEP_CAP:.0e}; raise dt or lower t_max"
            )
    try:
        rows = [_norms(u0, weight)]
        if method == "rk4":
            propagator, step_min = _rk4_propagator(generator.data, span / substeps, int(substeps))
            states = _iterates(propagator, u0, snapshots - 1)
        else:
            try:
                evals, vectors = (np.linalg.eigh if generator.symmetric else np.linalg.eig)(generator.data)
            except np.linalg.LinAlgError as exc:
                raise QRNotConverged(str(exc)) from exc
            coeff = vectors.T @ u0 if generator.symmetric else np.linalg.solve(vectors, u0.astype(complex))
            states = ((vectors @ (coeff * np.exp(evals * t))).real for t in times[1:])
        for u in states:
            rows.append(_norms(u, weight))
            min_seen = min(min_seen, float(u.min()))
    except FloatingPointError as exc:  # numpy traps overflow: the trajectory left the float range
        raise Unstable(unstable_message) from exc
    l2, sup, masses = (np.array(column) for column in zip(*rows))

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
        rk4_step_min=step_min,
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


def check_extinction(trace: EvolutionTrace) -> ExtinctionSummary:
    """Extinct when the norms are eventually non-increasing and the final
    norm has dropped below ``EXTINCTION_THRESHOLD`` times the initial one."""
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
        extinct=bool(monotone_tail and ratio < EXTINCTION_THRESHOLD),
        ratio=ratio,
        monotone_from=float(trace.times[onset]),
        threshold=EXTINCTION_THRESHOLD,
    )
