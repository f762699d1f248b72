"""Density evolution under the assembled generator and extinction diagnostics.

Norms use the grid quadrature (weight h^d), so a unit initial density has
unit L2 norm and unit mass regardless of resolution.  A generator of a
``ReducedModel`` (``OperatorMatrix.reduction``) evolves in the model's
coordinates, one per orbit, and its states are lifted back to the grid in
blocks for their norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .discretize import OperatorMatrix
from .errors import DegenerateKernel, DimensionMismatch, NotConverged, QRNotConverged, Unstable, ZeroNorm

DEFAULT_SNAPSHOTS = 200
GROWTH_GUARD = 10.0
# most RK4 substeps one trajectory may take; about 270 times the 36,815
# (185 in each of 199 intervals) of an RK4 run on the wound Gaussian fixture at n = 512
RK4_SUBSTEP_CAP = 10**7
EXTINCTION_THRESHOLD = 1e-3  # final-to-initial L2 ratio below which a trajectory is extinct


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class EvolutionTrace:
    """Norm history of one trajectory plus a default-window decay fit.

    ``min_value_seen`` is the least entry over the snapshots;
    ``rk4_step_min`` the least entry of the RK4 one-substep map (None for
    the eigenexpansion).  When it and the initial state are nonnegative,
    every substep stays nonnegative.  On a reduced model, where the CLI evolves, the map is
    the model's and the guarantee covers a start in its range: constant along the model's
    invariant axes and even under its reflection, as u0 = 1 is.
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


def _log_slope(times: np.ndarray, l2: np.ndarray, window: tuple[float, float]) -> float:
    """Least-squares slope of log L2 over the window; ZeroNorm when a norm
    there is not positive, NaN when the window holds fewer than two samples."""
    mask = (times >= window[0]) & (times <= window[1])
    if np.any(l2[mask] <= 0.0):
        raise ZeroNorm("trace norm vanished inside the fit window")
    if mask.sum() < 2:
        return math.nan
    return float(np.polyfit(times[mask], np.log(l2[mask]), 1)[0])


def default_dt(generator: OperatorMatrix) -> float:
    """0.01 over the largest -M_ii; DegenerateKernel when no M_ii is negative: the generator is zero."""
    stiffness = float(-generator.diagonal.min())
    if stiffness <= 0:
        raise DegenerateKernel("dt not given and the operator has no negative diagonal entry")
    return 0.01 / stiffness


def evolve(
    generator: OperatorMatrix,
    u0: np.ndarray,
    t_max: float,
    dt: float | None = None,
    method: str = "rk4",
    snapshots: int = DEFAULT_SNAPSHOTS,
) -> EvolutionTrace:
    """Integrate du/dt = generator u and record norms at uniform output times.

    ``rk4`` takes fixed substeps of at most ``dt`` (by default
    ``default_dt`` of ``generator``) landing exactly on the output times,
    and refuses, with NotConverged, a run of more than ``RK4_SUBSTEP_CAP``
    substeps.  Every interval has the same substep count, so the RK4 map
    of one interval is formed once as a matrix and applied once per
    snapshot.  ``eigenexpansion`` diagonalizes once and reconstructs
    exactly, serving as the oracle for the integrator: a generator flagged
    ``symmetric`` takes ``eigh``, whose orthonormal eigenvectors V give the
    coefficients V^T u0, any other ``eig`` and a linear solve; either fills one
    (snapshots, order) array of states.  On a reduced model (``generator.reduction``)
    u0 must lie in the model's range.  The states are lifted to the grid (``ReducedModel.lift``)
    in blocks of at most max(snapshots * order, 2^16) entries, or one snapshot, and each norm
    is a row reduction, bit-equal to that of one lifted state.  Unless ``snapshots`` is an
    integer of at least two, it raises ValueError; on a generator's slab rows, DimensionMismatch.
    """
    if generator.slab_axes:
        raise DimensionMismatch("evolve takes the square generator, not slab rows: use ReducedModel.reduce")
    u0 = np.asarray(u0, dtype=float).ravel()
    if u0.size != generator.grid.size:
        raise DimensionMismatch(f"initial vector length {u0.size} against order {generator.grid.size}")
    if not np.isfinite(u0).all():
        raise ValueError("initial density must be finite")
    if not np.any(u0 != 0.0):
        raise ValueError("initial density is identically zero")
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    if not (isinstance(snapshots, Integral) and snapshots >= 2):
        raise ValueError(f"snapshots must be at least 2 and an integer, got {snapshots!r}")
    if method not in ("rk4", "eigenexpansion"):
        raise ValueError(f"unknown method {method!r}")
    if dt is None:
        dt = default_dt(generator)
    if not dt > 0:
        raise ValueError("dt must be positive")

    weight = generator.grid.weight
    times = np.linspace(0.0, t_max, snapshots)
    min_seen = float(u0.min())
    step_min = None
    c0, model = u0, generator.reduction  # the start in the coordinates ``data`` acts on
    if model is not None:
        c0 = u0[model.nodes]
        if not np.array_equal(c0[model.orbit], u0):
            raise ValueError("initial density is not even under the generator's symmetries")
        c0 = c0 if model.scale is None else c0 * model.scale

    unstable_message = (f"trajectory norm grew beyond {GROWTH_GUARD} times its initial value; "
                        "reduce dt or check the operator")
    if method == "rk4":
        span = float(t_max) / (snapshots - 1)
        # Python floats, untrapped: a count beyond the float range is inf, above the cap too
        substeps = max(float(np.ceil(span / float(dt) - 1e-12)), 1.0)
        total = substeps * (snapshots - 1)
        if total > RK4_SUBSTEP_CAP:
            raise NotConverged(
                f"RK4 would take {total:.3e} substeps of at most dt = {dt!r}, "
                f"above the cap {RK4_SUBSTEP_CAP:.0e}; raise dt or lower t_max"
            )
    try:
        if method == "rk4":
            propagator, step_min = _rk4_propagator(generator.data, span / substeps, int(substeps))
        else:
            try:
                evals, vectors = (np.linalg.eigh if generator.symmetric else np.linalg.eig)(generator.data)
            except np.linalg.LinAlgError as exc:
                raise QRNotConverged(str(exc)) from exc
            coeff = vectors.T @ c0 if generator.symmetric else np.linalg.solve(vectors, c0.astype(complex))
        states = np.empty((snapshots, c0.size))
        states[0] = c0
        for k in range(1, snapshots):
            states[k] = (propagator @ states[k - 1] if method == "rk4"
                         else (vectors @ (coeff * np.exp(evals * times[k]))).real)
        rows = max(states.size, 2**16) // u0.size or 1  # lifted snapshots per block
        l2, sup, masses = np.empty((3, snapshots))
        for a in range(0, snapshots, rows):
            block = slice(a, a + rows)
            u = states[block] if model is None else model.lift(states[block])
            if a == 0:
                u[0] = u0  # the start itself, not the lift of its coordinates
            min_seen = min(min_seen, float(u.min()))
            masses[block] = weight * u.sum(-1)
            sup[block] = np.abs(u, out=u).max(-1)  # u is overwritten: |u|, then u^2
            l2[block] = np.sqrt(weight * np.square(u, out=u).sum(-1))
            del u  # one lifted block at a time
    except FloatingPointError as exc:  # numpy traps overflow: the trajectory left the float range
        raise Unstable(unstable_message) from exc

    if l2[0] > 0 and np.any(l2 > GROWTH_GUARD * l2[0]):
        raise Unstable(unstable_message)

    window = (float(times[snapshots // 2]), float(times[-1]))
    try:
        rate = _log_slope(times, l2, window)
    except ZeroNorm:
        rate = math.nan
    return EvolutionTrace(times=times, l2_norms=l2, sup_norms=sup, masses=masses, decay_rate_fit=rate,
                          fit_window=window, min_value_seen=min_seen, rk4_step_min=step_min)


def fit_decay_rate(trace: EvolutionTrace, window: tuple[float, float]) -> float:
    """Least-squares slope of log L2 norm over the window (NaN when it holds
    fewer than two snapshots)."""
    t0, t1 = window
    if not trace.times[0] - 1e-12 <= t0 < t1 <= trace.times[-1] + 1e-12:
        raise ValueError("window outside the trace")
    return _log_slope(trace.times, trace.l2_norms, window)


def check_extinction(trace: EvolutionTrace) -> dict:
    """Whether the trajectory died out (``extinct``), with the supporting
    ``ratio``, ``monotone_from`` and ``threshold``.

    Extinct when the norms are eventually non-increasing and the final
    norm has dropped below ``EXTINCTION_THRESHOLD`` times the initial one."""
    l2 = trace.l2_norms
    rising = np.flatnonzero(~(l2[1:] <= l2[:-1] * (1.0 + 1e-12)))  # a NaN step counts as a rise
    onset = rising[-1] + 1 if rising.size else 0  # one past the last rise
    monotone_tail = onset < len(l2) - 1
    ratio = float(l2[-1] / l2[0]) if l2[0] > 0 else math.inf
    return {
        "extinct": bool(monotone_tail and ratio < EXTINCTION_THRESHOLD),
        "ratio": ratio,
        "monotone_from": float(trace.times[onset]),
        "threshold": EXTINCTION_THRESHOLD,
    }
