"""Essential and discrete spectrum of the jump generator.

The maximum eigenvalue is located three independent ways: dense QR on the
assembled generator, Perron iteration on a positive diagonal shift of it,
and bisection on the shift parameter of the ratio operator whose spectral
radius crosses one exactly at the eigenvalue.  The consolidated report
cross-checks all three and classifies the rest of the spectrum against the
essential value set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .discretize import (
    OperatorMatrix,
    assemble_birman_schwinger,
    assemble_generator,
)
from .eigen import PerronResult, full_spectrum, perron
from .errors import (
    BracketFailure,
    DegenerateKernel,
    GridMismatch,
    IneligiblePotential,
    MethodDisagreement,
    NotConverged,
)
from .grid import TorusGrid
from .kernels import (
    GenericKernel,
    Potential,
    check_potential,
    jump_rate,
    kernel_stats,
)


@dataclass(frozen=True)
class EssentialSpectrum:
    """Distinct grid values of W - V; the essential spectrum is their negation.

    ``values`` is ascending and positive, so the essential spectrum occupies
    [-alpha0, -alpha1] with alpha0 = values[-1], alpha1 = values[0].
    """

    alpha0: float
    alpha1: float
    values: np.ndarray

    @property
    def spectrum_points(self) -> np.ndarray:
        return -self.values


def essential_spectrum(potential: Potential, w: np.ndarray) -> EssentialSpectrum:
    """Essential spectrum of the generator from the multiplier range of V - W."""
    w = np.asarray(w, dtype=float).ravel()
    if w.size != potential.samples.size:
        raise GridMismatch("jump-rate field and potential sampled on different grids")
    values = np.unique(w - potential.samples)
    values.flags.writeable = False
    alpha1 = float(values[0])
    alpha0 = float(values[-1])
    if alpha1 <= 0:
        raise DegenerateKernel(f"essential edge {alpha1!r} is not positive")
    return EssentialSpectrum(alpha0, alpha1, values)


@dataclass(frozen=True)
class AnalysisOptions:
    """Tolerances and caps for the consolidated spectral analysis."""

    power_tol: float = 1e-11
    max_iter: int = 100_000
    seed: int = 0
    bisection_tol: float = 1e-12
    cross_tol: float = 1e-7
    primitivity_max_power: int = 16
    residual_tol: float = 1e-8
    spectrum_order_cap: int = 4096
    diagnostic: bool = False


def _ratio_perron(
    mu: float,
    b: GenericKernel,
    potential: Potential,
    grid: TorusGrid,
    tol: float,
    max_iter: int,
    seed: int,
    adjoint: bool = False,
) -> PerronResult:
    """Perron pair of the ratio operator at shift mu (or of its adjoint)."""
    q = assemble_birman_schwinger(b, potential, mu, grid, adjoint=adjoint)
    return perron(q, tol=tol, max_iter=max_iter, seed=seed)


def birman_schwinger_radius(
    mu: float,
    b: GenericKernel,
    potential: Potential,
    grid: TorusGrid,
    tol: float = 1e-11,
    max_iter: int = 100_000,
    seed: int = 0,
) -> float:
    """Spectral radius of the ratio operator at shift mu.

    Continuous and strictly decreasing in mu above the essential edge, and
    decaying to zero as mu grows.
    """
    return _ratio_perron(mu, b, potential, grid, tol, max_iter, seed).rho


@dataclass(frozen=True)
class BisectionResult:
    """Maximum eigenvalue located as the unit-radius crossing of the shift scan."""

    lam: float
    ground_state: np.ndarray
    adjoint_state: np.ndarray
    iterations: int
    radius_at_lambda: float
    bracket: tuple[float, float]


BRACKET_HALVINGS = 20


def max_eigenvalue_bisection(
    b: GenericKernel,
    potential: Potential,
    grid: TorusGrid,
    tol: float = 1e-12,
    power_tol: float = 1e-11,
    max_iter: int = 100_000,
    seed: int = 0,
    diagnostic: bool = False,
) -> BisectionResult:
    """Bisect the shift until the ratio operator has unit spectral radius.

    The left bracket starts a small offset above the essential edge (where
    the radius blows up) and the right bracket is zero shift (radius below
    one for an eligible potential).  With a vanishing potential the radius
    equals one at zero shift; in diagnostic mode that boundary case is
    reported as a zero eigenvalue instead of an error.
    """
    diag = check_potential(potential)
    u = -potential.samples
    w = jump_rate(b)
    alpha1 = float((u + w).min())
    alpha0 = float((u + w).max())
    ratio = partial(
        _ratio_perron, b=b, potential=potential, grid=grid,
        tol=power_tol, max_iter=max_iter, seed=seed,
    )

    if not diag.eligible and not diagnostic:
        raise IneligiblePotential(
            "potential is zero on every node; enable diagnostic mode for a boundary report"
        )

    lo = hi = 0.0  # a vanishing potential skips the scan: lambda = 0, bracket (0, 0)
    iterations = 0
    if diag.eligible:
        right = ratio(0.0).rho
        if right >= 1.0:
            raise BracketFailure(f"radius at zero shift is {right!r}, expected below one")

        eps = 0.01 * (alpha0 - alpha1 + 1.0)
        for _ in range(BRACKET_HALVINGS + 1):
            candidate = -alpha1 + eps
            if candidate < 0.0 and ratio(candidate).rho > 1.0:
                lo = candidate
                break
            eps *= 0.5
        else:
            raise BracketFailure(
                "radius does not exceed one near the essential edge; "
                "resolution too coarse or kernel mass too diffuse"
            )

        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            iterations += 1
            if ratio(mid).rho >= 1.0:
                lo = mid
            else:
                hi = mid

    lam = 0.5 * (lo + hi)
    at_lam = ratio(lam)
    if not diag.eligible and abs(at_lam.rho - 1.0) > 100 * power_tol:
        raise BracketFailure(
            f"vanishing potential should give unit radius at zero shift, got {at_lam.rho!r}"
        )
    adjoint = ratio(lam, adjoint=True)
    return BisectionResult(lam, at_lam.vector, adjoint.vector, iterations, at_lam.rho, (lo, hi))


@dataclass(frozen=True)
class ShiftedPowerResult:
    """Maximum eigenvalue via Perron iteration on the positively shifted generator."""

    lam: float
    ground_state: np.ndarray
    perron: PerronResult


def max_eigenvalue_shifted_power(
    generator: OperatorMatrix,
    alpha0: float,
    tol: float = 1e-11,
    max_iter: int = 100_000,
    seed: int = 0,
) -> ShiftedPowerResult:
    """Shift the generator by alpha0 + 1 to make it entrywise nonnegative,
    take its Perron root, and shift back."""
    k = alpha0 + 1.0
    shifted = generator.shifted(k)
    result = perron(shifted, tol=tol, max_iter=max_iter, seed=seed)
    return ShiftedPowerResult(result.rho - k, result.vector, result)


@dataclass(frozen=True)
class SpectrumReport:
    """Cross-validated spectral picture of one assembled generator."""

    essential: EssentialSpectrum
    max_eigenvalue: float
    ground_state: np.ndarray
    adjoint_ground_state: np.ndarray
    lambda_by_method: dict
    discrete_eigenvalues: np.ndarray
    diagnostics: dict = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "essential": {
                "alpha0": self.essential.alpha0,
                "alpha1": self.essential.alpha1,
                "values": list(map(float, self.essential.values)),
            },
            "lambda": self.max_eigenvalue,
            "lambda_by_method": dict(self.lambda_by_method),
            "discrete_eigenvalues": [[float(z.real), float(z.imag)] for z in self.discrete_eigenvalues],
            "ground_state_stats": {
                "min": float(self.ground_state.min()),
                "max": float(self.ground_state.max()),
                "norm_residual": self.diagnostics["ground_state_residual"],
            },
            "diagnostics": dict(self.diagnostics),
        }


def classification_tolerance(n: int) -> float:
    """Distance below which an eigenvalue is attributed to the essential set.

    The multiplier's eigenvalues sit exactly on grid values; the compact
    part moves them by O(1/n).
    """
    return max(10.0 / n, 1e-6)


def analyze(
    b: GenericKernel,
    potential: Potential,
    grid: TorusGrid,
    options: AnalysisOptions = AnalysisOptions(),
) -> SpectrumReport:
    """Run all three maximum-eigenvalue methods and consolidate the report.

    Raises MethodDisagreement when any two methods differ beyond the
    cross-check tolerance; a nonconforming (diagnostic) report is produced
    for a vanishing potential only when the diagnostic option is set.
    """
    pot_diag = check_potential(potential)
    stats = kernel_stats(b, options.primitivity_max_power)
    w = jump_rate(b)
    essential = essential_spectrum(potential, w)
    eligible = pot_diag.eligible
    if not eligible and not options.diagnostic:
        raise IneligiblePotential(
            "potential is zero on every node; set diagnostic=True for a boundary report"
        )

    generator = assemble_generator(b, potential, grid)
    eigenvalues = full_spectrum(generator, options.spectrum_order_cap)
    lam_qr = float(eigenvalues[0].real)

    shifted = max_eigenvalue_shifted_power(
        generator, essential.alpha0, tol=options.power_tol,
        max_iter=options.max_iter, seed=options.seed,
    )
    bisected = max_eigenvalue_bisection(
        b, potential, grid, tol=options.bisection_tol, power_tol=options.power_tol,
        max_iter=options.max_iter, seed=options.seed, diagnostic=options.diagnostic,
    )

    lambda_by_method = {
        "direct_qr": lam_qr,
        "perron_shift": shifted.lam,
        "q_bisection": bisected.lam,
    }
    spread = max(lambda_by_method.values()) - min(lambda_by_method.values())
    if spread > options.cross_tol:
        raise MethodDisagreement(
            f"eigenvalue methods spread {spread:.3e} beyond {options.cross_tol:.0e}: {lambda_by_method}"
        )

    lam = bisected.lam
    psi = bisected.ground_state
    phi = bisected.adjoint_state
    residual_psi = float(np.linalg.norm(generator.matvec(psi) - lam * psi))
    residual_phi = float(np.linalg.norm(generator.data.T @ phi - lam * phi))
    if max(residual_psi, residual_phi) > options.residual_tol:
        raise NotConverged(
            f"ground-state residual {max(residual_psi, residual_phi):.3e} above {options.residual_tol:.0e}"
        )
    if eligible and not (-essential.alpha1 < lam < 0.0):
        raise NotConverged(
            f"maximum eigenvalue {lam!r} outside the open interval (-alpha1, 0)"
        )

    tol_ess = classification_tolerance(grid.n)
    ess_points = essential.spectrum_points
    distances = np.min(np.abs(eigenvalues[:, None] - ess_points[None, :]), axis=1)
    discrete = eigenvalues[distances > tol_ess]

    diagnostics = {
        "conforming": eligible,
        "ground_state_residual": residual_psi,
        "adjoint_state_residual": residual_phi,
        "method_spread": spread,
        "classification_tolerance": tol_ess,
        "perron_shift_iterations": shifted.perron.iterations,
        "bisection_iterations": bisected.iterations,
        "bisection_bracket": [bisected.bracket[0], bisected.bracket[1]],
        "radius_at_lambda": bisected.radius_at_lambda,
        "kernel_stats": stats.as_dict(),
        "potential": pot_diag.as_dict(),
    }
    return SpectrumReport(
        essential=essential,
        max_eigenvalue=lam,
        ground_state=psi,
        adjoint_ground_state=phi,
        lambda_by_method=lambda_by_method,
        discrete_eigenvalues=discrete,
        diagnostics=diagnostics,
    )
