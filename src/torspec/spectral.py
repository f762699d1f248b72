"""Essential and discrete spectrum of the jump generator.

The maximum eigenvalue is located three independent ways: dense QR on the
assembled generator, Perron iteration on a positive diagonal shift of it,
and a safeguarded root find (Illinois regula falsi with forced bisection
steps) on the shift parameter of the ratio operator, whose spectral radius
crosses one exactly at the eigenvalue; its radii come from matrix-free,
warm-started Perron solves.  Both Perron methods run on the model's
``ReducedModel``, the block that holds the ground state, and QR on every
block.  The consolidated report cross-checks all three and classifies the
rest of the spectrum against the essential value set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import (
    OperatorMatrix,
    ReducedModel,
    assemble_birman_schwinger,
    check_shift,
    shift_denominator,
)
from .eigen import SPECTRUM_ORDER_CAP, PerronResult, block_shape, full_spectrum, perron
from .errors import (
    BracketFailure,
    DegenerateKernel,
    MethodDisagreement,
    NotConverged,
)
from .kernels import GenericKernel, Potential, kernel_stats


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
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


def essential_spectrum(b: GenericKernel, potential: Potential) -> EssentialSpectrum:
    """Essential spectrum of the generator from the multiplier range of V - W."""
    d = np.sort(shift_denominator(b, potential))  # np.unique would import numpy.ma
    values = d[np.concatenate(([True], d[1:] != d[:-1]))]
    values.flags.writeable = False
    alpha1, alpha0 = float(values[0]), float(values[-1])
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
    spectrum_order_cap: int = SPECTRUM_ORDER_CAP


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class BisectionResult:
    """Maximum eigenvalue located as the unit-radius crossing of the shift scan.

    ``ground_state`` and ``adjoint_state`` are on the grid, at unit 2-norm.
    ``iterations`` counts root-find steps after the bracket scan;
    ``perron_iterations`` totals the power iterations of every radius
    evaluation in the search (zero shift, scan and root find).  ``root_find``
    holds one entry per root-find step: its shift ``mu``, radius ``rho``, the
    ``side`` of the bracket it moved (``lo`` or ``hi``) and the ``width`` after.
    """

    lam: float
    ground_state: np.ndarray
    adjoint_state: np.ndarray
    iterations: int
    radius_at_lambda: float
    bracket: tuple[float, float]
    perron_iterations: int
    root_find: list


def _perron(matrix: np.ndarray, options: AnalysisOptions, **kwargs) -> PerronResult:
    """``perron`` with the options' tolerance, cap and seed."""
    return perron(matrix, tol=options.power_tol, max_iter=options.max_iter, seed=options.seed, **kwargs)


BRACKET_HALVINGS = 20
# a bisection step is forced when this many root-find steps in a row have
# not halved the bracket
STALL_STEPS = 3


def max_eigenvalue_bisection(
    model: ReducedModel,
    options: AnalysisOptions = AnalysisOptions(),
) -> BisectionResult:
    """Find the shift at which the ratio operator has unit spectral radius.

    The left bracket starts a small offset above the essential edge (where
    the radius blows up), halved until the shift is negative and then at
    most ``BRACKET_HALVINGS`` more times until the radius exceeds one; the
    right bracket is zero shift (radius below one for an eligible
    potential).  Illinois regula falsi on 1 - 1/radius, which is affine in
    the shift when U + W is constant, shrinks the bracket while keeping
    radius(lo) >= 1 > radius(hi), until it is at most
    ``options.bisection_tol`` wide (or as narrow as floating point allows);
    a bisection step is forced whenever ``STALL_STEPS`` steps in a row fail
    to halve it.  Each radius comes from a matrix-free Perron solve on the
    reduced model's kernel part, warm-started from the previous vector; the
    state and adjoint at the returned eigenvalue are certified on the
    assembled ratio operator and lifted to the grid at unit 2-norm.
    Every Perron solve takes the options' ``power_tol``, ``max_iter`` and
    ``seed``.  A kernel flagged ``symmetric`` has that operator as its own
    adjoint counterpart, so its ground state is returned as the adjoint
    state without a second solve.  With a vanishing potential the radius
    equals one at zero shift, and that boundary case is reported as a zero
    eigenvalue with bracket (0, 0).
    """
    eligible = model.potential.diagnostics.eligible
    denom = model.denominator
    alpha1 = float(denom.min())
    tol = options.bisection_tol

    vector = None
    perron_iterations = 0

    def radius(mu: float) -> float:
        nonlocal vector, perron_iterations
        check_shift(mu, denom)
        result = _perron(model.kernel_part, options, start=vector, scale=1.0 / (denom + mu))
        vector = result.vector
        perron_iterations += result.iterations
        return result.rho

    lo = hi = 0.0  # a vanishing potential skips the scan: lambda = 0, bracket (0, 0)
    iterations, root_find = 0, []
    if eligible:
        rho_hi = radius(0.0)
        if rho_hi >= 1.0:
            raise BracketFailure(f"radius at zero shift is {rho_hi!r}, expected below one")

        eps = 0.01 * (float(denom.max()) - alpha1 + 1.0)
        while 0.0 < alpha1 <= eps:  # halvings to a negative shift use no try
            eps *= 0.5
        for _ in range(BRACKET_HALVINGS + 1):
            candidate = -alpha1 + eps
            rho_lo = radius(candidate)
            if rho_lo > 1.0:
                lo = candidate
                break
            eps *= 0.5
        else:
            raise BracketFailure(
                "radius does not exceed one near the essential edge; "
                "resolution too coarse or kernel mass too diffuse"
            )

        f_lo, f_hi = 1.0 - 1.0 / rho_lo, 1.0 - 1.0 / rho_hi
        moved = None  # the end that moved last, for the Illinois down-weighting
        widths = [math.inf] * STALL_STEPS  # bracket widths before the last steps
        while hi - lo > tol:
            mu = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            # step a quarter tolerance past the estimate, away from the nearer
            # end, so that a converged estimate straddles the root
            mu += 0.25 * tol if mu - lo < hi - mu else -0.25 * tol
            mu = min(max(mu, lo + 0.25 * tol), hi - 0.25 * tol)
            if hi - lo > 0.5 * widths[0] or not lo < mu < hi:
                mu = 0.5 * (lo + hi)
                if not lo < mu < hi:
                    break  # the bracket is as narrow as floating point allows
            iterations += 1
            widths = widths[1:] + [hi - lo]
            rho = radius(mu)
            if rho >= 1.0:
                lo, f_lo = mu, 1.0 - 1.0 / rho
                if moved == "lo":
                    f_hi *= 0.5
                moved = "lo"
            else:
                hi, f_hi = mu, 1.0 - 1.0 / rho
                if moved == "hi":
                    f_lo *= 0.5
                moved = "hi"
            root_find.append({"mu": mu, "rho": rho, "side": moved, "width": hi - lo})

    lam = 0.5 * (lo + hi)
    at_lam = _perron(assemble_birman_schwinger(model, lam).data, options, start=vector)
    if not eligible and abs(at_lam.rho - 1.0) > 100 * options.power_tol:
        raise BracketFailure(
            f"vanishing potential should give unit radius at zero shift, got {at_lam.rho!r}"
        )

    def lifted(c: np.ndarray) -> np.ndarray:  # a Perron vector already has unit norm
        u = model.lift(c)
        return u if u is c else u / np.linalg.norm(u)

    ground_state = adjoint_state = lifted(at_lam.vector)
    if not model.kernel.symmetric:  # else the adjoint ratio operator is the assembled one
        adjoint = assemble_birman_schwinger(model, lam, adjoint=True)
        adjoint_state = lifted(_perron(adjoint.data, options, start=at_lam.vector).vector)
    return BisectionResult(
        lam, ground_state, adjoint_state, iterations, at_lam.rho, (lo, hi), perron_iterations, root_find,
    )


def max_eigenvalue_shifted_power(
    generator: OperatorMatrix, options: AnalysisOptions = AnalysisOptions()
) -> PerronResult:
    """Shift the generator by max(-M_ii) plus one, take the Perron root of
    the shifted matrix, and shift back.  For a Metzler generator that is the
    least shift making it entrywise nonnegative, plus a unit margin.  The
    result is the generator's own: ``rho`` is its maximum eigenvalue and
    the Collatz-Wielandt bounds bracket it."""
    k = float(-generator.diagonal.min()) + 1.0
    r = _perron(generator.shifted(k).data, options)
    return PerronResult(r.rho - k, r.vector, r.cw_lower - k, r.cw_upper - k, r.iterations)


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
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
    options: AnalysisOptions = AnalysisOptions(),
) -> SpectrumReport:
    """Run all three maximum-eigenvalue methods and consolidate the report.

    Raises MethodDisagreement when any two methods differ beyond the
    cross-check tolerance.  A vanishing potential gives the boundary report:
    lambda = 0 with ``diagnostics["conforming"]`` false.

    The generator is formed only at its rows x_S = 0, from which the dense
    solve reads its Bloch blocks and the model folds the matrices of the two
    Perron methods.  The residuals of M and M^T come from those rows and the
    lifted states, constant along S, times sqrt(n^|S|).
    """
    stats = kernel_stats(b, options.primitivity_max_power)
    essential = essential_spectrum(b, potential)
    eligible = potential.diagnostics.eligible
    model = ReducedModel(b, potential)
    generator, even = model.generator, model.reduce(model.generator)
    eigenvalues = full_spectrum(generator, options.spectrum_order_cap, even)
    lam_qr = float(eigenvalues[0].real)

    shifted = max_eigenvalue_shifted_power(even, options)
    bisected = max_eigenvalue_bisection(model, options)

    lambda_by_method = {
        "direct_qr": lam_qr,
        "perron_shift": shifted.rho,
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
    rows, held, nodes = generator.data, generator.slab_axes, b.grid.slab_shape(())
    psi_slab, phi_slab = (u[b.grid.slab_nodes(held)] for u in (psi, phi))
    summed = (rows.reshape(rows.shape[:1] + nodes).sum(tuple(1 + a for a in held)).reshape(len(rows), -1)
              if held else rows)  # over y_S
    scale = math.sqrt(b.grid.size // len(rows))
    residual_psi = scale * float(np.linalg.norm(generator.matvec(psi) - lam * psi_slab))
    residual_phi = scale * float(np.linalg.norm(summed.T @ phi_slab - lam * phi_slab))
    if max(residual_psi, residual_phi) > options.residual_tol:
        raise NotConverged(
            f"ground-state residual {max(residual_psi, residual_phi):.3e} above {options.residual_tol:.0e}"
        )
    if eligible and not (-essential.alpha1 < lam < 0.0):
        raise NotConverged(
            f"maximum eigenvalue {lam!r} outside the open interval (-alpha1, 0)"
        )

    tol_ess = classification_tolerance(b.grid.n)
    ess_points = essential.spectrum_points
    distances = np.min(np.abs(eigenvalues[:, None] - ess_points[None, :]), axis=1)
    discrete = eigenvalues[distances > tol_ess]

    blocks, block_order, largest_order = block_shape(generator, even)
    diagnostics = {
        "conforming": eligible,
        "ground_state_residual": residual_psi,
        "adjoint_state_residual": residual_phi,
        "method_spread": spread,
        "qr": {"blocks": blocks, "block_order": block_order, "largest_order": largest_order},
        "classification_tolerance": tol_ess,
        "perron_order": model.order,
        "perron_shift_iterations": shifted.iterations,
        "bisection_iterations": bisected.iterations,
        "ratio_perron_iterations": bisected.perron_iterations,
        "bisection_bracket": [bisected.bracket[0], bisected.bracket[1]],
        "root_find": bisected.root_find,
        "radius_at_lambda": bisected.radius_at_lambda,
        "kernel_stats": stats,
        "potential": potential.diagnostics.as_dict(),
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
