"""Explicit lower bound on the spectral gap of a convolution-kernel generator;
``gap_constants`` alone decides that a kernel has one (``kernel.wound``).

The bound combines potential norms with the contraction of the kernel symbol
away from the zero mode: with m = a_0 the quadrature mass of the kernel, c1
the L1 norm of the potential, gamma0 = (2/9) c1 / ||V||_2, and c2 = 1 -
max_{k != 0} |a_k| / m over every nonzero wavevector of the grid (the
Nyquist modes of even n included, since the a_k are the eigenvalues of the
assembled circulant), the maximum eigenvalue satisfies lambda <= -kappa
where kappa = min(m c2 gamma0^2, c1 / 2).  This is the unit-mass bound
applied to M = m (L~ + V/m), L~ the generator of the kernel a/m.
"""

from __future__ import annotations

import numpy as np

from .discretize import fourier_symbol
from .errors import DegenerateSymbol, IneligiblePotential, ValidationError
from .kernels import GenericKernel, Potential
from .spectral import SpectrumReport

GAP_SLACK = 1e-9  # solver slack the verdict allows on lambda <= -kappa


def gap_constants(potential: Potential, kernel: GenericKernel) -> dict:
    """The bound constants ``c1``, ``norm_v2``, ``gamma0``, ``c2`` and
    ``kappa``, by grid quadrature and the symbol of ``kernel.wound``.

    Requires a convolution-form kernel (else ValidationError) and a potential
    on its grid, strictly negative somewhere (else c1 vanishes: no bound).
    """
    wound = kernel.wound
    if wound is None:
        raise ValidationError("the gap bound applies only to convolution-form kernels")
    wound.grid.require_match(potential.grid)
    diag = potential.diagnostics
    if not diag["eligible"]:
        raise IneligiblePotential("gap bound needs a potential negative on some node")

    mass = wound.quadrature_mass()
    moduli = np.abs(fourier_symbol(wound))
    moduli.flat[0] = 0.0  # the zero mode a_0 is the mass
    c2 = 1.0 - float(moduli.max()) / mass
    if c2 <= 0:
        raise DegenerateSymbol(
            "kernel symbol has a nonzero mode of modulus >= the kernel's mass (mass concentrated)"
        )
    c1, norm_v2 = diag["norm_l1"], diag["norm_l2"]
    gamma0 = (2.0 / 9.0) * c1 / norm_v2
    kappa = min(mass * c2 * gamma0**2, 0.5 * c1)
    return {"c1": c1, "norm_v2": norm_v2, "gamma0": gamma0, "c2": c2, "kappa": kappa}


def verify_gap(report: SpectrumReport, bound: dict) -> dict:
    """Check lambda <= -kappa up to ``GAP_SLACK``: the ``verdict`` ("pass" or
    "fail"), the ``margin`` lambda + kappa, ``lambda``, ``kappa`` and ``slack``."""
    lam = report.max_eigenvalue
    kappa = bound["kappa"]
    return {
        "verdict": "pass" if lam <= -kappa + GAP_SLACK else "fail",
        "margin": float(lam + kappa),
        "lambda": float(lam),
        "kappa": float(kappa),
        "slack": GAP_SLACK,
    }
