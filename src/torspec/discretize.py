"""Dense collocation matrices for the torus operators, and Fourier symbols.

Assembly convention: off-diagonal entries hold h^d b(x_i, y_j); the diagonal
of a generator carries V(x_i) minus the serial sum of the off-diagonal row.
The kernel's own diagonal sample never enters, mirroring the difference
structure b(x,y)(u(y) - u(x)) where it cancels identically.  When V = 0 the
diagonal is exactly minus the serial off-diagonal row sum, so each row of
the assembled generator sums to zero bit for bit in that order.  Every
assembly reads the kernel's jump rate W from ``GenericKernel.w``; none
recomputes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MuBelowEdge
from .grid import TorusGrid
from .kernels import GenericKernel, Potential, WoundKernel, serial_row_sums

MU_EDGE_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class OperatorMatrix:
    """Dense square matrix of a torus operator: the generator M, the ratio
    operator Q_mu, or a diagonal shift of M.  ``edge_sup`` records
    sup(W - V) when the assembly knows it."""

    data: np.ndarray
    grid: TorusGrid
    edge_sup: float | None = None

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(self.data, dtype=float)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise DimensionMismatch("operator matrix must be square")
        if data.shape[0] != self.grid.size:
            raise DimensionMismatch(
                f"matrix order {data.shape[0]} does not match grid size {self.grid.size}"
            )

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """The matrix-vector product, by BLAS.

        Deterministic for a fixed numpy/BLAS build and thread count.  Its
        summation order is BLAS's own, so a generator with V = 0 maps
        constants to roundoff; the exact cancellation lives in the
        assembled entries (see the module docstring).
        """
        return self.data @ u

    def shifted(self, k: float) -> "OperatorMatrix":
        """Add k to the diagonal."""
        data = self.data.copy()
        np.fill_diagonal(data, np.diagonal(data) + k)
        return OperatorMatrix(data, self.grid)


def assemble_generator(b: GenericKernel, potential: Potential, grid: TorusGrid) -> OperatorMatrix:
    """Jump generator: kernel part plus (V - W) on the diagonal."""
    grid.require_match(b, potential)
    data = grid.weight * b.samples
    np.fill_diagonal(data, 0.0)
    np.fill_diagonal(data, potential.samples - serial_row_sums(data))
    return OperatorMatrix(data, grid, edge_sup=float((b.w - potential.samples).max()))


def shift_denominator(b: GenericKernel, potential: Potential, grid: TorusGrid) -> np.ndarray:
    """Row denominator U + W of the ratio operator at zero shift, U = -V."""
    grid.require_match(b, potential)
    return b.w - potential.samples


def check_shift(mu: float, denominator: np.ndarray) -> None:
    """Reject a shift at or below the admissible edge -min(U + W)."""
    alpha1 = float(denominator.min())
    if mu <= -alpha1 + MU_EDGE_MARGIN:
        raise MuBelowEdge(f"shift {mu!r} at or below admissible edge {-alpha1!r}")


def assemble_birman_schwinger(
    b: GenericKernel,
    potential: Potential,
    mu: float,
    grid: TorusGrid,
    adjoint: bool = False,
) -> OperatorMatrix:
    """Ratio operator h^d b(x_i, y_j) / (U(x_i) + W(x_i) + mu), U = -V.

    Its spectral radius crosses one exactly at the maximum eigenvalue of the
    generator.  ``adjoint`` transposes the kernel while keeping the same
    row denominators, yielding the adjoint-generator counterpart.
    """
    denom = shift_denominator(b, potential, grid)
    check_shift(mu, denom)
    samples = b.samples.T if adjoint else b.samples
    data = np.multiply(samples, grid.weight, order="C")  # one C-ordered array, also for the adjoint
    data /= (denom + mu)[:, None]
    return OperatorMatrix(data, grid)


# ---------------------------------------------------------------------------
# Fourier symbols of convolution kernels


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class FourierSymbol:
    """Fourier coefficients of a wound kernel on the resolved band |k_a| < n/2.

    ``coefficients`` is shaped (len(wavenumbers),)*d with axes ordered like
    ``wavenumbers`` (ascending, symmetric about zero).
    """

    dimension: int
    n: int
    wavenumbers: np.ndarray
    coefficients: np.ndarray

    @property
    def mass(self) -> float:
        """Zeroth coefficient: the quadrature mass of the kernel."""
        return float(np.real(self.coefficient((0,) * self.dimension)))

    def coefficient(self, k) -> complex:
        k = np.atleast_1d(np.asarray(k, dtype=int))
        if k.size != self.dimension:
            raise DimensionMismatch("wavevector length must equal the dimension")
        half = (len(self.wavenumbers) - 1) // 2
        if np.any(np.abs(k) > half):
            raise ValueError("wavevector outside the resolved band")
        return complex(self.coefficients[tuple(k + half)])

    def max_offzero_modulus(self) -> float:
        """Largest |a_k| over nonzero wavevectors in the resolved band."""
        mods = np.abs(self.coefficients).copy()
        half = (len(self.wavenumbers) - 1) // 2
        mods[(half,) * self.dimension] = -1.0
        return float(mods.max())


def fourier_symbol(wound: WoundKernel) -> FourierSymbol:
    """Quadrature Fourier coefficients a_k = h^d sum_i a(z_i) exp(-2 pi i k.z_i)."""
    n = wound.n
    d = wound.dimension
    full = np.fft.fftn(wound.samples) * float(n) ** (-d)
    half = (n - 1) // 2  # excludes the unmatched Nyquist mode for even n
    order = np.arange(-half, half + 1) % n
    coeff = full[np.ix_(*([order] * d))] if d > 1 else full[order]
    coeff = np.ascontiguousarray(coeff)
    coeff.flags.writeable = False
    waves = np.arange(-half, half + 1)
    waves.flags.writeable = False
    return FourierSymbol(d, n, waves, coeff)
