"""Dense collocation matrices for the torus operators, and the Fourier symbol.

Assembly convention: off-diagonal entries hold h^d b(x_i, y_j); the diagonal
of a generator carries V(x_i) minus the serial sum of the off-diagonal row.
The kernel's own diagonal sample never enters, mirroring the difference
structure b(x,y)(u(y) - u(x)) where it cancels identically.  Along the
kernel's invariant axes the off-diagonal part is invariant, so one row-sum
rule (``kernels.slab_row_sums``) sums only the slab rows x_a = 0 and
broadcasts them, as it does for the jump rate W: the generator is then
exactly invariant along its invariant axes, diagonal included.  When
V = 0 each row sums to exactly zero, bit for bit, when it is added in the
column order of its slab representative, translated with it; without
invariant axes that order is left to right.  The ratio operator reads W
from ``GenericKernel.w`` and does not recompute it.  Kernel and potential
must carry one grid wherever they meet; the generator takes that grid and
the kernel's ``symmetric`` flag, since off-diagonal entries h^d b and a
diagonal are symmetric exactly when b is, and the kernel's invariant axes
along which the potential samples are bit-equal too.  The generator is
Metzler, so its diagonal alone gives the shift that makes it nonnegative.
The Bloch fibre k = 0 of a model invariant along some axes is a model on
the torus of the remaining axes.  The Fourier symbol of a wound kernel is
h^d times the DFT of its samples on every grid wavevector: the
eigenvalues of the circulant h^d B, with no band cut and no Nyquist
exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MuBelowEdge
from .grid import TorusGrid
from .kernels import GenericKernel, Potential, WoundKernel, slab_row_sums

MU_EDGE_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class OperatorMatrix:
    """Dense square matrix of a torus operator: the generator M, the ratio
    operator Q_mu, or a diagonal shift of M.  ``symmetric`` and
    ``invariant_axes`` are set by ``assemble_generator`` from the kernel
    and the potential, and are False and () on any matrix built otherwise,
    which then takes the general dense solvers on the whole matrix."""

    data: np.ndarray
    grid: TorusGrid
    symmetric: bool = False
    invariant_axes: tuple[int, ...] = ()

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


def model_axes(b: GenericKernel, potential: Potential) -> tuple[int, ...]:
    """The model's invariant axes S: the kernel's, where the potential samples are bit-equal too."""
    b.grid.require_match(potential.grid)
    v = potential.samples.reshape((b.grid.n,) * b.grid.dimension)
    return tuple(a for a in b.invariant_axes if np.array_equal(v, np.roll(v, 1, axis=a)))


def assemble_generator(b: GenericKernel, potential: Potential) -> OperatorMatrix:
    """Jump generator: kernel part plus (V - W) on the diagonal.

    Its off-diagonal row sums come from ``slab_row_sums``, its invariant axes from ``model_axes``.
    """
    axes = model_axes(b, potential)
    data = b.grid.weight * b.samples
    np.fill_diagonal(data, 0.0)
    np.fill_diagonal(data, potential.samples - slab_row_sums(data, b))
    return OperatorMatrix(data, b.grid, symmetric=b.symmetric, invariant_axes=axes)


def fibre_model(b: GenericKernel, potential: Potential) -> tuple[GenericKernel, Potential]:
    """The Bloch fibre k = 0 of a model invariant along its ``model_axes`` S.

    It is the model on ``TorusGrid(d - |S|, n)`` with the kernel
    b'(x, y) = h^|S| sum_{y_S} b((x, 0_S), (y, y_S)), summed from the slab
    rows x_S = 0, and the potential V on that slab.  Its generator and
    ratio operator are the blocks k = 0 of the model's own, which hold the
    Perron eigenvectors: those are constant along S.  When S is empty, or
    every axis (a 0-D grid does not exist), the model is returned as it is.
    """
    grid, axes = b.grid, model_axes(b, potential)
    n, d, s = grid.n, grid.dimension, len(axes)
    if not 0 < s < d:
        return b, potential
    slab = grid.origin_slab(axes)
    rows = b.samples.reshape((n,) * (2 * d))[slab]
    fibre = TorusGrid(d - s, n)
    samples = rows.sum(axis=tuple(d + a for a in axes)) * float(n) ** -s
    kernel = GenericKernel(fibre, samples.reshape(fibre.size, fibre.size))
    return kernel, Potential(fibre, potential.samples.reshape((n,) * d)[slab])


def shift_denominator(b: GenericKernel, potential: Potential) -> np.ndarray:
    """Row denominator U + W of the ratio operator at zero shift, U = -V."""
    b.grid.require_match(potential.grid)
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
    adjoint: bool = False,
) -> OperatorMatrix:
    """Ratio operator h^d b(x_i, y_j) / (U(x_i) + W(x_i) + mu), U = -V.

    Its spectral radius crosses one exactly at the maximum eigenvalue of the
    generator.  ``adjoint`` transposes the kernel while keeping the same
    row denominators, yielding the adjoint-generator counterpart.
    """
    denom = shift_denominator(b, potential)
    check_shift(mu, denom)
    samples = b.samples.T if adjoint else b.samples
    data = np.multiply(samples, b.grid.weight, order="C")  # one C-ordered array, also for the adjoint
    data /= (denom + mu)[:, None]
    return OperatorMatrix(data, b.grid)


# ---------------------------------------------------------------------------
# Fourier symbol of a convolution kernel: the circulant's eigenvalues


def fourier_symbol(wound: WoundKernel) -> np.ndarray:
    """Quadrature Fourier coefficients a_k = h^d sum_i a(z_i) exp(-2 pi i k.z_i)
    for every k in (Z/n)^d, as a read-only (n,)*d array in FFT order, so
    ``symbol[k]`` is a_k and a negative index gives -k.  These are exactly
    the eigenvalues of the circulant h^d B that the kernel assembles to,
    the Nyquist mode of even n included."""
    symbol = np.fft.fftn(wound.samples) * wound.grid.weight
    symbol.flags.writeable = False
    return symbol
