"""Dense collocation matrices for the torus operators, and the Fourier symbol.

Assembly convention: off-diagonal entries hold h^d b(x_i, y_j); the diagonal
of a generator carries V(x_i) minus the serial sum of the off-diagonal row,
so the kernel's own diagonal sample never enters, as in b(x,y)(u(y) - u(x)).
``generator_rows`` forms the rows x_S = 0 over a slab of invariant axes S,
or every row, and sums only the kernel's slab rows x_a = 0 along its
invariant axes, broadcast as for W (``kernels.slab_row_sums``): the
generator is exactly invariant along those axes, diagonal included, and
with V = 0 each row sums to exactly zero in the column order of its slab
representative.  The ratio operator reads W from ``GenericKernel.w``.
Kernel and potential must carry one grid wherever they meet.  The generator
takes the kernel's ``symmetric`` flag and its invariant axes along which the
potential samples are bit-equal too; it is Metzler, so its
diagonal alone gives the shift that makes it nonnegative.  The Bloch fibre
k = 0 of a model invariant along some axes is a model on the torus of the
remaining axes.  The Fourier symbol of a wound kernel is h^d times the DFT
of its samples on every grid wavevector: the eigenvalues of the circulant
h^d B, with no band cut and no Nyquist exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MuBelowEdge
from .grid import TorusGrid
from .kernels import GenericKernel, Potential, WoundKernel, convolution_kernel, slab_row_sums

MU_EDGE_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class OperatorMatrix:
    """Dense matrix of a torus operator: the generator M, the ratio
    operator Q_mu, or a diagonal shift of M.  ``symmetric`` and
    ``invariant_axes`` are set by ``assemble_generator`` from the kernel
    and the potential, and are False and () on any matrix built otherwise,
    which then takes the general dense solvers on the whole matrix.
    ``data`` is the square matrix or, in ``analyze`` of an invariant model, its
    rows x_S = 0 only (S = ``slab_axes``, see ``invariant_axes``), which ``shifted`` rejects.
    ``orbits``, set by ``even_sector`` only, maps each grid node to its row of a reflection's
    even sector, which ``data`` then holds.
    """

    data: np.ndarray
    grid: TorusGrid
    symmetric: bool = False
    invariant_axes: tuple[int, ...] = ()
    orbits: np.ndarray | None = None

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(self.data, dtype=float)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        slab = self.grid.size // self.grid.n ** len(self.invariant_axes)
        if data.ndim != 2 or data.shape[0] not in (data.shape[1], slab):
            raise DimensionMismatch("operator matrix must be square, or hold its slab rows")
        order = self.grid.size if self.orbits is None else int(self.orbits.max()) + 1
        if data.shape[1] != order:
            raise DimensionMismatch(f"matrix order {data.shape[1]} does not match grid size {order}")

    @property
    def slab_axes(self) -> tuple[int, ...]:
        """The axes S of the rows x_S = 0 that ``data`` holds: () on a square matrix."""
        return () if self.data.shape[0] == self.data.shape[1] else self.invariant_axes

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """The matrix-vector product, by BLAS, at the rows ``data`` holds.

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
        return OperatorMatrix(data, self.grid, orbits=self.orbits)


def model_axes(b: GenericKernel, potential: Potential) -> tuple[int, ...]:
    """The model's invariant axes S: the kernel's, where the potential samples are bit-equal too."""
    b.grid.require_match(potential.grid)
    v = potential.samples.reshape((b.grid.n,) * b.grid.dimension)
    return tuple(a for a in b.invariant_axes if np.array_equal(v, np.roll(v, 1, axis=a)))


def _reflect(a: np.ndarray, s: tuple[int, ...]) -> np.ndarray:
    """a[(s - x) mod n] on every axis of an (n,)*d array: a flipped, then rolled by s + 1."""
    return np.roll(np.flip(a), np.add(s, 1), tuple(range(a.ndim)))


def model_reflection(b: GenericKernel, potential: Potential) -> tuple[int, ...] | None:
    """A point s whose reflection r(x) = (s - x) mod n on every axis leaves the model exactly
    invariant, or None: b must be invariant along every axis, b(x, y) = b(x - y, 0), and
    ``symmetric``, and V[r] == V bit for bit.  Each s with V[s] == V[0] is tested in turn,
    those that fix no node (n even, some s_a odd) first.
    """
    grid = b.grid
    grid.require_match(potential.grid)
    if not (b.symmetric and len(b.invariant_axes) == grid.dimension):
        return None
    v = potential.samples.reshape((grid.n,) * grid.dimension)
    candidates = sorted((tuple(map(int, s)) for s in np.argwhere(v == v.flat[0])),
                        key=lambda s: grid.n % 2 == 1 or not any(a % 2 for a in s))  # fixing a node last
    return next((s for s in candidates if np.array_equal(_reflect(v, s), v)), None)


def generator_rows(b: GenericKernel, potential: Potential, axes: tuple[int, ...] = ()) -> np.ndarray:
    """The generator's rows x_S = 0 as one (n^(d - |S|), N) array, S = ``axes`` within the
    kernel's invariant axes: h^d times ``b.rows(S)``, scaled in place, and V minus
    ``slab_row_sums`` of it on the diagonal."""
    grid, slab = b.grid, b.grid.origin_slab(axes)
    nodes = np.arange(grid.size).reshape(grid.slab_shape(()))[slab].ravel()
    rows = b.rows(axes)
    rows *= grid.weight
    diagonal = (np.arange(nodes.size), nodes)
    rows[diagonal] = 0.0
    rows[diagonal] = potential.samples[nodes] - slab_row_sums(rows, b, axes=axes)
    return rows


def assemble_generator(b: GenericKernel, potential: Potential) -> OperatorMatrix:
    """Jump generator, the whole square matrix: kernel part plus (V - W) on the diagonal.

    Its entries come from ``generator_rows``, its invariant axes from ``model_axes``.
    """
    axes = model_axes(b, potential)
    return OperatorMatrix(generator_rows(b, potential), b.grid, symmetric=b.symmetric, invariant_axes=axes)


def even_sector(generator: OperatorMatrix, s: tuple[int, ...]) -> OperatorMatrix:
    """The generator M on the even sector of a reflection r (``model_reflection``) that leaves
    it invariant: one coordinate c = q u(x), q = sqrt(|orbit| / 2), per orbit {x, r x}, in the
    order of its least node x, which ``orbits`` maps each node to.  The entries
    q_i q_j (M_ij + M_{i, r j}) at least nodes i, j are symmetric bit for bit when M is, and
    with no node fixed (q = 1) are those sums alone.
    """
    grid = generator.grid
    nodes = np.arange(grid.size)
    mirror = _reflect(nodes.reshape((grid.n,) * grid.dimension), s).ravel()
    least, orbits = np.unique(np.minimum(nodes, mirror), return_inverse=True)
    orbits.flags.writeable = False
    data = generator.data[np.ix_(least, least)]
    data += generator.data[np.ix_(least, mirror[least])]
    if least.size > grid.size / 2:  # some orbit is a fixed node
        q = np.sqrt(np.bincount(orbits) / 2.0)
        data *= np.outer(q, q)
    return OperatorMatrix(data, grid, generator.symmetric, orbits=orbits)


def fibre_model(b: GenericKernel, potential: Potential) -> tuple[GenericKernel, Potential]:
    """The Bloch fibre k = 0 of a model invariant along its ``model_axes`` S.

    It is the model on ``TorusGrid(d - |S|, n)`` with the kernel
    b'(x, y) = h^|S| sum_{y_S} b((x, 0_S), (y, y_S)), and the potential V
    on the slab x_S = 0.  Its rows x_{K - S} = 0 are ``b.slab`` summed over
    y_S in mirror pairs, t(y_S) + t(-y_S) first, as winding adds them, then
    halved, so the fibre of a symmetric kernel is symmetric bit for bit:
    O(n^d) for a convolution kernel, whose row gives the fibre's own.
    Its generator and ratio operator are the blocks k = 0 of the model's
    own, which hold the Perron eigenvectors: those are constant along S.
    When S is empty, or every axis (a 0-D grid does not exist), the model
    is returned as it is.
    """
    grid, axes = b.grid, model_axes(b, potential)
    n, d, s = grid.n, grid.dimension, len(axes)
    if not 0 < s < d:
        return b, potential
    fibre = TorusGrid(d - s, n)
    ys, slab = tuple(d + a for a in axes), b.slab.reshape(grid.slab_shape(b.invariant_axes) + (n,) * d)
    pairs = slab + np.roll(np.flip(slab, ys), 1, ys)  # t(y_S) + t(-y_S), which mirroring y_S leaves as it is
    samples = pairs.sum(axis=ys) * (0.5 * float(n) ** -s)
    if len(b.invariant_axes) == d:  # the fibre's row b'(0, y) = a'(-y)
        row = samples.reshape((n,) * fibre.dimension)
        kernel = convolution_kernel(WoundKernel(fibre, _reflect(row, (0,) * row.ndim)))
    else:
        kernel = GenericKernel(fibre, samples.reshape(fibre.size, fibre.size))
    return kernel, Potential(fibre, potential.samples.reshape((n,) * d)[grid.origin_slab(axes)])


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
