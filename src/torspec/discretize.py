"""Dense collocation matrices for the torus operators, the reduced model, and the Fourier symbol.

Assembly convention: off-diagonal entries hold h^d b(x_i, y_j); the diagonal
of a generator carries V(x_i) minus numpy's sum of the off-diagonal row,
so the kernel's own diagonal sample never enters, as in b(x,y)(u(y) - u(x)).
``assemble_generator`` forms the rows x_S = 0 over a slab of invariant axes
S, or every row, and sums only the kernel's slab rows x_a = 0 along its
invariant axes, broadcast as for W (``kernels.slab_row_sums``): the
generator is exactly invariant along those axes, diagonal included, and
with V = 0 each diagonal entry is minus numpy's sum of its slab
representative's off-diagonal row, bit for bit.  Kernel and potential must
carry one grid wherever they meet.  The generator takes the kernel's
``symmetric`` flag and its invariant axes along which the potential samples
are bit-equal too; it is Metzler, so its diagonal alone gives the shift
that makes it nonnegative.
``ReducedModel`` decides once the block that holds a model's ground state
and the start u0 = 1: the Bloch fibre k = 0 along the invariant axes, and
in it the even sector of a point reflection.  The shifted power, the ratio
operator Q_mu and the density evolution all run there.  The Fourier symbol
of a wound kernel is h^d times the DFT of its samples on every grid
wavevector: the eigenvalues of the circulant h^d B, with no band cut and no
Nyquist exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, MuBelowEdge
from .grid import TorusGrid
from .kernels import GenericKernel, Potential, WoundKernel, slab_row_sums

MU_EDGE_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class OperatorMatrix:
    """Dense matrix of a torus operator: the generator M, the ratio
    operator Q_mu, or a diagonal shift of M.  ``symmetric`` and
    ``invariant_axes`` are set by ``assemble_generator`` from the kernel
    and the potential, and are False and () on any matrix built otherwise,
    which then takes the general dense solvers on the whole matrix.
    ``data`` is the square matrix or, as ``assemble_generator`` forms it on an invariant model,
    its rows x_S = 0 only (S = ``slab_axes``, see ``invariant_axes``), which ``shifted`` rejects.
    A matrix of a ``ReducedModel`` has that model's order and the model as ``reduction``.
    """

    data: np.ndarray
    grid: TorusGrid
    symmetric: bool = False
    invariant_axes: tuple[int, ...] = ()
    reduction: "ReducedModel | None" = None

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(self.data, dtype=float)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        slab = self.grid.size // self.grid.n ** len(self.invariant_axes)
        if data.ndim != 2 or data.shape[0] not in (data.shape[1], slab):
            raise DimensionMismatch("operator matrix must be square, or hold its slab rows")
        order, of = (self.grid.size, "grid size") if self.reduction is None else (self.reduction.order, "model order")
        if data.shape[1] != order:
            raise DimensionMismatch(f"matrix order {data.shape[1]} does not match {of} {order}")

    @property
    def slab_axes(self) -> tuple[int, ...]:
        """The axes S of the rows x_S = 0 that ``data`` holds: () on a square matrix."""
        return () if self.data.shape[0] == self.data.shape[1] else self.invariant_axes

    @property
    def diagonal(self) -> np.ndarray:
        """M_xx at the rows ``data`` holds."""
        held = self.slab_axes
        return self.data[np.arange(len(self.data)), self.grid.slab_nodes(held)] if held else np.diagonal(self.data)

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
        return OperatorMatrix(data, self.grid, reduction=self.reduction)


def model_axes(b: GenericKernel, potential: Potential) -> tuple[int, ...]:
    """The model's invariant axes S: the kernel's, where the potential samples are bit-equal too."""
    b.grid.require_match(potential.grid)
    v = potential.samples.reshape((b.grid.n,) * b.grid.dimension)
    return tuple(a for a in b.invariant_axes if np.array_equal(v, np.roll(v, 1, axis=a)))


def _reflect(a: np.ndarray, s: tuple[int, ...]) -> np.ndarray:
    """a[(s - x) mod n] on every axis of an (n,)*d array: a flipped, then rolled by s + 1."""
    return np.roll(np.flip(a), np.add(s, 1), tuple(range(a.ndim)))


def assemble_generator(b: GenericKernel, potential: Potential, axes: tuple[int, ...] = ()) -> OperatorMatrix:
    """Jump generator, kernel part plus (V - W) on the diagonal, at its rows x_S = 0 for S = ``axes``
    (() for every row, or the model's invariant axes, ``model_axes``, which the matrix takes as its
    ``invariant_axes``; any other S raises DimensionMismatch): h^d times ``b.rows(S)``, scaled in
    place, with V minus ``slab_row_sums`` of it on the diagonal."""
    grid, nodes, invariant = b.grid, b.grid.slab_nodes(axes), model_axes(b, potential)
    if axes not in ((), invariant):
        raise DimensionMismatch(f"the generator's rows x_S = 0 need S = () or {invariant}, got {axes}")
    rows = b.rows(axes)
    rows *= grid.weight
    diagonal = (np.arange(nodes.size), nodes)
    rows[diagonal] = 0.0
    rows[diagonal] = potential.samples[nodes] - slab_row_sums(rows, b, axes)[nodes]
    return OperatorMatrix(rows, grid, symmetric=b.symmetric, invariant_axes=invariant)


class ReducedModel:
    """The block of a model that holds its ground state and the start u0 = 1, decided once.

    Along the model's invariant axes S (``axes``, ``model_axes``) its matrices have a Bloch
    block k = 0 on the fibre x_S = 0, of order n^(d - |S|), 1 when S is every axis.  With a
    kernel ``symmetric`` and invariant along every axis, and a fibre potential equal to its
    mirror under r(x) = (s - x) mod n bit for bit (``point`` = s; each s with V[s] == V[0] in
    turn, those that fix no node first), the block's even sector under r has one coordinate
    c = q u(x) per orbit {x, r x}, q = sqrt(|orbit| / 2) (``scale``, None when every q is 1).
    ``order`` counts the orbits, ``nodes`` holds the least grid node of each, ``orbit`` the
    orbit of every node, ``mirror`` r x for every fibre index x (x itself without a point),
    ``denominator`` W - V at ``nodes``.  Unreduced, the order is n^d.
    """

    def __init__(self, kernel: GenericKernel, potential: Potential) -> None:
        grid, self.kernel, self.potential = kernel.grid, kernel, potential
        n, d = grid.n, grid.dimension
        self.axes = model_axes(kernel, potential)
        fibre, slab = (n,) * (d - len(self.axes)), grid.slab_nodes(self.axes)
        v = potential.samples[slab].reshape(fibre)
        self.point = None
        if fibre and kernel.symmetric and len(kernel.invariant_axes) == d:  # then b(r x, r y) == b(x, y)
            c = np.argwhere(v == v.flat[0])
            c = c[np.argsort((c % 2 == 0).all(axis=1) | (n % 2 == 1), kind="stable")]  # points fixing a node last
            w = np.lib.stride_tricks.sliding_window_view(np.tile(np.flip(v), (2,) * v.ndim), v.shape)
            hits = (s[(w[tuple((n - 1 - s.T) % n)] == v).reshape(len(s), -1).all(axis=1)]  # windows v[(s - x) mod n]
                    for s in np.array_split(c, -(-len(c) * v.size // 2**16)))  # about 2^16 compared elements a chunk
            self.point = next((tuple(map(int, h[0])) for h in hits if len(h)), None)
        index = np.arange(slab.size)
        mirror = index if self.point is None else _reflect(index.reshape(fibre), self.point).ravel()
        rep = np.minimum(index, mirror)  # the least node of each node's orbit
        least, orbits = np.flatnonzero(rep == index), (np.cumsum(rep == index) - 1)[rep]
        self.order, self.nodes, self.mirror, self._sector = least.size, slab[least], mirror, (least, mirror[least])
        self.orbit = np.broadcast_to(orbits.reshape(grid.slab_shape(self.axes)), grid.slab_shape(())).ravel()
        self.scale = np.sqrt(np.bincount(orbits) / 2.0) if self.point and (mirror == index).any() else None
        self.denominator = shift_denominator(kernel, potential)[self.nodes]

    def fold(self, rows: np.ndarray, diagonal: np.ndarray | None = None) -> np.ndarray:
        """The reduced block of a matrix with the model's symmetries from its rows x_S = 0, with
        ``diagonal`` (a value per row), if given, in place of its own: the rows summed over y_S in
        mirror pairs, t(y_S) + t(-y_S) first, into F, symmetric bit for bit when the matrix is; then
        q_i q_j (F_ij + F_{i,r j}) at the orbits' least nodes.  Unreduced, with no ``diagonal``, ``rows``."""
        grid, (least, mirrored), f, s = self.kernel.grid, self._sector, rows, len(self.axes)
        if rows.shape != (grid.size // grid.n**s, grid.size):
            raise DimensionMismatch(f"fold takes the {grid.size // grid.n**s} rows x_S = 0, S = {self.axes}")
        if diagonal is not None and diagonal.shape != (len(rows),):
            raise DimensionMismatch(f"fold takes a diagonal of {len(rows)} values, one per row")
        if self.order == grid.size and diagonal is not None:
            f = rows.copy()
            np.fill_diagonal(f, diagonal)
        elif s:
            n, d = grid.n, grid.dimension
            t = np.moveaxis(rows.reshape((len(rows),) + (n,) * d), [1 + a for a in self.axes], range(s))
            t = t.reshape(n**s, len(rows), -1)  # t[y_S], y_S = 0 first: the only one on the diagonal
            f = t[0].copy()
            if diagonal is not None:
                np.fill_diagonal(f, diagonal)
            index = np.arange(n**s)
            minus = _reflect(index.reshape((n,) * s), (0,) * s).ravel()
            for j in np.flatnonzero(index <= minus)[1:]:
                f += t[j] if minus[j] == j else t[j] + t[minus[j]]
        if self.point is not None:
            f, g = f[np.ix_(least, least)], f[np.ix_(least, mirrored)]
            if diagonal is not None and not s:  # the whole matrix's diagonal, at the least nodes
                np.fill_diagonal(f, diagonal[least])
                fixed = np.flatnonzero(least == mirrored)
                g[fixed, fixed] = diagonal[least[fixed]]
            f += g
            if self.scale is not None:
                f *= np.outer(self.scale, self.scale)
        return f

    def lift(self, c: np.ndarray) -> np.ndarray:
        """Reduced states (..., order) on the grid, c_i / q_i at every node of orbit i, C-contiguous,
        each row bit-equal to the lift of that state alone; unreduced, ``c``."""
        if c.shape[-1:] != (self.order,):
            raise DimensionMismatch(f"lift takes reduced states of length {self.order}, got shape {c.shape}")
        if self.order == self.kernel.grid.size:
            return c
        # np.take, not c[..., orbit]: that result is F-ordered, and its row sums differ in the last bit
        return np.take(c if self.scale is None else c / self.scale, self.orbit, axis=-1)

    @cached_property
    def generator(self) -> OperatorMatrix:
        """The generator at its rows x_S = 0, ``assemble_generator(kernel, potential, axes)``: the one
        gather of the kernel's rows that ``kernel_part`` folds."""
        return assemble_generator(self.kernel, self.potential, self.axes)

    def reduce(self, generator: OperatorMatrix) -> OperatorMatrix:
        """The generator on the reduced model, ``fold`` of its rows x_S = 0, diagonal included."""
        return OperatorMatrix(self.fold(generator.data), generator.grid, generator.symmetric, reduction=self)

    @cached_property
    def kernel_part(self) -> np.ndarray:
        """The folded kernel part h^d B: ``fold`` of ``generator``'s rows with h^d b(x, x) in place of
        their diagonal, so no diagonal is formed by subtracting another."""
        b, grid, held = self.kernel, self.kernel.grid, self.kernel.invariant_axes
        own = b.slab[np.arange(len(b.slab)), grid.slab_nodes(held)].reshape(grid.slab_shape(held))
        kernel = self.fold(self.generator.data, grid.weight * np.broadcast_to(own, grid.slab_shape(self.axes)).ravel())
        kernel.flags.writeable = False
        return kernel


def shift_denominator(b: GenericKernel, potential: Potential) -> np.ndarray:
    """Row denominator U + W of the ratio operator at zero shift, U = -V."""
    b.grid.require_match(potential.grid)
    return b.w - potential.samples


def check_shift(mu: float, denominator: np.ndarray) -> None:
    """Reject a shift at or below the admissible edge -min(U + W)."""
    alpha1 = float(denominator.min())
    if not mu > -alpha1 + MU_EDGE_MARGIN:
        raise MuBelowEdge(f"shift {mu!r} at or below admissible edge {-alpha1!r}")


def assemble_birman_schwinger(model: ReducedModel, mu: float, adjoint: bool = False) -> OperatorMatrix:
    """Ratio operator h^d b(x_i, y_j) / (U(x_i) + W(x_i) + mu), U = -V, on the reduced
    model: ``model.kernel_part`` over ``model.denominator`` + mu, row by row.

    Its spectral radius crosses one exactly at the maximum eigenvalue of the
    generator.  ``adjoint`` transposes the kernel part while keeping the same
    row denominators, yielding the adjoint-generator counterpart.
    """
    check_shift(mu, model.denominator)
    data = np.array(model.kernel_part.T if adjoint else model.kernel_part, order="C")
    data /= (model.denominator + mu)[:, None]
    return OperatorMatrix(data, model.kernel.grid, reduction=model)


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
