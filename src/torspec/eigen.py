"""Eigenvalue machinery: Perron power iteration with Collatz-Wielandt
certificates, and dense spectra.

The power iteration is the positive-operator route; the dense solve
(LAPACK: symmetric tridiagonal QR on a generator flagged ``symmetric``,
balanced Hessenberg QR otherwise) is the independent cross-check.  The two
must agree or the caller aborts, so neither silently wins.  A generator
that commutes with grid translations along some axes is split by a DFT
along them into independent blocks (the discrete Floquet-Bloch reduction;
block-circulant diagonalization, Davis, *Circulant Matrices*, 1979), and
the dense solve runs block by block.  With a point reflection too, where the
kernel is also even along the invariant axes, every block is real and commutes
with the reflection, the whole matrix being one block, and the solve runs on
each block's even and odd sector (Cantoni & Butler, Linear Algebra Appl. 13,
1976).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .discretize import OperatorMatrix
from .errors import (
    DimensionMismatch,
    FloatingPointFailure,
    NegativeEntry,
    NonPositiveVector,
    NotConverged,
    QRNotConverged,
)

SPECTRUM_ORDER_CAP = 4096
# Collatz-Wielandt gap, in float spacings of the root, that rounding of the
# ratios alone can leave: a tolerance below it could never be met
ROUNDING_ULPS = 4


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class PerronResult:
    """Dominant eigenpair of a nonnegative matrix with a certificate.

    The Collatz-Wielandt bounds sandwich the spectral radius; their gap at
    convergence is at most the requested tolerance.  For a Metzler
    generator, ``max_eigenvalue_shifted_power`` returns ``rho`` and both
    bounds shifted back onto the generator itself.
    """

    rho: float
    vector: np.ndarray
    cw_lower: float
    cw_upper: float
    iterations: int


_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array; array arithmetic wraps mod
    2**64 without tripping numpy's overflow traps."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _start_vector(order: int, seed: int) -> np.ndarray:
    """Strictly positive start in [0.5, 1.5), so every primitive matrix converges.

    Entry i is the top 52 bits of the splitmix64 stream keyed by the seed,
    at counter i + 1.  The seed enters as a Python integer mod 2**64, so
    any integer seed works and seeds equal mod 2**64 share a stream.
    Drawing the vector this way keeps ``numpy.random``, and its memory,
    out of the process.
    """
    key = _mix64(np.array([int(seed) % 2**64], dtype=np.uint64))
    counters = np.arange(1, order + 1, dtype=np.uint64)
    return 0.5 + (_mix64(counters * _GOLDEN_GAMMA + key) >> np.uint64(12)) * 2.0**-52


def perron(
    a: np.ndarray,
    tol: float = 1e-11,
    max_iter: int = 100_000,
    seed: int = 0,
    start: np.ndarray | None = None,
    scale: np.ndarray | None = None,
) -> PerronResult:
    """Power iteration for the Perron root of a nonnegative primitive matrix.

    Converges when the Collatz-Wielandt gap max_i (Av)_i/v_i - min_i (Av)_i/v_i
    drops to ``tol``, or to ``ROUNDING_ULPS`` float spacings of its upper
    end, below which rounding alone can hold it; the returned value is the
    Rayleigh ratio at the final iterate, clamped into the certificate's
    bracket, which rounding of the ratio alone can leave by a float spacing.
    ``start`` replaces the seeded random start with a positive warm-start
    vector; a positive row ``scale`` makes the iterated operator
    diag(scale) A without forming it.  A non-square ``a``, or a ``start`` or
    ``scale`` not of its order, raises DimensionMismatch.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    if not (isinstance(max_iter, Integral) and max_iter >= 1 and isinstance(seed, Integral)):
        raise ValueError(f"max_iter must be a positive integer and seed an integer, got {max_iter!r}, {seed!r}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"perron takes a square matrix, got shape {a.shape}: use ReducedModel.reduce")
    scale = None if scale is None else np.asarray(scale, dtype=float)
    for name, x in (("start", start), ("scale", scale)):
        if x is not None and np.shape(x) != (len(a),):
            raise DimensionMismatch(f"{name} must have length {len(a)}, got shape {np.shape(x)}")
    if a.min() < 0:
        raise NegativeEntry("matrix has a negative entry")
    if scale is not None and not scale.min() > 0:
        raise NegativeEntry("row scale must be positive")
    if start is None:
        v = _start_vector(a.shape[0], seed)
    else:
        v = np.array(start, dtype=float)
        if not v.min() > 0:
            raise NonPositiveVector("start vector must be entrywise positive")
    v /= math.sqrt(v.dot(v))  # np.linalg.norm's own sum, without its overhead in the loop
    for iteration in range(1, max_iter + 1):
        w = a @ v
        if scale is not None:
            w *= scale
        if np.minimum.reduce(v) > 0.0:
            ratios = w / v
            lower = float(np.minimum.reduce(ratios))
            upper = float(np.maximum.reduce(ratios))
            # np.spacing, not math.ulp: at an infinite ratio it is NaN, not inf, and the gap test fails
            if upper - lower <= max(tol, ROUNDING_ULPS * np.spacing(upper)):
                rho = min(max(float(v @ w / (v @ v)), lower), upper)
                return PerronResult(rho, v, lower, upper, iteration)
        # normalized only when iterated on: a converged step never squares
        # entries that may lie beyond the square root of the float range
        norm_w = math.sqrt(w.dot(w))
        if not math.isfinite(norm_w):
            raise FloatingPointFailure("power iterate overflowed; scale the matrix")
        if norm_w == 0.0:
            raise NotConverged("iterate vanished; matrix is not primitive")
        v = w / norm_w
    raise NotConverged(f"certificate gap above {tol} after {max_iter} iterations")


def block_shape(generator: OperatorMatrix, even: OperatorMatrix | None = None) -> tuple[int, int, int]:
    """The generator's n^|S| Bloch blocks of order n^(d - |S|), S its invariant axes (1 and N without),
    and the largest order ``full_spectrum`` hands LAPACK: the block order, or where ``even``'s model
    ``split``s the blocks the even sector's, no fewer orbits than the odd one's."""
    blocks = generator.grid.n ** len(generator.invariant_axes)
    order = generator.grid.size // blocks
    return blocks, order, len(even.data) if even is not None and even.reduction.split else order


def _bloch_spectrum(generator: OperatorMatrix, solve) -> np.ndarray:
    """Eigenvalues of the generator, block by block along its invariant
    axes S, along which it is exactly invariant, diagonal included.

    The rows at x_S = 0 (all ``data`` may hold), transformed by a DFT along
    the y_S column axes, give one block C_k per wavevector k on S, each
    solved at its own order by ``solve``.  A self-conjugate block (k = -k mod n)
    is real; block -k is the conjugate of block k, so a real DFT keeps one of each
    pair and -k's eigenvalues are the conjugates of k's, an exact pair.
    """
    grid, axes = generator.grid, generator.invariant_axes
    n, d, s = grid.n, grid.dimension, len(axes)
    m = block_shape(generator)[1]
    rows = generator.data.reshape(grid.slab_shape(generator.slab_axes) + (n,) * d)[grid.origin_slab(axes)]
    y_axes = [d + a for a in axes]
    blocks = np.fft.rfftn(np.moveaxis(rows, y_axes, range(s)), axes=tuple(range(s))).reshape(-1, m, m)
    half = np.indices((n,) * (s - 1) + (n // 2 + 1,)).reshape(s, -1)  # the k rfftn keeps
    k, minus = (np.ravel_multi_index(q % n, (n,) * s) for q in (half, -half))
    paired = (k != minus) & ((k < minus) | (-half[-1] % n > n // 2))  # -k dropped, or k first
    own, pairs = solve(blocks[k == minus].real), solve(blocks[paired])
    return np.concatenate([own.ravel(), pairs.ravel(), pairs.conj().ravel()])


def full_spectrum(
    generator: OperatorMatrix, order_cap: int = SPECTRUM_ORDER_CAP, even: OperatorMatrix | None = None
) -> np.ndarray:
    """All eigenvalues by LAPACK QR with deflation.

    A matrix flagged ``symmetric`` (by ``assemble_generator``, from an
    exactly symmetric kernel) takes the symmetric tridiagonal QR
    (``eigvalsh``), whose eigenvalues are real; any other takes balanced
    Hessenberg QR (``eigvals``).  A matrix with ``invariant_axes`` is
    exactly invariant along them and is solved block by block
    (``_bloch_spectrum``) from its rows x_S = 0, all it may hold, each block
    at its own order, complex where its wavevector pairs with another; the
    order cap applies to the whole matrix either way.  ``even``, the reduced matrix
    ``ReducedModel.reduce(generator)``, splits a symmetric generator whose model
    ``split``s its blocks into its sectors: every block, the whole matrix F being
    one, is real and commutes with the reflection r, and ``ReducedModel.sector``
    gives its even sector q_l q_l' (F[l, l'] + F[l, r l']) and its odd one
    F[l, l'] - F[l, r l'], l < r l; any other model keeps whole blocks.  Ordered
    by descending real part, ties by ascending imaginary part; complex
    eigenvalues of real input come in conjugate pairs.  LAPACK's failure to
    converge raises QRNotConverged.
    """
    if generator.grid.size > order_cap:
        raise DimensionMismatch(f"matrix order {generator.grid.size} exceeds the cap {order_cap}")
    solve = np.linalg.eigvalsh if generator.symmetric else np.linalg.eigvals
    if even is not None and even.reduction.split:  # every block real, solved on its two sectors
        model, solver = even.reduction, solve
        solve = lambda f: np.concatenate([solver(model.sector(f.real, odd)).ravel() for odd in (False, True)])
    try:
        values = _bloch_spectrum(generator, solve) if generator.invariant_axes else solve(generator.data)
    except np.linalg.LinAlgError as exc:
        raise QRNotConverged(str(exc)) from exc
    order = np.lexsort((values.imag, -values.real))
    return values[order]
