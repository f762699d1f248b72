"""Eigenvalue machinery: Perron power iteration with Collatz-Wielandt
certificates, and dense spectra.

The power iteration is the positive-operator route; the dense solve
(LAPACK: symmetric tridiagonal QR on a generator flagged ``symmetric``,
balanced Hessenberg QR otherwise) is the independent cross-check.  The two
must agree or the caller aborts, so neither silently wins.  A generator
that commutes with grid translations along some axes is split by a DFT
along them into independent blocks (the discrete Floquet-Bloch reduction;
block-circulant diagonalization, Davis, *Circulant Matrices*, 1979), and
the dense solve runs block by block; with a point reflection too, on its real
symmetric sectors (Cantoni & Butler, Linear Algebra Appl. 13, 1976).
"""

from __future__ import annotations

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
    diag(scale) A without forming it.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    if not (isinstance(max_iter, Integral) and max_iter >= 1 and isinstance(seed, Integral)):
        raise ValueError(f"max_iter must be a positive integer and seed an integer, got {max_iter!r}, {seed!r}")
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
    v /= np.linalg.norm(v)
    for iteration in range(1, max_iter + 1):
        w = a @ v
        if scale is not None:
            w *= scale
        if v.min() > 0.0:
            ratios = w / v
            lower = float(ratios.min())
            upper = float(ratios.max())
            if upper - lower <= max(tol, ROUNDING_ULPS * np.spacing(upper)):
                rho = min(max(float(v @ w / (v @ v)), lower), upper)
                return PerronResult(rho, v, lower, upper, iteration)
        # normalized only when iterated on: a converged step never squares
        # entries that may lie beyond the square root of the float range
        norm_w = np.linalg.norm(w)
        if not np.isfinite(norm_w):
            raise FloatingPointFailure("power iterate overflowed; scale the matrix")
        if norm_w == 0.0:
            raise NotConverged("iterate vanished; matrix is not primitive")
        v = w / norm_w
    raise NotConverged(f"certificate gap above {tol} after {max_iter} iterations")


def block_shape(generator: OperatorMatrix, even: OperatorMatrix | None = None) -> tuple[int, int, int]:
    """The generator's n^|S| Bloch blocks of order n^(d - |S|), S its invariant axes (1 and N without),
    and the largest order ``full_spectrum`` hands LAPACK: on ``even``'s sectors the block order, or the
    even sector's, no fewer orbits than the odd one's; else twice the block order if blocks pair up."""
    blocks = generator.grid.n ** len(generator.invariant_axes)
    order = generator.grid.size // blocks
    if even is not None and even.reduction.point:
        return blocks, order, order if blocks > 1 else len(even.data)
    return blocks, order, 2 * order if blocks > 1 and generator.grid.n > 2 else order


def _bloch_spectrum(generator: OperatorMatrix, solver, mirror: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of the generator, block by block along its invariant
    axes S, along which it is exactly invariant, diagonal included.

    The rows at x_S = 0 (all ``data`` may hold), transformed by a DFT along
    the y_S column axes, give one block C_k per wavevector k on S.  Block
    -k is the conjugate of block k, so a real DFT keeps one of each pair,
    and the pair is solved as the real matrix [[Re C_k, -Im C_k],
    [Im C_k, Re C_k]] of twice the order, whose eigenvalues are those of
    C_k and of its conjugate; a self-conjugate block (k = -k mod n) is
    real.  Every solve is real, as on the whole matrix, so complex
    eigenvalues come in exact conjugate pairs.  Given the fibre ``mirror`` r,
    R C_k R = conj(C_k) and Hermitian C_k = A + iB is similar, by (I + iR)/sqrt(2),
    to real symmetric A - BR, B's columns gathered by r: one stack, pairs twice.
    """
    grid, axes = generator.grid, generator.invariant_axes
    n, d, s = grid.n, grid.dimension, len(axes)
    m = block_shape(generator)[1]
    rows = generator.data.reshape(grid.slab_shape(generator.slab_axes) + (n,) * d)[grid.origin_slab(axes)]
    y_axes = [d + a for a in axes]
    blocks = np.fft.rfftn(np.moveaxis(rows, y_axes, range(s)), axes=tuple(range(s))).reshape(-1, m, m)
    half = np.indices((n,) * (s - 1) + (n // 2 + 1,)).reshape(s, -1)  # the k rfftn keeps
    k, minus = (np.ravel_multi_index(q % n, (n,) * s) for q in (half, -half))
    own = k == minus
    paired = ~own & ((k < minus) | (-half[-1] % n > n // 2))  # -k dropped, or k first
    if mirror is not None:
        keep = own | paired
        kept = blocks[keep]
        similar = kept.imag[..., mirror]
        values = solver(np.subtract(kept.real, similar, out=similar))
        return np.repeat(values, 2 - own[keep], axis=0).ravel()
    pairs = blocks[paired]
    doubled = np.empty((len(pairs), 2 * m, 2 * m))
    doubled[:, :m, :m] = doubled[:, m:, m:] = pairs.real
    doubled[:, m:, :m] = pairs.imag
    np.negative(pairs.imag, out=doubled[:, :m, m:])
    return np.concatenate([solver(blocks[own].real).ravel(), solver(doubled).ravel()])


def full_spectrum(
    generator: OperatorMatrix, order_cap: int = SPECTRUM_ORDER_CAP, even: OperatorMatrix | None = None
) -> np.ndarray:
    """All eigenvalues by LAPACK QR with deflation.

    A matrix flagged ``symmetric`` (by ``assemble_generator``, from an
    exactly symmetric kernel) takes the symmetric tridiagonal QR
    (``eigvalsh``), whose eigenvalues are real; any other takes balanced
    Hessenberg QR (``eigvals``).  A matrix with ``invariant_axes`` is
    exactly invariant along them and is solved block by block
    (``_bloch_spectrum``) from its rows x_S = 0, all it may hold; the order
    cap applies to the whole matrix either way.  ``even``, the reduced matrix
    ``ReducedModel.reduce(generator)``, splits a symmetric generator whose model
    has a point reflection r into its sectors: Bloch blocks A - BR, or ``even``
    and the odd sector F[l, l'] - F[l, r l'], l < r l, of the whole matrix F.
    Ordered by descending real part, ties by ascending imaginary part;
    complex eigenvalues of real input come in conjugate pairs.  LAPACK's
    failure to converge raises QRNotConverged.
    """
    if generator.grid.size > order_cap:
        raise DimensionMismatch(f"matrix order {generator.grid.size} exceeds the cap {order_cap}")
    solver = np.linalg.eigvalsh if generator.symmetric else np.linalg.eigvals
    mirror = even.reduction.mirror if even is not None and even.reduction.point else None
    try:
        if generator.invariant_axes:
            values = _bloch_spectrum(generator, solver, mirror)
        elif mirror is not None:
            least = np.flatnonzero(np.arange(len(mirror)) < mirror)
            odd = generator.data[np.ix_(least, least)]
            odd -= generator.data[np.ix_(least, mirror[least])]
            values = np.concatenate([solver(even.data), solver(odd)])
        else:
            values = solver(generator.data)
    except np.linalg.LinAlgError as exc:
        raise QRNotConverged(str(exc)) from exc
    order = np.lexsort((values.imag, -values.real))
    return values[order]
