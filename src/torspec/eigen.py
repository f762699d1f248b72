"""Eigenvalue machinery: Perron power iteration with Collatz-Wielandt
certificates, and dense spectra.

The power iteration is the positive-operator route; the dense solve
(LAPACK: symmetric tridiagonal QR on an exactly symmetric matrix, balanced
Hessenberg QR otherwise) is the independent cross-check.  The two must
agree or the caller aborts, so neither silently wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    FloatingPointFailure,
    NegativeEntry,
    NonPositiveVector,
    NotConverged,
    QRNotConverged,
)

SPECTRUM_ORDER_CAP = 4096
SYMMETRY_TILE = 256  # side of the square blocks the symmetry test compares
# Collatz-Wielandt gap, in float spacings of the root, that rounding of the
# ratios alone can leave: a tolerance below it could never be met
ROUNDING_ULPS = 4


def _as_array(mat) -> np.ndarray:
    data = getattr(mat, "data", mat)
    return np.asarray(data, dtype=float)


def _is_symmetric(a: np.ndarray) -> bool:
    """Whether the square array equals its transpose bit for bit.

    Each tile on or above the diagonal is compared with its mirror tile,
    so no temporary larger than one tile is built, and the first
    mismatching tile ends the test.
    """
    order = a.shape[0]
    for i in range(0, order, SYMMETRY_TILE):
        for j in range(i, order, SYMMETRY_TILE):
            rows, cols = slice(i, i + SYMMETRY_TILE), slice(j, j + SYMMETRY_TILE)
            if not np.array_equal(a[rows, cols], a[cols, rows].T):
                return False
    return True


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class PerronResult:
    """Dominant eigenpair of a nonnegative matrix with a certificate.

    The Collatz-Wielandt bounds sandwich the spectral radius; their gap at
    convergence is at most the requested tolerance.
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
    key = _mix64(np.array([seed % 2**64], dtype=np.uint64))
    counters = np.arange(1, order + 1, dtype=np.uint64)
    return 0.5 + (_mix64(counters * _GOLDEN_GAMMA + key) >> np.uint64(12)) * 2.0**-52


def perron(
    mat,
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
    a = _as_array(mat)
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


def full_spectrum(mat, order_cap: int = SPECTRUM_ORDER_CAP) -> np.ndarray:
    """All eigenvalues by LAPACK QR with deflation.

    An exactly symmetric matrix (bit for bit) takes the symmetric
    tridiagonal QR (``eigvalsh``), whose eigenvalues are real; any other
    takes balanced Hessenberg QR (``eigvals``).  Ordered by descending real
    part, ties by ascending imaginary part; complex eigenvalues of real
    input come in conjugate pairs.  LAPACK's failure to converge raises
    QRNotConverged.
    """
    a = _as_array(mat)
    if a.shape[0] > order_cap:
        raise DimensionMismatch(f"matrix order {a.shape[0]} exceeds the cap {order_cap}")
    solver = np.linalg.eigvalsh if _is_symmetric(a) else np.linalg.eigvals
    try:
        values = solver(a)
    except np.linalg.LinAlgError as exc:
        raise QRNotConverged(str(exc)) from exc
    order = np.lexsort((values.imag, -values.real))
    return values[order]

