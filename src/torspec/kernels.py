"""Kernels and potentials on the torus: winding, sampling, validation, statistics.

Two kernel representations coexist.  A convolution kernel lives on the torus
as samples of a single function of the displacement (wound from a kernel on
the full space when necessary); a generic two-point kernel is a dense array
of samples b(x_i, y_j).  Potentials are nonpositive node samples.  Every
record carries the ``TorusGrid`` it is sampled on, and a generic kernel
decides once, when it is built, whether its samples are exactly symmetric
and along which axes they are exactly translation-invariant.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from .errors import (
    DegenerateKernel,
    NotPrimitive,
    ParseError,
    PositivePotential,
    TailNotResolved,
    ValidationError,
)
from .grid import TorusGrid

WIND_CAP = 64  # largest one-sided shift radius tried while winding
SYMMETRY_TILE = 256  # side of the symmetry test's square tiles; its square caps a shift-test run


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def serial_row_sums(a: np.ndarray, weight: float | None = None) -> np.ndarray:
    """Left-to-right serial sum along the last axis, of ``weight * a`` when
    a weight is given.

    The columns are added one at a time into one accumulator, so the order
    is fixed (the bits equal ``np.cumsum``'s last column) and no array of
    ``a``'s size is built, not even for a transposed view.
    """
    acc = a[..., 0].copy() if weight is None else a[..., 0] * weight
    for j in range(1, a.shape[-1]):
        acc += a[..., j] if weight is None else a[..., j] * weight
    return acc


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


def _invariant_axes(samples: np.ndarray, grid: TorusGrid) -> tuple[int, ...]:
    """Axes a along which b(x + e_a, y + e_a) == b(x, y) bit for bit.

    A run of slabs x_a = i + 1, ..., i + r is compared with the slabs
    x_a = i, ..., i + r - 1 one node back along y_a, in two views of each.
    A run holds one slab, or as many as fit in ``SYMMETRY_TILE**2``
    entries when slabs are smaller (a 1-D slab is one row), so no
    temporary of the kernel's size is built, and the first mismatching run
    ends that axis's test.  The slabs i < n - 1 suffice: n shifts along
    y_a close the cycle.
    """
    n, d = grid.n, grid.dimension
    b = samples.reshape((n,) * (2 * d))
    run = max(1, SYMMETRY_TILE**2 * n // samples.size)  # a slab holds samples.size / n entries

    def view(axis: int, xs: slice, ys: int | slice) -> np.ndarray:
        index: list = [slice(None)] * (2 * d)
        index[axis], index[d + axis] = xs, ys
        return b[tuple(index)]

    def shifted_run_matches(axis: int, i: int) -> bool:
        stop = min(i + run, n - 1)
        ahead, here = slice(i + 1, stop + 1), slice(i, stop)
        return (np.array_equal(view(axis, ahead, slice(1, None)), view(axis, here, slice(None, -1)))
                and np.array_equal(view(axis, ahead, 0), view(axis, here, -1)))

    return tuple(
        axis for axis in range(d)
        if all(shifted_run_matches(axis, i) for i in range(0, n - 1, run))
    )


def _peak_density(base: float, exponent: float, tag: str) -> float:
    """Normalization base**exponent of a kernel density on R^d.

    A width so narrow that the peak leaves the float range raises
    DegenerateKernel: on any grid such a kernel is a point mass, whose jump
    part vanishes.
    """
    try:
        return base**exponent
    except (OverflowError, ZeroDivisionError):  # base underflowed to zero, or a huge peak
        raise DegenerateKernel(f"{tag} kernel too narrow: its peak density overflows") from None


# ---------------------------------------------------------------------------
# kernels on the full space, to be wound onto the torus


@dataclass(frozen=True)
class ContinuousKernel:
    """Nonnegative integrable kernel a(z) on R^d.

    ``evaluate`` maps an array of points with trailing axis of length d to
    kernel values.  ``tail_mass_bound(N)`` must bound the total mass omitted
    when winding is truncated to integer shifts with |m|_inf <= N; the
    builtin constructors supply analytic bounds, custom kernels must bring
    their own.
    """

    dimension: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    tail_mass_bound: Callable[[int], float] | None = None


def tophat_kernel(dimension: int = 1, width: float = 1.0) -> ContinuousKernel:
    """Uniform density (2w)^-d on the half-open box [-w, w)^d.

    The half-open support makes winding exact on left-endpoint grids: no
    boundary node is double counted.  ``wind_kernel`` evaluates the box at
    exact displacements j/n, so when 2wn is an integer and w <= 1/2 the
    wound kernel keeps all (2wn)^d nodes, with unit quadrature mass.  For
    w < 1/2 those samples are not symmetric: the node at -w lies in the box,
    the one at w does not.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    value = _peak_density(2.0 * width, -dimension, "tophat")

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        inside = np.all((pts >= -width) & (pts < width), axis=-1)
        return np.where(inside, value, 0.0)

    def tail(n_shift: int) -> float:
        return 0.0 if n_shift >= width else math.inf

    return ContinuousKernel(dimension, evaluate, tail)


def gaussian_kernel(dimension: int = 1, sigma: float = 0.2) -> ContinuousKernel:
    """Product Gaussian density with per-axis standard deviation sigma."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    try:
        variance = sigma**2
    except OverflowError:  # sigma beyond the square root of the float range
        variance = math.inf
    norm = _peak_density(2.0 * math.pi * variance, -dimension / 2.0, "gaussian")

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        sq = np.sum(pts**2, axis=-1)
        return norm * np.exp(-sq / (2.0 * variance))

    def tail(n_shift: int) -> float:
        # union bound over axes; per-axis omitted mass beyond |t| >= N
        return dimension * math.erfc(n_shift / (sigma * math.sqrt(2.0)))

    return ContinuousKernel(dimension, evaluate, tail)


def exponential_kernel(dimension: int = 1, scale: float = 0.2) -> ContinuousKernel:
    """Product Laplace density with per-axis scale parameter."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    norm = _peak_density(2.0 * scale, -dimension, "exponential")

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        l1 = np.sum(np.abs(pts), axis=-1)
        return norm * np.exp(-l1 / scale)

    def tail(n_shift: int) -> float:
        return dimension * math.exp(-n_shift / scale)

    return ContinuousKernel(dimension, evaluate, tail)


# ---------------------------------------------------------------------------
# kernels on the torus


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class WoundKernel:
    """Convolution kernel on the torus: samples of sum_m a(z + m) at grid nodes.

    ``samples`` is shaped (n,)*d in axis order, so displacement lookups use
    integer index arithmetic.
    """

    grid: TorusGrid
    samples: np.ndarray
    wind_truncation: int = 0
    tail_estimate: float = 0.0

    def __post_init__(self) -> None:
        samples = _freeze(np.asarray(self.samples, dtype=float))
        object.__setattr__(self, "samples", samples)
        if samples.shape != (self.grid.n,) * self.grid.dimension:
            raise ValueError("samples must be shaped (n,)*d")
        if np.any(samples < 0):
            raise ValueError("wound kernel samples must be nonnegative")
        if self.quadrature_mass() <= 0:
            raise DegenerateKernel("wound kernel has zero quadrature mass")

    def quadrature_mass(self) -> float:
        return float(self.samples.sum()) * self.grid.weight


def wound_from_function(f: Callable[[np.ndarray], np.ndarray], grid: TorusGrid) -> WoundKernel:
    """Sample a function already periodic on the torus as a convolution kernel."""
    values = np.asarray(f(grid.node_mesh()), dtype=float)
    return WoundKernel(grid, values)


def wind_kernel(a: ContinuousKernel, n: int, tail_tol: float = 1e-12) -> WoundKernel:
    """Wind a kernel on R^d onto the torus by summing integer translates.

    The truncation radius grows until the kernel's analytic tail bound drops
    below ``tail_tol``; the omitted mass estimate is recorded on the result.

    The sum runs over the centred displacements t = j/n in [-1/2, 1/2]^d,
    which are exact, and adds each pair of opposite translates as
    ``a(t + m) + a(t - m)`` before accumulating.  Each axis is then folded
    back to the nodes i/n; on even n, t = -1/2 and t = 1/2 are one node,
    which keeps the mean of its two sums.  An even kernel therefore winds to
    exactly symmetric samples, ``a[k] == a[-k mod n]`` bit for bit: the sums
    at t and -t take the same terms in the same order.
    """
    if tail_tol <= 0:
        raise ValueError("tail_tol must be positive")
    if a.tail_mass_bound is None:
        raise TailNotResolved("kernel supplies no tail mass bound; cannot wind")

    n_wind = 0
    while a.tail_mass_bound(n_wind) > tail_tol:
        n_wind += 1
        if n_wind > WIND_CAP:
            raise TailNotResolved(
                f"tail bound still {a.tail_mass_bound(WIND_CAP):.3e} at shift radius {WIND_CAP}"
            )

    d = a.dimension
    axis = np.arange(-(n // 2), n // 2 + 1) / n  # (-j)/n is exactly -(j/n)
    centred = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1)
    acc = a.evaluate(centred)
    for shift in product(range(-n_wind, n_wind + 1), repeat=d):
        if shift > (0,) * d:  # one of each pair +-m
            m = np.asarray(shift, dtype=float)
            acc = acc + (a.evaluate(centred + m) + a.evaluate(centred - m))
    for k in range(d):  # fold each axis back to the nodes i/n
        sums = np.moveaxis(acc, k, 0)
        if n % 2 == 0:  # t = -1/2 and t = 1/2 are one node
            sums = np.concatenate([0.5 * (sums[:1] + sums[-1:]), sums[1:-1]])
        acc = np.moveaxis(np.roll(sums, -(n // 2), axis=0), 0, k)
    return WoundKernel(TorusGrid(d, n), acc, n_wind, float(a.tail_mass_bound(n_wind)))


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class GenericKernel:
    """Two-point kernel b(x, y) on the tensor grid as an (n^d, n^d) array.

    Row index is the x node, column index the y node, both in the grid's
    row-major node order.  ``w`` is the jump-rate field W (``jump_rate``),
    ``symmetric`` whether the samples equal their transpose bit for bit,
    and ``invariant_axes`` the axes a along which b(x + e_a, y + e_a) ==
    b(x, y) bit for bit; all three are evaluated once at construction and
    read by every consumer.
    """

    grid: TorusGrid
    samples: np.ndarray
    w: np.ndarray = field(init=False, repr=False, compare=False)
    symmetric: bool = field(init=False, repr=False, compare=False)
    invariant_axes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        samples = _freeze(np.asarray(self.samples, dtype=float))
        object.__setattr__(self, "samples", samples)
        if samples.shape != (self.grid.size, self.grid.size):
            raise ValueError("samples must be an (n^d, n^d) array")
        if np.any(samples < 0):
            raise DegenerateKernel("kernel samples must be nonnegative")
        if not np.any(samples > 0):
            raise DegenerateKernel("kernel is identically zero")
        object.__setattr__(self, "invariant_axes", _invariant_axes(samples, self.grid))
        object.__setattr__(self, "w", _freeze(jump_rate(self)))
        object.__setattr__(self, "symmetric", _is_symmetric(samples))


def constant_kernel(grid: TorusGrid, value: float = 1.0) -> GenericKernel:
    return GenericKernel(grid, np.full((grid.size, grid.size), float(value)))


def _displacement_samples(wound: WoundKernel) -> np.ndarray:
    """Samples a(x_i - y_j) as an (n^d, n^d) array in grid node order.

    One (n, n) table of axis displacements (i - j) mod n, in pure integer
    arithmetic, indexes every axis; broadcast over the axis pairs, the
    gather comes out shaped (x_1..x_d, y_1..y_d), so no (n^d, n^d) index
    array is built.
    """
    grid = wound.grid
    n, d = grid.n, grid.dimension
    diff = (np.arange(n)[:, None] - np.arange(n)) % n
    index = []
    for axis in range(d):
        shape = [1] * (2 * d)
        shape[axis] = shape[d + axis] = n
        index.append(diff.reshape(shape))
    return wound.samples[tuple(index)].reshape(grid.size, grid.size)


def convolution_kernel(wound: WoundKernel) -> GenericKernel:
    """Generic form b(x, y) = a(x - y) of a convolution kernel."""
    return GenericKernel(wound.grid, _displacement_samples(wound))


def modulated_convolution(wound: WoundKernel, epsilon: float) -> GenericKernel:
    """b(x, y) = a(x - y) (1 + epsilon prod_a cos(2 pi (x_a + y_a))), |epsilon| < 1.

    The modulation is symmetric in (x, y) and, with |epsilon| < 1, positive.
    """
    if not abs(epsilon) < 1.0:
        raise ValueError("modulation amplitude epsilon must satisfy |epsilon| < 1")
    base = _displacement_samples(wound)
    coords = wound.grid.coordinates()
    phase = 2.0 * np.pi * (coords[:, None, :] + coords[None, :, :])
    modulation = 1.0 + epsilon * np.prod(np.cos(phase), axis=-1)
    return GenericKernel(wound.grid, base * modulation)


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class PotentialDiagnostics:
    """Quadrature norms and strict-negativity eligibility of a potential.

    Eligible means at least one node is strictly negative (the discrete
    reading of negativity on a set of positive measure).
    """

    max_sample: float
    fraction_negative: float
    norm_l1: float
    norm_l2: float
    eligible: bool

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class Potential:
    """Nonpositive potential samples in grid node order (flat, length n^d).

    ``diagnostics`` holds the potential's norms and eligibility, evaluated
    once at construction and read by every consumer.
    """

    grid: TorusGrid
    samples: np.ndarray
    diagnostics: PotentialDiagnostics = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = _freeze(np.asarray(self.samples, dtype=float).ravel())
        object.__setattr__(self, "samples", v)
        if v.size != self.grid.size:
            raise ValueError("potential needs one sample per grid node")
        if np.any(v > 0):
            raise PositivePotential(f"potential has a positive sample (max {v.max():.6g})")
        weight = self.grid.weight
        frac = float(np.count_nonzero(v < 0)) / v.size
        # squared after scaling by max|V|, so no depth overflows or underflows the squares
        peak = -float(v.min())
        norm_l2 = peak * math.sqrt(float(((v / peak) ** 2).sum()) * weight) if peak > 0 else 0.0
        object.__setattr__(self, "diagnostics", PotentialDiagnostics(
            max_sample=float(v.max()),
            fraction_negative=frac,
            norm_l1=float(np.abs(v).sum() * weight),
            norm_l2=norm_l2,
            eligible=bool(frac > 0),
        ))


def constant_potential(grid: TorusGrid, depth: float) -> Potential:
    return Potential(grid, np.full(grid.size, -float(depth)))


def zero_potential(grid: TorusGrid) -> Potential:
    return Potential(grid, np.zeros(grid.size))


def step_potential(grid: TorusGrid, depth: float = 1.0, width: float = 0.5) -> Potential:
    """-depth where the first coordinate lies in [0, width), zero elsewhere."""
    x0 = grid.coordinates()[:, 0]
    return Potential(grid, np.where(x0 < width, -float(depth), 0.0))


def cosine_potential(grid: TorusGrid, depth: float = 1.0) -> Potential:
    """Smooth well -depth * prod_axes (1 + cos(2 pi x_a)) / 2, zero only at x_a = 1/2."""
    coords = grid.coordinates()
    prof = np.prod((1.0 + np.cos(2.0 * np.pi * coords)) / 2.0, axis=1)
    return Potential(grid, -float(depth) * prof)


# ---------------------------------------------------------------------------
# kernel statistics


def jump_rate(b: GenericKernel) -> np.ndarray:
    """Row quadrature of the kernel: W(x_i) = h^d * sum_j b(x_i, y_j).

    Uses a serial per-row reduction.  Along the kernel's invariant axes the
    rows are permutations of each other, whose serial sums can differ in
    the last bits, so only the slab of rows at x_a = 0 is summed and its
    sums are broadcast: W is then exactly invariant too.  ``GenericKernel``
    calls this once at construction and keeps the result as ``w``; read
    that field instead.
    """
    shape = (b.grid.n,) * b.grid.dimension
    slab = b.samples.reshape(shape + (b.grid.size,))[b.grid.origin_slab(b.invariant_axes)]
    return np.broadcast_to(serial_row_sums(slab, b.grid.weight), shape).ravel()


@dataclass(frozen=True)
class KernelStats:
    """Row/column integral bounds and the primitivity certificate.

    ``primitive_power`` is the smallest k for which the k-th power of the
    quadrature matrix h^d b is entrywise positive; ``iterated_kernel_min``
    is the minimum of that power rescaled back to kernel normalization.
    """

    row_integral_min: float
    row_integral_max: float
    col_integral_max: float
    primitive_power: int
    iterated_kernel_min: float

    def as_dict(self) -> dict:
        return asdict(self)


def kernel_stats(b: GenericKernel, n_max: int = 16) -> KernelStats:
    """Integral bounds, primitivity power, and iterated-kernel floor.

    Raises DegenerateKernel when some row integral vanishes, NotPrimitive
    when no power up to ``n_max`` is entrywise positive at this resolution.
    """
    rows = b.w
    cols = serial_row_sums(b.samples.T, b.grid.weight)
    gamma1 = float(rows.min())
    if gamma1 <= 0:
        raise DegenerateKernel("kernel row integral vanishes somewhere")

    # rounding is monotone, so this is the least entry of h^d b bit for bit;
    # h^d b itself is formed only when a higher power is needed
    least = b.grid.weight * b.samples.min()
    n_prim = 1
    if not least > 0:
        quad = b.grid.weight * b.samples
        power = quad
        for n_prim in range(2, max(1, n_max) + 1):
            power = power @ quad
            least = power.min()
            if least > 0:
                break
        else:
            raise NotPrimitive(f"no power up to {n_max} is entrywise positive at this resolution")

    return KernelStats(
        row_integral_min=gamma1,
        row_integral_max=float(rows.max()),
        col_integral_max=float(cols.max()),
        primitive_power=n_prim,
        iterated_kernel_min=float(least / b.grid.weight),
    )


# ---------------------------------------------------------------------------
# CSV ingestion (tabulated kernels and potentials)


def _csv_number(value: str, path: str, line: int) -> float:
    try:
        x = float(value)
    except ValueError as exc:
        raise ParseError(f"{path}:{line}: not a number: {value!r}") from exc
    if not math.isfinite(x):
        raise ValidationError(f"{path}:{line}: non-finite value {value!r}")
    return x


def _node_index(value: str, n: int, path: str, line: int) -> int:
    x = _csv_number(value, path, line)
    i = int(round(x * n)) if 0.0 <= x < 1.0 else -1  # x * n may overflow off the torus
    if not (0 <= i < n) or abs(x - i / n) > 1e-12:
        raise ValidationError(f"{path}:{line}: coordinate {x!r} is not a grid node of n={n}")
    return i


def _read_table(
    path: str, grid: TorusGrid, header: list[str], kind: str, sign: float, item: str
) -> np.ndarray:
    """Values of a CSV table keyed by grid nodes, in flat node order.

    The coordinate columns (all but the last) fold into one flat index,
    the first column most significant, so a two-point table fills the
    (n^d, n^d) kernel array in row-major order.  Every index must appear
    exactly once, and ``sign * value`` must be nonnegative; ``kind`` names
    the value and ``item`` one row's node key in messages.  Header and field
    counts are checked over the whole file before any row's values.  A byte
    that is not UTF-8 reaches its field as a lone surrogate and fails that
    field's number check; a record the csv module refuses names its line.
    """
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        try:
            found = next(reader)
            if [h.strip() for h in found] != header:
                raise ParseError(f"{path}: expected header {','.join(header)!r}, got {','.join(found)!r}")
            rows = []
            for line, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(f"{path}:{line}: expected {len(header)} fields")
                rows.append((line, row))
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    n = grid.n
    samples = np.full(n ** (len(header) - 1), np.nan)
    for line, row in rows:
        flat = 0
        for coordinate in row[:-1]:
            flat = flat * n + _node_index(coordinate, n, path, line)
        value = _csv_number(row[-1], path, line)
        if sign * value < 0:
            raise ValidationError(
                f"{path}:{line}: {'negative' if sign > 0 else 'positive'} {kind} value {value!r}"
            )
        if not np.isnan(samples[flat]):
            raise ValidationError(f"{path}:{line}: duplicate {item}")
        samples[flat] = value
    if np.isnan(samples).any():
        raise ValidationError(f"{path}: {int(np.isnan(samples).sum())} grid {item}s missing")
    return samples


def kernel_from_csv(path: str, grid: TorusGrid) -> GenericKernel:
    """Read a tabulated two-point kernel; every grid node pair must appear once."""
    header = ["x", "y", "value"] if grid.dimension == 1 else ["x1", "x2", "y1", "y2", "value"]
    samples = _read_table(path, grid, header, "kernel", 1.0, "node pair")
    return GenericKernel(grid, samples.reshape(grid.size, grid.size))


def potential_from_csv(path: str, grid: TorusGrid) -> Potential:
    """Read a tabulated potential; every grid node must appear exactly once."""
    header = ["x", "value"] if grid.dimension == 1 else ["x1", "x2", "value"]
    samples = _read_table(path, grid, header, "potential", -1.0, "node")
    return Potential(grid, samples)
