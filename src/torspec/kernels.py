"""Kernels and potentials on the torus: winding, sampling, validation, statistics.

A convolution kernel lives on the torus as samples of a single function of the
displacement, wound from a product kernel on the full space when necessary; every
kernel, convolution or not, is a ``GenericKernel``: samples b(x_i, y_j) kept as the
rows that its translation invariance does not repeat, one row for a convolution
kernel.  Potentials are nonpositive node samples.  Every built-in sample is built one
axis at a time from n values: a d-D sample repeats them along the later axes or is
their d-fold outer product.  Every record carries the ``TorusGrid`` it is sampled on, and
every sample must be finite.  A generic kernel decides once, when it is built, whether
its samples are exactly symmetric and along which axes they are exactly
translation-invariant: a convolution kernel reads both off its wound samples, any
other kernel tests its (n^d, n^d) array bit for bit.  Row and column integrals are
numpy's sums of the unrepeated rows, broadcast to the rest.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import reduce
from numbers import Integral
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _finite_range(a: np.ndarray, what: str) -> tuple[float, float]:
    """The least and greatest sample; both passes propagate NaN, so any
    non-finite sample raises ValidationError, as in a CSV table."""
    lo, hi = float(a.min()), float(a.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"{what} samples must be finite")
    return lo, hi


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


def _runs_equal(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether x == y bit for bit, compared in runs along the first axis of at most
    ``SYMMETRY_TILE**2`` entries, or one slice; the first mismatching run ends it."""
    run = max(1, SYMMETRY_TILE**2 * len(x) // x.size)
    return all(np.array_equal(x[i:i + run], y[i:i + run]) for i in range(0, len(x), run))


def _invariant_axes(samples: np.ndarray, grid: TorusGrid) -> tuple[int, ...]:
    """Axes a along which b(x + e_a, y + e_a) == b(x, y) bit for bit: with x_a first
    and y_a second, t[i + 1, j + 1] == t[i, j] and the wrap t[i + 1, 0] == t[i, n - 1]
    for i < n - 1, as n shifts along y_a close the cycle, compared by ``_runs_equal``."""
    d = grid.dimension
    b = samples.reshape((grid.n,) * (2 * d))
    views = [np.moveaxis(b, (axis, d + axis), (0, 1)) for axis in range(d)]
    return tuple(axis for axis, t in enumerate(views)
                 if _runs_equal(t[1:, 1:], t[:-1, :-1]) and _runs_equal(t[1:, 0], t[:-1, -1]))


def _peak_density(base: float, exponent: float, dimension: int, tag: str) -> float:
    """Normalization base**exponent of a one-axis factor of a kernel density on R^d.

    A width so narrow that the d-dimensional peak base**(d exponent) leaves
    the float range raises DegenerateKernel: on any grid such a kernel is a
    point mass, whose jump part vanishes.
    """
    try:
        base ** (dimension * exponent)
        return base**exponent
    except (OverflowError, ZeroDivisionError):  # base underflowed to zero, or a huge peak
        raise DegenerateKernel(f"{tag} kernel too narrow: its peak density overflows") from None


# ---------------------------------------------------------------------------
# kernels on the full space, to be wound onto the torus


@dataclass(frozen=True)
class ContinuousKernel:
    """Nonnegative integrable product kernel a(z) = prod_a g(z_a) on R^d.

    ``factor`` is the one-axis function g, mapping an array of coordinates
    to values elementwise.  ``tail_mass_bound(N)`` must bound the total mass
    of a omitted when winding is truncated to integer shifts with
    |m|_inf <= N; the builtin constructors supply analytic bounds, custom
    kernels must bring their own.
    """

    dimension: int
    factor: Callable[[np.ndarray], np.ndarray]
    tail_mass_bound: Callable[[int], float] | None = None


def tophat_kernel(dimension: int = 1, width: float = 1.0) -> ContinuousKernel:
    """Uniform density (2w)^-d on the half-open box [-w, w)^d.

    The half-open support makes winding exact on left-endpoint grids: no
    boundary node is double counted.  ``wind_kernel`` evaluates each
    translate at the float nearest its exact displacement, so when 2wn is an
    integer the wound kernel counts (2wn)^d nodes, with multiplicity, and has
    unit quadrature mass.  Unless 2w is an integer those samples are not
    symmetric: the node at -w lies in the box, the one at w does not.
    """
    if not width > 0:
        raise ValueError("width must be positive")
    value = _peak_density(2.0 * width, -1, dimension, "tophat")

    def tail(n_shift: int) -> float:
        return 0.0 if n_shift >= width else math.inf

    return ContinuousKernel(dimension, lambda z: np.where((z >= -width) & (z < width), value, 0.0), tail)


def gaussian_kernel(dimension: int = 1, sigma: float = 0.2) -> ContinuousKernel:
    """Product Gaussian density with per-axis standard deviation sigma."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    try:
        variance = sigma**2
    except OverflowError:  # sigma beyond the square root of the float range
        variance = math.inf
    norm = _peak_density(2.0 * math.pi * variance, -0.5, dimension, "gaussian")

    def tail(n_shift: int) -> float:
        # union bound over axes; per-axis omitted mass beyond |t| >= N
        return dimension * math.erfc(n_shift / (sigma * math.sqrt(2.0)))

    return ContinuousKernel(dimension, lambda z: norm * np.exp(-z**2 / (2.0 * variance)), tail)


def exponential_kernel(dimension: int = 1, scale: float = 0.2) -> ContinuousKernel:
    """Product Laplace density with per-axis scale parameter."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    norm = _peak_density(2.0 * scale, -1, dimension, "exponential")

    def tail(n_shift: int) -> float:
        return dimension * math.exp(-n_shift / scale)

    return ContinuousKernel(dimension, lambda z: norm * np.exp(-np.abs(z) / scale), tail)


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
        if _finite_range(samples, "wound kernel")[0] < 0:
            raise ValueError("wound kernel samples must be nonnegative")
        if self.quadrature_mass() <= 0:
            raise DegenerateKernel("wound kernel has zero quadrature mass")

    def quadrature_mass(self) -> float:
        return float(self.samples.sum()) * self.grid.weight


def wind_kernel(a: ContinuousKernel, n: int, tail_tol: float = 1e-12) -> WoundKernel:
    """Wind a product kernel on R^d onto the torus, one axis at a time, by summing
    integer translates of its factor g.

    The truncation radius grows until the kernel's analytic tail bound drops
    below ``tail_tol``; the omitted mass estimate is recorded on the result.

    The sum runs over the centred displacements t = j/n in [-1/2, 1/2] and
    adds each pair of opposite translates as ``g(t + m) + g(t - m)`` before
    accumulating.  Each point t + m is evaluated as (j + m n)/n, formed in
    integers and rounded once, so it is the float nearest the exact point
    for every m.  The sums are then folded back to the nodes i/n; on even n,
    t = -1/2 and t = 1/2 are one node, which keeps the mean of its two sums.
    An even factor therefore winds to exactly symmetric samples,
    ``g[k] == g[-k mod n]`` bit for bit: the sums at t and -t take the same
    terms in the same order.  In d dimensions the samples are the d-fold outer
    product of the wound g with itself, so an even factor's are exactly even
    along each axis and exactly symmetric under every axis swap.
    """
    if not tail_tol > 0:
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

    j = np.arange(-(n // 2), n // 2 + 1)  # the centred integers
    g = a.factor(j / n)  # (-j)/n is exactly -(j/n)
    for m in range(n, n * n_wind + 1, n):  # one of each pair +-m
        g = g + (a.factor((j + m) / n) + a.factor((j - m) / n))
    if n % 2 == 0:  # t = -1/2 and t = 1/2 are one node
        g = np.concatenate([0.5 * (g[:1] + g[-1:]), g[1:-1]])
    samples = reduce(np.multiply.outer, [np.roll(g, -(n // 2))] * a.dimension)
    return WoundKernel(TorusGrid(a.dimension, n), samples, n_wind, float(a.tail_mass_bound(n_wind)))


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class GenericKernel:
    """Two-point kernel b(x, y) on the tensor grid, kept as its rows x_K = 0.

    Row index is the x node, column index the y node, both in the grid's
    row-major node order.  ``w`` is the jump-rate field W (``jump_rate``),
    ``symmetric`` whether b equals its transpose bit for bit, and
    ``invariant_axes`` the axes K along which b(x + e_a, y + e_a) ==
    b(x, y) bit for bit; all three are evaluated once at construction and
    read by every consumer.  Every row translates one of the rows x_K = 0,
    so ``slab`` keeps only those: one row b(0, y) for a convolution kernel;
    ``rows()`` gathers the whole (n^d, n^d) array.  ``wound`` is the
    convolution form a, b(x, y) = a(x - y), or None.
    ``GenericKernel(grid, samples)`` bit-tests every row for both flags;
    ``GenericKernel(grid, wound=a)`` (``convolution_kernel``) derives the row
    b(0, y) = a(-y) and reads them off a; samples beside a wound, or a wound
    on another grid, raise ValueError.
    """

    grid: TorusGrid
    slab: np.ndarray | None = None
    wound: WoundKernel | None = None
    w: np.ndarray = field(init=False, repr=False, compare=False)
    symmetric: bool = field(init=False, repr=False, compare=False)
    invariant_axes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        grid, wound = self.grid, self.wound
        if wound is None:
            slab = _freeze(np.asarray(self.slab, dtype=float))
            if slab.shape != (grid.size, grid.size):
                raise ValueError("samples must be an (n^d, n^d) array")
            lo, hi = _finite_range(slab, "kernel")
            if lo < 0:
                raise DegenerateKernel("kernel samples must be nonnegative")
            if not hi > 0:
                raise DegenerateKernel("kernel is identically zero")
            symmetric, axes = _is_symmetric(slab), _invariant_axes(slab, grid)
            slab = _freeze(slab.reshape(grid.slab_shape(()) + (-1,))[grid.origin_slab(axes)])
        else:
            if self.slab is not None or wound.grid != grid:
                raise ValueError("a convolution kernel takes its wound alone, on its grid")
            a, axes = wound.samples, tuple(range(grid.dimension))
            slab = _freeze(np.roll(np.flip(a), 1, axis=axes))  # a[-k mod n]
            symmetric = np.array_equal(a, slab)
        object.__setattr__(self, "slab", slab.reshape(-1, grid.size))
        object.__setattr__(self, "symmetric", symmetric)
        object.__setattr__(self, "invariant_axes", axes)
        object.__setattr__(self, "w", _freeze(jump_rate(self)))

    def rows(self, axes: tuple[int, ...] = ()) -> np.ndarray:
        """The rows x_S = 0, S = ``axes`` within K (by default every row), as a new
        (n^(d - |S|), n^d) array.  Along each axis a of K not in S, ``slab`` tiled twice
        along y_a holds b(x, y) = b(x - x_a e_a, y - x_a e_a) in its window of side n at
        the offset n - x_a; one strided copy gathers them.
        """
        grid, held = self.grid, self.invariant_axes
        n, d = grid.n, grid.dimension
        moving = tuple(a for a in held if a not in axes)
        if not moving:
            return self.slab.copy()
        ys = tuple(d + a for a in moving)
        tiled = np.tile(self.slab.reshape(grid.slab_shape(held) + (n,) * d), [1 + (k in ys) for k in range(2 * d)])
        windows = sliding_window_view(tiled, (n,) * len(moving), axis=ys)
        windows = windows[tuple(slice(n, 0, -1) if k in ys else slice(None) for k in range(2 * d))]
        # the offsets take the place of x_a, whose length-1 axis goes first, and the windows that of y_a
        order = [*moving, *(d + a if a in moving else a for a in range(d)),
                 *(2 * d + moving.index(a) if a in moving else d + a for a in range(d))]
        return np.ascontiguousarray(windows.transpose(order)).reshape(-1, grid.size)


def constant_kernel(grid: TorusGrid, value: float = 1.0) -> GenericKernel:
    return convolution_kernel(WoundKernel(grid, np.full((grid.n,) * grid.dimension, float(value))))


def convolution_kernel(wound: WoundKernel) -> GenericKernel:
    """Generic form b(x, y) = a(x - y) of a convolution kernel, kept as its
    row b(0, y) = a(-y), of which every row is a translate, and its ``wound`` a.

    Its structure is read off the n^d wound samples, not bit-tested on the
    (n^d, n^d) array: b is exactly invariant along every axis, and it
    equals its transpose bit for bit exactly when a[k] == a[-k mod n] for
    every k.
    """
    return GenericKernel(wound.grid, wound=wound)


def modulated_convolution(wound: WoundKernel, epsilon: float) -> GenericKernel:
    """b(x, y) = a(x - y) (1 + epsilon prod_a cos(2 pi (x_a + y_a))), |epsilon| < 1.

    The modulation is symmetric in (x, y) and, with |epsilon| < 1, positive.
    Its factors, one (n, n) table of a single axis viewed along each (x_a, y_a),
    multiply in axis order; the product is scaled by the displacement samples in place.
    """
    if not abs(epsilon) < 1.0:
        raise ValueError("modulation amplitude epsilon must satisfy |epsilon| < 1")
    n, d = wound.grid.n, wound.grid.dimension
    nodes = np.arange(n) / n
    table = np.cos(2.0 * np.pi * (nodes[:, None] + nodes[None, :]))
    samples = reduce(np.multiply, [table.reshape([n if k % d == a else 1 for k in range(2 * d)]) for a in range(d)])
    samples *= epsilon
    samples += 1.0
    samples = samples.reshape(wound.grid.size, -1)
    samples *= convolution_kernel(wound).rows()
    return GenericKernel(wound.grid, samples)


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True, eq=False)  # identity equality: fields hold arrays
class Potential:
    """Nonpositive potential samples in grid node order (flat, length n^d).

    ``diagnostics`` is the dict every report prints, evaluated once at
    construction and read by every consumer: ``max_sample``,
    ``fraction_negative``, the quadrature norms ``norm_l1`` and ``norm_l2``,
    and ``eligible``, true when at least one node is strictly negative (the
    discrete reading of negativity on a set of positive measure).
    """

    grid: TorusGrid
    samples: np.ndarray
    diagnostics: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = _freeze(np.asarray(self.samples, dtype=float).ravel())
        object.__setattr__(self, "samples", v)
        if v.size != self.grid.size:
            raise ValueError("potential needs one sample per grid node")
        lo, hi = _finite_range(v, "potential")
        if hi > 0:
            raise PositivePotential(f"potential has a positive sample (max {hi:.6g})")
        weight = self.grid.weight
        frac = float(np.count_nonzero(v < 0)) / v.size
        # squared after scaling by max|V|, so no depth overflows or underflows the squares
        peak = -lo
        norm_l2 = peak * math.sqrt(float(((v / peak) ** 2).sum()) * weight) if peak > 0 else 0.0
        object.__setattr__(self, "diagnostics", {
            "max_sample": hi,
            "fraction_negative": frac,
            "norm_l1": float(np.abs(v).sum() * weight),
            "norm_l2": norm_l2,
            "eligible": bool(frac > 0),
        })


def constant_potential(grid: TorusGrid, depth: float) -> Potential:
    return Potential(grid, np.full(grid.size, -float(depth)))


def zero_potential(grid: TorusGrid) -> Potential:
    return Potential(grid, np.zeros(grid.size))


def step_potential(grid: TorusGrid, depth: float = 1.0, width: float = 0.5) -> Potential:
    """-depth where the first coordinate lies in [0, width), zero elsewhere."""
    if not width > 0:
        raise ValueError("width must be positive")
    profile = np.where(np.arange(grid.n) / grid.n < width, -float(depth), 0.0)
    return Potential(grid, np.repeat(profile, grid.size // grid.n))  # repeated along x_2, ..., x_d


def cosine_potential(grid: TorusGrid, depth: float = 1.0) -> Potential:
    """Smooth well -depth * prod_axes (1 + cos(2 pi x_a)) / 2, zero only at x_a = 1/2."""
    i = np.arange(grid.n)  # each factor at the folded node min(i, n - i)/n: exactly even
    profile = (1.0 + np.cos(2.0 * np.pi * (np.minimum(i, grid.n - i) / grid.n))) / 2.0
    return Potential(grid, -float(depth) * reduce(np.multiply.outer, [profile] * grid.dimension))


# ---------------------------------------------------------------------------
# kernel statistics


def slab_rows(a: np.ndarray, b: GenericKernel, axes: tuple[int, ...] = ()) -> np.ndarray:
    """The rows x_K = 0, K = ``b.invariant_axes`` (every row when K is empty), of an (N, N)
    array, as a view shaped (n or 1,)*d + (N,).  ``a`` holds that array's rows x_S = 0,
    S = ``axes`` within K: by default every row."""
    return a.reshape(b.grid.slab_shape(axes) + (b.grid.size,))[b.grid.origin_slab(b.invariant_axes)]


def slab_row_sums(a: np.ndarray, b: GenericKernel, axes: tuple[int, ...] = ()) -> np.ndarray:
    """Row sums, by numpy's ``sum``, at every row of an (N, N) array that is invariant
    along the kernel's invariant axes, as b is, from the rows ``a`` holds.

    Along those axes rows are permutations of the ``slab_rows``, whose sums are
    broadcast: permuted sums can differ in the last bits, these are exactly invariant.
    """
    return np.broadcast_to(slab_rows(a, b, axes).sum(-1), b.grid.slab_shape(())).ravel()


def jump_rate(b: GenericKernel) -> np.ndarray:
    """Row quadrature of the kernel: W(x_i) = h^d * sum_j b(x_i, y_j), scaled after
    summing ``b.slab`` by ``slab_row_sums``, so W is exactly invariant along the
    kernel's invariant axes.  ``GenericKernel`` calls this once at construction
    and keeps the result as ``w``; read that field instead.
    """
    return b.grid.weight * slab_row_sums(b.slab, b, b.invariant_axes)


def kernel_stats(b: GenericKernel, n_max: int = 16) -> dict:
    """Row/column integral bounds (``row_integral_min``, ``row_integral_max``,
    ``col_integral_max``) and the primitivity certificate.

    ``primitive_power`` is the smallest k for which the k-th power of the
    quadrature matrix h^d b is entrywise positive; ``iterated_kernel_min``
    is the minimum of that power rescaled back to kernel normalization.
    The powers are invariant as b is, so only their ``slab_rows`` are formed, each the previous
    times h^d b, gathered once (``b.rows()``) and scaled in place.
    Raises DegenerateKernel when some row integral vanishes, NotPrimitive
    when no power up to ``n_max`` is entrywise positive at this resolution.
    """
    if not isinstance(n_max, Integral):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    grid, axes = b.grid, b.invariant_axes
    n, d = grid.n, grid.dimension
    rows = b.w
    # the rows x_K = 0 of b^T, invariant along K as b is: the slab with y_K -> -y_K mod n, then
    # x and y swapped off K; for a convolution kernel, the wound samples
    ys, cols = tuple(d + a for a in axes), b.slab.reshape(grid.slab_shape(axes) + (n,) * d)
    cols = np.roll(np.flip(cols, ys), 1, ys) if axes else cols
    swap = [a if a in axes else d + a for a in range(d)] + [d + a if a in axes else a for a in range(d)]
    cols = grid.weight * slab_rows(cols.transpose(swap), b, axes).sum(-1)
    gamma1 = float(rows.min())
    if gamma1 <= 0:
        raise DegenerateKernel("kernel row integral vanishes somewhere")

    # rounding is monotone, so this is the least entry of h^d b bit for bit;
    # h^d b itself is formed only when a higher power is needed
    least = grid.weight * b.slab.min()
    n_prim = 1
    if not least > 0:
        quad = b.rows()
        quad *= grid.weight
        power = slab_rows(quad, b).reshape(-1, grid.size)
        for n_prim in range(2, max(1, n_max) + 1):
            power = power @ quad
            least = power.min()
            if least > 0:
                break
        else:
            raise NotPrimitive(f"no power up to {n_max} is entrywise positive at this resolution")

    return {
        "row_integral_min": gamma1,
        "row_integral_max": float(rows.max()),
        "col_integral_max": float(cols.max()),
        "primitive_power": n_prim,
        "iterated_kernel_min": float(least / grid.weight),
    }


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


def _read_table(path: str, grid: TorusGrid, points: int, kind: str, sign: float, item: str) -> np.ndarray:
    """Values of a CSV table keyed by ``points`` grid nodes, x or x and y, in flat node order.

    The coordinate columns, x1,...,xd (x in 1-D) then y1,...,yd, fold into one flat index,
    the first column most significant, so a two-point table fills the
    (n^d, n^d) kernel array in row-major order.  Every index must appear
    exactly once, and ``sign * value`` must be nonnegative; ``kind`` names
    the value and ``item`` one row's node key in messages.  Header and field
    counts are checked over the whole file before any row's values.  A byte
    that is not UTF-8 reaches its field as a lone surrogate and fails that
    field's number check; a record the csv module refuses names its line.
    """
    n, d = grid.n, grid.dimension
    header = [c if d == 1 else f"{c}{a}" for c in "xy"[:points] for a in range(1, d + 1)] + ["value"]
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
    samples = np.full(n ** (len(header) - 1), np.nan)
    for line, row in rows:
        flat = 0
        for coordinate in row[:-1]:
            flat = flat * n + _node_index(coordinate, n, path, line)
        value = _csv_number(row[-1], path, line)
        if sign * value < 0:
            raise (DegenerateKernel if sign > 0 else PositivePotential)(
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
    samples = _read_table(path, grid, 2, "kernel", 1.0, "node pair")
    return GenericKernel(grid, samples.reshape(grid.size, grid.size))


def potential_from_csv(path: str, grid: TorusGrid) -> Potential:
    """Read a tabulated potential; every grid node must appear exactly once."""
    samples = _read_table(path, grid, 1, "potential", -1.0, "node")
    return Potential(grid, samples)
