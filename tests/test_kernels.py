"""Kernel and potential construction, winding, statistics, diagnostics."""

import dataclasses
import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import torspec as ts
from torspec.kernels import SYMMETRY_TILE, _invariant_axes, _is_symmetric
from conftest import make_f2, node_mesh, random_fixture, sine_wound


# -- winding ------------------------------------------------------------------


def test_tophat_winds_to_one_exactly():
    for n in (8, 16, 50):
        wound = ts.wind_kernel(ts.tophat_kernel(1, 1.0), n)
        assert np.all(wound.samples == 1.0)
        assert wound.wind_truncation == 1


def test_tophat_winding_two_dimensional():
    wound = ts.wind_kernel(ts.tophat_kernel(2, 1.0), 8)
    assert wound.samples.shape == (8, 8)
    assert np.all(wound.samples == 1.0)


def test_gaussian_winding_conserves_mass():
    wound = ts.wind_kernel(ts.gaussian_kernel(1, 0.2), 128, 1e-12)
    box = wound.wind_truncation + 1

    def density(t):
        return math.exp(-t * t / (2 * 0.04)) / math.sqrt(2 * math.pi * 0.04)

    oracle, err = quad(density, -box, box)
    assert err < 1e-10
    assert abs(wound.quadrature_mass() - oracle) <= 1e-8
    assert wound.tail_estimate <= 1e-12


def test_winding_mass_equals_box_quadrature():
    # rearrangement: torus quadrature of the wound kernel equals the box
    # quadrature of the original kernel at the shifted nodes
    kernel = ts.gaussian_kernel(1, 0.2)
    wound = ts.wind_kernel(kernel, 64, 1e-12)
    nodes = np.arange(64) / 64
    total = 0.0
    for m in range(-wound.wind_truncation, wound.wind_truncation + 1):
        total += float(kernel.factor(nodes + m).sum())
    assert abs(total / 64 - wound.quadrature_mass()) <= 1e-12


def test_zero_kernel_rejected():
    with pytest.raises(ts.DegenerateKernel):
        ts.WoundKernel(ts.TorusGrid(1, 8), np.zeros(8))


def test_wind_requires_resolvable_tail():
    heavy = ts.ContinuousKernel(
        dimension=1,
        factor=lambda z: np.exp(-np.abs(z)),
        tail_mass_bound=lambda n_shift: 1.0,
    )
    with pytest.raises(ts.TailNotResolved):
        ts.wind_kernel(heavy, 16, 1e-6)


def test_wind_rejects_missing_tail_bound():
    bare = ts.ContinuousKernel(1, np.zeros_like)
    with pytest.raises(ts.TailNotResolved):
        ts.wind_kernel(bare, 16)


def test_wind_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        ts.wind_kernel(ts.tophat_kernel(), 16, 0.0)


@pytest.mark.parametrize("tail_tol", [math.nan, -math.inf])
def test_wind_refuses_a_tolerance_that_is_not_positive(tail_tol):
    with pytest.raises(ValueError, match="tail_tol must be positive"):
        ts.wind_kernel(ts.gaussian_kernel(1, 0.2), 16, tail_tol=tail_tol)


@pytest.mark.parametrize("family, parameter", [
    (ts.tophat_kernel, "width"), (ts.gaussian_kernel, "sigma"), (ts.exponential_kernel, "scale"),
])
def test_kernel_families_refuse_a_nan_parameter(family, parameter):
    with pytest.raises(ValueError, match=f"{parameter} must be positive"):
        family(1, math.nan)


@pytest.mark.parametrize("dimension, n", [(1, 4.0), (2.0, 4), (1.0, 4.0), (1, "4")])
def test_grid_refuses_a_dimension_or_resolution_that_is_not_an_integer(dimension, n):
    with pytest.raises(ValueError, match="must be integers"):
        ts.TorusGrid(dimension, n)


@pytest.mark.parametrize("dimension, n, message", [(3, 4, "only dimensions 1 and 2"), (1, 1, "at least 2")])
def test_grid_refuses_a_dimension_or_resolution_out_of_range(dimension, n, message):
    with pytest.raises(ValueError, match=message):
        ts.TorusGrid(dimension, n)


def test_grid_accepts_numpy_integers():
    grid = ts.TorusGrid(np.int64(1), np.int64(4))
    assert grid == ts.TorusGrid(1, 4)
    assert np.array_equal(ts.constant_kernel(grid).rows(), np.ones((4, 4)))


def _shift_loop(kernel, n, radius):
    """Reference winding: the plain loop over the nodes i/n and every shift of the factor,
    and in 2-D the outer product of that 1-D loop with itself.

    It rounds i/n + m twice, so it can drop a node on a box edge; the
    tophats compared with it below have no node it drops.
    """
    acc = np.zeros(n)
    for m in range(-radius, radius + 1):
        acc = acc + kernel.factor(np.arange(n) / n + float(m))
    return acc if kernel.dimension == 1 else np.multiply.outer(acc, acc)


def _mirror(samples):
    """samples[-k mod n] along every axis."""
    n = samples.shape[0]
    return samples[np.ix_(*[(-np.arange(n)) % n] * samples.ndim)]


@pytest.mark.parametrize("make", [ts.gaussian_kernel, ts.exponential_kernel])
@pytest.mark.parametrize("dimension, n", [(1, 7), (1, 8), (1, 256), (2, 7), (2, 10), (2, 48)])
def test_even_kernels_wind_to_bit_symmetric_samples(make, dimension, n):
    kernel = make(dimension, 0.2)
    wound = ts.wind_kernel(kernel, n)
    assert np.array_equal(wound.samples, _mirror(wound.samples))
    # each node keeps its own displacement: the centred sums differ from the
    # plain loop only by rounding and by the translates each one truncates
    reference = _shift_loop(kernel, n, wound.wind_truncation)
    assert np.allclose(wound.samples, reference, rtol=0.0, atol=1e-10 * reference.max())


@pytest.mark.parametrize("make, even", [
    (ts.gaussian_kernel, True), (ts.exponential_kernel, True), (ts.tophat_kernel, False),
])
@pytest.mark.parametrize("n", [7, 8, 10, 48])
def test_two_dimensional_winding_is_the_outer_product_of_the_one_dimensional(make, even, n):
    line = ts.wind_kernel(make(1, 0.2), n).samples
    plane = ts.wind_kernel(make(2, 0.2), n).samples
    assert plane.tobytes() == np.multiply.outer(line, line).tobytes()
    if even:  # exactly even along each axis, and exactly symmetric under the axis swap
        for axis in (0, 1):
            assert np.array_equal(plane, np.roll(np.flip(plane, axis), 1, axis))
        assert np.array_equal(plane, plane.T)


@pytest.mark.parametrize("dimension, n, width", [
    (1, 512, 0.125), (1, 8, 0.125), (2, 48, 0.125), (1, 64, 0.45),
    (1, 33, 1.0), (2, 8, 1.0), (2, 10, 1.7),
])
def test_tophat_winds_bit_identical_to_the_shift_loop(dimension, n, width):
    kernel = ts.tophat_kernel(dimension, width)
    wound = ts.wind_kernel(kernel, n)
    assert np.array_equal(wound.samples, _shift_loop(kernel, n, wound.wind_truncation))


@pytest.mark.parametrize("dimension, n", [(1, 10), (1, 20), (1, 30), (1, 100), (2, 10)])
def test_edge_aligned_tophat_keeps_every_box_node(dimension, n):
    # w = k/(2n) puts nodes on both box edges; the node at -w is inside, and
    # evaluating at i/n + m (rounded twice: 0.7 - 1.0 != -0.3) would drop it
    for k in range(1, n + 1):
        wound = ts.wind_kernel(ts.tophat_kernel(dimension, k / (2 * n)), n)
        assert np.count_nonzero(wound.samples) == k**dimension, k
        assert abs(wound.quadrature_mass() - 1.0) <= 1e-15, k


@pytest.mark.parametrize("dimension, sizes", [(1, (6, 12, 24, 48, 64, 128, 512)), (2, (6, 12, 24, 48))])
def test_wide_edge_aligned_tophat_has_unit_mass(dimension, sizes):
    # with n < k < 2n the box [-w, w) is wider than the torus, so translates
    # m != 0 reach its edges; evaluated at j/n + m they round twice (1/3 - 1
    # != -2/3) and an edge node falls in or out: 1-D n = 6, w = 2/3 had mass 0.875
    for n in sizes:
        for k in range(n + 1, 2 * n):
            wound = ts.wind_kernel(ts.tophat_kernel(dimension, k / (2 * n)), n)
            assert abs(wound.quadrature_mass() - 1.0) <= 1e-12, (n, k)


# -- jump rate ---------------------------------------------------------------


def test_jump_rate_constant_kernel():
    grid = ts.TorusGrid(1, 32)
    rates = ts.jump_rate(ts.constant_kernel(grid))
    assert np.all(rates == 1.0)


def test_jump_rate_convolution_of_ones():
    grid = ts.TorusGrid(1, 16)
    ones = ts.WoundKernel(grid, np.ones(grid.n))
    rates = ts.jump_rate(ts.convolution_kernel(ones))
    assert np.all(rates == 1.0)


def test_jump_rate_half_supported_rows_rejected_downstream():
    grid = ts.TorusGrid(1, 16)
    x = np.arange(grid.n) / grid.n
    kernel = ts.GenericKernel(ts.TorusGrid(1, 16), np.outer(np.where(x < 0.5, 2.0, 0.0), np.ones(grid.size)))
    rates = ts.jump_rate(kernel)
    assert np.all(rates[x < 0.5] == 2.0)
    assert np.all(rates[x >= 0.5] == 0.0)
    with pytest.raises(ts.DegenerateKernel):
        ts.kernel_stats(kernel)


def _ulps(a, b):
    """Distance in float spacings between arrays of positive floats."""
    return np.abs(np.asarray(a, dtype=float).view(np.int64) - np.asarray(b, dtype=float).view(np.int64))


@pytest.mark.parametrize("value", [0.1, 0.3, 1.7])
def test_jump_rate_of_a_constant_kernel_lies_within_one_ulp_of_the_exact_sum(value):
    # 2304 equal samples: a serial sum drifts by hundreds of ulp, numpy's pairwise sum does not
    grid = ts.TorusGrid(2, 48)
    kernel = ts.constant_kernel(grid, value)
    assert _ulps(kernel.w, grid.weight * math.fsum(kernel.slab[0])).max() <= 1


def test_jump_rate_of_a_random_kernel_lies_within_two_ulp_of_the_exact_sum():
    # every row summed on its own; a serial sum is 12-17 ulp off on some row
    grid, kernel, _ = random_fixture(5, n=512)
    assert kernel.invariant_axes == ()
    exact = [grid.weight * math.fsum(row) for row in kernel.rows().tolist()]
    assert _ulps(kernel.w, exact).max() <= 2


def test_row_and_column_sums_build_no_array_of_the_kernels_size():
    grid, kernel, _ = random_fixture(5, n=512)
    assert kernel.invariant_axes == ()  # so every row is summed
    tracemalloc.start()
    try:
        rows = ts.jump_rate(kernel)
        col_max = ts.kernel_stats(kernel)["col_integral_max"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.tobytes() == (grid.weight * kernel.rows().sum(-1)).tobytes()
    assert col_max == (grid.weight * kernel.rows().T.sum(-1)).max()
    assert peak <= 0.05 * kernel.rows().nbytes


@pytest.mark.parametrize("dimension, n", [(1, 64), (1, 512), (2, 12), (2, 24)])
def test_modulated_convolution_is_bit_equal_to_the_phase_product(dimension, n):
    wound = ts.wind_kernel(ts.gaussian_kernel(dimension, 0.2), n)
    coords = node_mesh(wound.grid).reshape(wound.grid.size, dimension)
    phase = 2.0 * np.pi * (coords[:, None, :] + coords[None, :, :])
    for epsilon in (0.3, -0.7):
        reference = ts.convolution_kernel(wound).rows() * (1.0 + epsilon * np.prod(np.cos(phase), axis=-1))
        kernel = ts.modulated_convolution(wound, epsilon)
        assert kernel.rows().tobytes() == reference.tobytes()
        assert kernel.symmetric and kernel.invariant_axes == ()


def test_modulated_convolution_builds_one_array_next_to_the_kernel():
    wound = ts.wind_kernel(ts.gaussian_kernel(2, 0.2), 24)
    tracemalloc.start()
    try:
        kernel = ts.modulated_convolution(wound, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * kernel.rows().nbytes  # the kernel and its modulation


# -- kernel statistics --------------------------------------------------------


def test_kernel_stats_constant():
    grid = ts.TorusGrid(1, 64)
    stats = ts.kernel_stats(ts.constant_kernel(grid))
    assert stats["row_integral_min"] == 1.0
    assert stats["row_integral_max"] == 1.0
    assert stats["col_integral_max"] == 1.0
    assert stats["primitive_power"] == 1
    assert stats["iterated_kernel_min"] == 1.0


def test_kernel_stats_of_a_positive_kernel_builds_no_array_of_its_size():
    grid = ts.TorusGrid(2, 24)
    kernel = ts.convolution_kernel(ts.wind_kernel(ts.gaussian_kernel(2, 0.2), grid.n))
    tracemalloc.start()
    try:
        stats = ts.kernel_stats(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kernel.rows().nbytes / grid.n  # one slab
    quad = grid.weight * kernel.rows()
    assert stats["primitive_power"] == 1
    assert stats["iterated_kernel_min"] == float(quad.min() / grid.weight)


def test_kernel_stats_sine_kernel_row_integrals():
    n = 64
    grid = ts.TorusGrid(1, n)
    kernel = ts.convolution_kernel(sine_wound(grid))
    stats = ts.kernel_stats(kernel)
    # oracle: direct quadrature of one row integral
    row0 = sum(1.0 + 0.5 * math.sin(2 * math.pi * ((0 - j) / n)) for j in range(n)) / n
    assert abs(row0 - 1.0) < 1e-13
    assert abs(stats["row_integral_min"] - 1.0) < 1e-13
    assert abs(stats["row_integral_max"] - 1.0) < 1e-13
    assert stats["primitive_power"] == 1


def test_kernel_stats_block_kernel_not_primitive():
    n = 8
    half = n // 2
    samples = np.zeros((n, n))
    samples[:half, :half] = 1.0
    samples[half:, half:] = 1.0
    kernel = ts.GenericKernel(ts.TorusGrid(1, n), samples)
    with pytest.raises(ts.NotPrimitive):
        ts.kernel_stats(kernel)


def test_kernel_stats_transpose_swaps_row_and_column_bounds():
    _, kernel, _ = random_fixture(7, n=32)
    stats = ts.kernel_stats(kernel)
    swapped = ts.kernel_stats(ts.GenericKernel(ts.TorusGrid(1, 32), kernel.rows().T))
    assert math.isclose(stats["col_integral_max"], swapped["row_integral_max"], rel_tol=0, abs_tol=1e-14)
    assert math.isclose(stats["row_integral_max"], swapped["col_integral_max"], rel_tol=0, abs_tol=1e-14)


def test_chain_kernel_needs_higher_power():
    # mass moves one cell per application; primitivity shows up at power >= 2
    n = 4
    samples = np.zeros((n, n))
    for i in range(n):
        samples[i, i] = 1.0
        samples[i, (i + 1) % n] = 1.0
    kernel = ts.GenericKernel(ts.TorusGrid(1, n), samples)
    stats = ts.kernel_stats(kernel, n_max=8)
    assert stats["primitive_power"] == n - 1
    assert stats["iterated_kernel_min"] > 0


@pytest.mark.parametrize("n_max", [2.5, np.float64(8.0)])
def test_kernel_stats_refuses_a_cap_that_is_not_an_integer(n_max):
    # each raised a bare TypeError from range() on a kernel that needs a power
    n = 4
    samples = np.eye(n) + np.roll(np.eye(n), 1, axis=1)
    with pytest.raises(ValueError, match="n_max must be an integer"):
        ts.kernel_stats(ts.GenericKernel(ts.TorusGrid(1, n), samples), n_max=n_max)


def test_integer_arguments_accept_numpy_integers():
    n = 4
    kernel = ts.GenericKernel(ts.TorusGrid(1, n), np.eye(n) + np.roll(np.eye(n), 1, axis=1))
    assert ts.kernel_stats(kernel, n_max=np.int64(8))["primitive_power"] == n - 1
    assert ts.perron(np.ones((3, 3)), max_iter=np.int64(50), seed=np.int64(1)).rho == 3.0
    generator = ts.assemble_generator(kernel, ts.zero_potential(kernel.grid))
    assert len(ts.evolve(generator, np.ones(n), t_max=1.0, snapshots=np.int64(3)).times) == 3


def _dense_primitivity(kernel, n_max=16):
    """Primitive power and least entry of whole-matrix powers of h^d b."""
    quad = kernel.grid.weight * kernel.rows()
    power = quad
    for k in range(1, n_max + 1):
        if k > 1:
            power = power @ quad
        if power.min() > 0:
            return k, float(power.min() / kernel.grid.weight)
    raise AssertionError("not primitive")


def _tophat(dimension, n, width):
    return ts.convolution_kernel(ts.wind_kernel(ts.tophat_kernel(dimension, width), n))


def _invariant_along_one_axis(n, width, seed=5):
    """b((x0, x1), (y0, y1)) = a(x0 - y0) c(x1, y1): a 1-D tophat along
    axis 0 times a random positive table along axis 1."""
    a = _tophat(1, n, width).rows()
    c = np.random.default_rng(seed).uniform(0.5, 1.5, (n, n))
    return ts.GenericKernel(ts.TorusGrid(2, n), np.kron(a, c))


@pytest.mark.parametrize("make, axes", [
    (lambda: _tophat(1, 512, 0.125), (0,)),  # the sweep's tophat, power 5
    (lambda: _tophat(1, 64, 5 / 128), (0,)),
    (lambda: _tophat(2, 24, 0.125), (0, 1)),
    (lambda: _tophat(2, 16, 0.1875), (0, 1)),
    (lambda: _invariant_along_one_axis(16, 0.125), (0,)),
    (lambda: ts.modulated_convolution(ts.wind_kernel(ts.tophat_kernel(1, 0.125), 64), 0.3), ()),
], ids=["1d-512", "1d-64", "2d-24", "2d-16", "one-axis", "no-axis"])
def test_primitivity_powers_on_the_slab_rows_match_the_whole_matrix(make, axes):
    kernel = make()
    assert kernel.invariant_axes == axes
    stats = ts.kernel_stats(kernel)
    power, least = _dense_primitivity(kernel)
    assert stats["primitive_power"] == power > 1
    assert math.isclose(stats["iterated_kernel_min"], least, rel_tol=1e-12)
    if not axes:  # the slab is every row: the same products
        assert stats["iterated_kernel_min"] == least


def test_primitivity_powers_of_an_invariant_kernel_build_one_array_of_its_size():
    kernel = _tophat(2, 24, 0.125)
    tracemalloc.start()
    try:
        stats = ts.kernel_stats(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats["primitive_power"] == 5
    assert peak <= 1.5 * kernel.rows().nbytes  # h^d b, and slab rows of its powers


@pytest.mark.parametrize("dimension, n", [(1, 7), (1, 8), (2, 5), (2, 6)])
def test_convolution_kernels_gather_torus_displacements(dimension, n):
    grid = ts.TorusGrid(dimension, n)
    rng = np.random.default_rng(n)
    wound = ts.WoundKernel(ts.TorusGrid(dimension, n), rng.uniform(0.1, 1.0, size=(n,) * dimension))
    nodes = np.rint(node_mesh(grid).reshape(grid.size, dimension) * n).astype(int)
    expected = np.array([[wound.samples[tuple((x - y) % n)] for y in nodes] for x in nodes])
    assert np.array_equal(ts.convolution_kernel(wound).rows(), expected)
    assert np.array_equal(ts.modulated_convolution(wound, 0.0).rows(), expected)
    coords = node_mesh(grid).reshape(grid.size, dimension)
    modulation = np.array([[1.0 + 0.5 * np.prod(np.cos(2.0 * np.pi * (x + y))) for y in coords] for x in coords])
    modulated = ts.modulated_convolution(wound, 0.5)
    assert np.allclose(modulated.rows(), expected * modulation, rtol=1e-15, atol=0.0)
    for epsilon in (1.0, -1.0, 1.5, np.nan):
        with pytest.raises(ValueError, match="epsilon"):
            ts.modulated_convolution(wound, epsilon)


# -- potentials ---------------------------------------------------------------


def test_check_potential_constant():
    grid = ts.TorusGrid(1, 64)
    diag = ts.constant_potential(grid, 0.3).diagnostics
    assert diag["eligible"]
    assert diag["fraction_negative"] == 1.0
    assert abs(diag["norm_l1"] - 0.3) < 1e-15
    assert abs(diag["norm_l2"] - 0.3) < 1e-15


def test_check_potential_zero_is_ineligible_not_an_error():
    grid = ts.TorusGrid(1, 16)
    diag = ts.zero_potential(grid).diagnostics
    assert not diag["eligible"]
    assert diag["norm_l1"] == 0.0


def test_check_potential_step_exact_norms():
    grid = ts.TorusGrid(1, 64)
    diag = ts.step_potential(grid, 1.0, 0.5).diagnostics
    assert diag["norm_l1"] == 0.5
    assert diag["norm_l2"] == math.sqrt(0.5)
    assert diag["fraction_negative"] == 0.5
    assert diag["eligible"]


@pytest.mark.parametrize("depth", [1e200, 1e-200])
def test_potential_norms_of_extreme_depths(depth):
    grid = ts.TorusGrid(1, 64)
    with np.errstate(over="raise", under="raise"):
        diag = ts.step_potential(grid, depth, 0.5).diagnostics
    assert diag["norm_l1"] == 0.5 * depth
    assert diag["norm_l2"] == depth * math.sqrt(0.5)


@pytest.mark.parametrize("width", [math.nan, 0.0, -0.5])
def test_step_potential_refuses_a_width_that_is_not_positive(width):
    with pytest.raises(ValueError, match="width must be positive"):
        ts.step_potential(ts.TorusGrid(1, 16), 1.0, width=width)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("n", [2, 6, 8, 16, 48])
def test_built_in_profiles_are_sampled_one_axis_at_a_time(dimension, n):
    # step and sine: bit-equal to their formulas on the whole node mesh; cosine: exactly even
    grid = ts.TorusGrid(dimension, n)
    x0 = node_mesh(grid)[..., 0]
    for width in (0.125, 0.3, 0.5, 1.0):
        reference = np.where(x0.ravel() < width, -0.7, 0.0)
        assert ts.step_potential(grid, 0.7, width).samples.tobytes() == reference.tobytes()
    for amplitude in (0.5, -1.0):
        raw = {"dimension": dimension, "grid_n": n, "kernel": {"family": "sine", "amplitude": amplitude},
               "potential": {"family": "zero"}}
        wound = ts.config_from_dict(raw).build_kernel(grid).wound
        assert wound.samples.tobytes() == (1.0 + amplitude * np.sin(2.0 * np.pi * x0)).tobytes()
    v = ts.cosine_potential(grid, 0.7).samples.reshape((n,) * dimension)
    for axis in range(dimension):
        assert np.array_equal(v, np.roll(np.flip(v, axis), 1, axis))  # v[i] == v[-i mod n]
    assert np.array_equal(v, v.T)
    gaussian = ts.convolution_kernel(ts.wind_kernel(ts.gaussian_kernel(dimension, 0.2), n))
    model = ts.ReducedModel(gaussian, ts.cosine_potential(grid))
    assert model.point == (0,) * dimension
    assert model.order == (n // 2 + 1 if dimension == 1 else n * n // 2 + 2)


def test_positive_potential_rejected():
    with pytest.raises(ts.PositivePotential):
        ts.Potential(ts.TorusGrid(1, 4), np.array([0.0, -1.0, 0.2, -0.5]))


# -- equality ------------------------------------------------------------------


def test_model_objects_compare_by_identity():
    grid = ts.TorusGrid(1, 8)
    builders = (
        lambda: ts.step_potential(grid),
        lambda: ts.constant_kernel(grid),
        lambda: ts.wind_kernel(ts.gaussian_kernel(1, 0.2), 8),
        lambda: ts.assemble_generator(ts.constant_kernel(grid), ts.step_potential(grid)),
    )
    for build in builders:
        x, y = build(), build()
        assert x == x
        assert (x == y) is False
        assert x != y


# -- CSV ingestion ------------------------------------------------------------


def test_kernel_csv_round_trip(tmp_path):
    n = 4
    grid = ts.TorusGrid(1, n)
    rng = np.random.default_rng(5)
    samples = rng.uniform(0.2, 2.0, size=(n, n))
    path = tmp_path / "kernel.csv"
    with open(path, "w") as handle:
        handle.write("x,y,value\n")
        for i in range(n):
            for j in range(n):
                handle.write(f"{i/n},{j/n},{float(samples[i, j])!r}\n")
    kernel = ts.kernel_from_csv(str(path), grid)
    assert np.allclose(kernel.rows(), samples, rtol=0, atol=0)


def test_kernel_csv_two_dimensional(tmp_path):
    n = 2
    grid = ts.TorusGrid(2, n)
    path = tmp_path / "kernel2.csv"
    with open(path, "w") as handle:
        handle.write("x1,x2,y1,y2,value\n")
        for i1 in range(n):
            for i2 in range(n):
                for j1 in range(n):
                    for j2 in range(n):
                        handle.write(f"{i1/n},{i2/n},{j1/n},{j2/n},1.0\n")
    kernel = ts.kernel_from_csv(str(path), grid)
    assert np.all(kernel.rows() == 1.0)


def test_kernel_csv_bad_header(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("a,b,c\n0.0,0.0,1.0\n")
    with pytest.raises(ts.ParseError):
        ts.kernel_from_csv(str(path), ts.TorusGrid(1, 2))


def test_kernel_csv_off_grid_node(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("x,y,value\n0.3,0.0,1.0\n")
    with pytest.raises(ts.ValidationError):
        ts.kernel_from_csv(str(path), ts.TorusGrid(1, 2))


def test_kernel_csv_negative_value(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("x,y,value\n0.0,0.0,-1.0\n")
    with pytest.raises(ts.DegenerateKernel):
        ts.kernel_from_csv(str(path), ts.TorusGrid(1, 2))


def test_kernel_csv_missing_pairs(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("x,y,value\n0.0,0.0,1.0\n")
    with pytest.raises(ts.ValidationError):
        ts.kernel_from_csv(str(path), ts.TorusGrid(1, 2))


def test_potential_csv_round_trip(tmp_path):
    grid, _, potential = make_f2(n=8)
    path = tmp_path / "potential.csv"
    with open(path, "w") as handle:
        handle.write("x,value\n")
        for i in range(8):
            handle.write(f"{i/8},{float(potential.samples[i])!r}\n")
    loaded = ts.potential_from_csv(str(path), grid)
    assert np.array_equal(loaded.samples, potential.samples)


def test_potential_csv_positive_value(tmp_path):
    path = tmp_path / "potential.csv"
    path.write_text("x,value\n0.0,0.5\n0.5,-1.0\n")
    with pytest.raises(ts.PositivePotential):
        ts.potential_from_csv(str(path), ts.TorusGrid(1, 2))


# -- degenerate widths, the stored jump rate -----------------------------------


@pytest.mark.parametrize("make, dimension, width", [
    (ts.gaussian_kernel, 1, 1e-300),  # the variance underflows to zero
    (ts.gaussian_kernel, 2, 1e-160),
    (ts.exponential_kernel, 2, 1e-200),
    (ts.tophat_kernel, 2, 1e-200),
], ids=["gaussian-1d", "gaussian", "exponential", "tophat"])
def test_kernel_too_narrow_for_floats_is_degenerate(make, dimension, width):
    with pytest.raises(ts.DegenerateKernel, match="too narrow"):
        make(dimension, width)


def test_kernel_stores_its_jump_rate():
    grid, kernel, _ = make_f2(n=32)
    assert np.array_equal(kernel.w, ts.jump_rate(kernel))
    assert not kernel.w.flags.writeable
    transposed = ts.GenericKernel(ts.TorusGrid(1, 32), kernel.rows().T)
    assert np.array_equal(transposed.w, ts.jump_rate(transposed))


@pytest.mark.parametrize("make", [
    lambda: ts.convolution_kernel(sine_wound(ts.TorusGrid(2, 6))),  # invariant along every axis
    lambda: _invariant_along_one_axis(6, 0.25),  # along axis 0 only
    lambda: ts.GenericKernel(ts.TorusGrid(1, 9), np.random.default_rng(2).uniform(0.5, 1.5, (9, 9))),  # none
])
def test_jump_rate_has_one_entry_per_node_summed_from_the_slab_rows(make):
    kernel = make()
    grid, held = kernel.grid, kernel.invariant_axes
    slab_sums = ts.kernels.slab_rows(kernel.slab, kernel, held).sum(-1)
    expected = np.broadcast_to(grid.weight * slab_sums, grid.slab_shape(())).ravel()
    assert kernel.w.shape == (grid.size,) and kernel.w.tobytes() == expected.tobytes()
    assert kernel.w.tobytes() == (grid.weight * ts.kernels.slab_row_sums(kernel.rows(), kernel)).tobytes()


# -- huge widths, potential diagnostics, dead fields, one CSV reader ----------


@pytest.mark.parametrize("make, width", [
    (ts.gaussian_kernel, 1e200),  # sigma**2 leaves the float range
    (ts.exponential_kernel, 1e308),
    (ts.tophat_kernel, 1e300),
], ids=["gaussian", "exponential", "tophat"])
def test_kernel_too_wide_to_wind_is_tail_not_resolved(make, width):
    with pytest.raises(ts.TailNotResolved):
        ts.wind_kernel(make(1, width), 16)


def test_gaussian_variance_is_bit_identical_to_sigma_squared():
    # sigma * sigma differs from sigma**2 in the last bit for this width
    sigma = 0.9898385602834381
    values = ts.gaussian_kernel(1, sigma).factor(np.array([0.5]))
    expected = (2.0 * math.pi * sigma**2) ** -0.5 * np.exp(-0.25 / (2.0 * sigma**2))
    assert values[0] == expected


def test_potential_diagnostics_are_a_field_set_at_construction():
    grid = ts.TorusGrid(2, 4)
    potential = ts.cosine_potential(grid, 0.7)
    field = {f.name: f for f in dataclasses.fields(ts.Potential)}["diagnostics"]
    assert not field.init and not field.compare and not field.repr
    v = potential.samples
    assert list(potential.diagnostics.items()) == [
        ("max_sample", float(v.max())),
        ("fraction_negative", float(np.count_nonzero(v < 0)) / v.size),
        ("norm_l1", float(np.abs(v).sum() / 16)),
        ("norm_l2", float(math.sqrt((v**2).sum() / 16))),
        ("eligible", True),
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        potential.diagnostics = None


def test_kernels_carry_only_fields_that_are_read():
    names = lambda cls: [f.name for f in dataclasses.fields(cls)]
    assert names(ts.ContinuousKernel) == ["dimension", "factor", "tail_mass_bound"]
    assert names(ts.GenericKernel) == ["grid", "slab", "wound", "w", "symmetric", "invariant_axes"]


def test_a_convolution_kernel_keeps_its_wound():
    grid = ts.TorusGrid(2, 8)
    wound = sine_wound(grid)
    kernel = ts.convolution_kernel(wound)
    assert kernel.wound is wound
    assert ts.GenericKernel(grid, kernel.rows()).wound is None


def test_a_convolution_kernel_takes_its_wound_alone():
    grid = ts.TorusGrid(1, 8)
    wound = sine_wound(grid)  # not even, so a(y) is not the row a(-y)
    kernel = ts.GenericKernel(grid, wound=wound)
    assert kernel.wound is wound and not kernel.symmetric
    assert kernel.slab.tobytes() == wound.samples[(-np.arange(grid.n)) % grid.n].tobytes()
    for samples in (kernel.slab.reshape(grid.n), kernel.rows()):  # even the kernel's own samples
        with pytest.raises(ValueError, match="wound alone"):
            ts.GenericKernel(grid, samples, wound)
    with pytest.raises(ValueError, match="on its grid"):
        ts.GenericKernel(ts.TorusGrid(1, 4), wound=wound)
    with pytest.raises(ValueError, match="on its grid"):
        ts.GenericKernel(ts.TorusGrid(2, 8), wound=wound)


def _write(path, header, rows):
    path.write_text("\n".join([header, *rows]) + "\n")
    return str(path)


def test_two_dimensional_csv_tables_fill_row_major_node_order(tmp_path):
    n = 2
    grid = ts.TorusGrid(2, n)
    nodes = [(a, b) for a in range(n) for b in range(n)]
    samples = np.arange(1.0, 17.0).reshape(4, 4)
    rows = [f"{x[0] / n},{x[1] / n},{y[0] / n},{y[1] / n},{float(samples[i, j])!r}"
            for i, x in enumerate(nodes) for j, y in enumerate(nodes)]
    kernel = ts.kernel_from_csv(_write(tmp_path / "k.csv", "x1,x2,y1,y2,value", rows[::-1]), grid)
    assert np.array_equal(kernel.rows(), samples)
    values = -np.arange(4.0)
    rows = [f"{x[0] / n},{x[1] / n},{float(values[i])!r}" for i, x in enumerate(nodes)]
    potential = ts.potential_from_csv(_write(tmp_path / "p.csv", "x1,x2,value", rows[::-1]), grid)
    assert np.array_equal(potential.samples, values)


@pytest.mark.parametrize("table, header, rows, error, message", [
    ("kernel", "x,y,value", ["0,0,1", "0,0,2"], ts.ValidationError, "k.csv:3: duplicate node pair"),
    ("kernel", "x,y,value", ["0,0,1"], ts.ValidationError, "k.csv: 3 grid node pairs missing"),
    ("kernel", "x,y,value", ["0,0.5,-2.0"], ts.DegenerateKernel, "k.csv:2: negative kernel value -2.0"),
    ("kernel", "x,y,value", ["0,0,-1", "0,0"], ts.ParseError, "k.csv:3: expected 3 fields"),
    ("kernel", "x1,x2,y1,y2,value", ["0,0,0,0,1"], ts.ParseError, "expected header 'x,y,value'"),
    ("potential", "x,value", ["0,-1", "0,-1"], ts.ValidationError, "k.csv:3: duplicate node"),
    ("potential", "x,value", ["0,-1"], ts.ValidationError, "k.csv: 1 grid nodes missing"),
    ("potential", "x,value", ["0.5,2.0"], ts.PositivePotential, "k.csv:2: positive potential value 2.0"),
    ("potential", "x,value", ["0.25,-1"], ts.ValidationError, "k.csv:2: coordinate 0.25 is not a grid node"),
    ("kernel", "x,y,value", ["0,-1e308,1"], ts.ValidationError, "k.csv:2: coordinate -1e\\+308 is not a grid node"),
    ("potential", "x,value", ["0,-1", "1e308,-1"], ts.ValidationError, "k.csv:3: coordinate 1e\\+308 is not a grid node"),
], ids=["k-dup", "k-missing", "k-sign", "k-fields-first", "k-header",
        "p-dup", "p-missing", "p-sign", "p-off-grid", "k-huge", "p-huge"])
def test_csv_tables_share_checks_and_messages(table, header, rows, error, message, tmp_path):
    read = ts.kernel_from_csv if table == "kernel" else ts.potential_from_csv
    with pytest.raises(error, match=message):
        read(_write(tmp_path / "k.csv", header, rows), ts.TorusGrid(1, 2))


def test_csv_tables_skip_blank_lines_and_refuse_an_empty_file(tmp_path):
    path = _write(tmp_path / "p.csv", "x,value", ["0.0,-1.0", "", "0.5,0.0"])
    assert ts.potential_from_csv(path, ts.TorusGrid(1, 2)).samples.tolist() == [-1.0, 0.0]
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ts.ParseError, match="empty.csv: empty file"):
        ts.potential_from_csv(str(empty), ts.TorusGrid(1, 2))


# -- symmetry, decided once per kernel ------------------------------------------


def test_symmetry_test_finds_one_ulp_in_any_tile():
    order = 2 * SYMMETRY_TILE + 5
    rng = np.random.default_rng(7)
    raw = rng.uniform(size=(order, order))
    mat = raw + raw.T
    assert _is_symmetric(mat)
    for i, j in ((0, 1), (3, SYMMETRY_TILE + 2), (order - 1, order - 2), (SYMMETRY_TILE, 2 * SYMMETRY_TILE)):
        bent = mat.copy()
        bent[i, j] = np.nextafter(bent[i, j], np.inf)
        assert not _is_symmetric(bent)
        assert not _is_symmetric(bent.T)


def test_symmetry_test_builds_no_array_of_the_matrix_size():
    raw = np.random.default_rng(8).uniform(size=(1024, 1024))
    mat = raw + raw.T
    tracemalloc.start()
    try:
        assert _is_symmetric(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * mat.nbytes


def _csv_kernel(grid, tmp_path):
    rng = np.random.default_rng(5)
    rows = [f"{i / grid.n},{j / grid.n},{rng.uniform(0.5, 1.5)!r}" for i in range(grid.n) for j in range(grid.n)]
    return ts.kernel_from_csv(_write(tmp_path / "k.csv", "x,y,value", rows), grid)


SYMMETRY_BY_FAMILY = {
    "constant": (lambda grid, tmp_path: ts.constant_kernel(grid, 2.0), True),
    "gaussian": (lambda grid, tmp_path: ts.convolution_kernel(ts.wind_kernel(ts.gaussian_kernel(1, 0.2), grid.n)), True),
    "exponential": (lambda grid, tmp_path: ts.convolution_kernel(ts.wind_kernel(ts.exponential_kernel(1, 0.2), grid.n)), True),
    "modulated": (lambda grid, tmp_path: ts.modulated_convolution(ts.wind_kernel(ts.gaussian_kernel(1, 0.2), grid.n), 0.3), True),
    "sine": (lambda grid, tmp_path: ts.convolution_kernel(sine_wound(grid)), False),
    # 2 w n is an integer: the half-open box puts a node on one edge only
    "tophat": (lambda grid, tmp_path: ts.convolution_kernel(ts.wind_kernel(ts.tophat_kernel(1, 0.125), grid.n)), False),
    "csv": (_csv_kernel, False),
}


@pytest.mark.parametrize("family", sorted(SYMMETRY_BY_FAMILY))
def test_kernel_decides_its_symmetry_at_construction(family, tmp_path):
    build, symmetric = SYMMETRY_BY_FAMILY[family]
    grid = ts.TorusGrid(1, 16)
    kernel = build(grid, tmp_path)
    assert kernel.symmetric is symmetric
    assert kernel.symmetric == np.array_equal(kernel.rows(), kernel.rows().T)
    assert ts.assemble_generator(kernel, ts.step_potential(grid)).symmetric is symmetric


def _count_symmetry_tests(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a.shape)
        return _is_symmetric(a)

    monkeypatch.setattr(ts.kernels, "_is_symmetric", counted)
    return calls


def test_analyze_tests_symmetry_once(monkeypatch):
    calls = _count_symmetry_tests(monkeypatch)
    grid = ts.TorusGrid(2, 8)
    kernel = ts.convolution_kernel(ts.wind_kernel(ts.gaussian_kernel(2, 0.2), 8))
    ts.analyze(kernel, ts.step_potential(grid))
    # the convolution kernel reads its flag off the wound samples, and so
    # does the kernel of its Bloch fibre k = 0, built by convolution_kernel
    assert calls == []


def test_eigenexpansion_evolve_tests_symmetry_once(monkeypatch, tmp_path, capsys):
    calls = _count_symmetry_tests(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dimension": 1, "grid_n": 16,
        "kernel": {"family": "gaussian", "sigma": 0.2},
        "potential": {"family": "step", "depth": 1.0},
        "evolution": {"method": "eigenexpansion"},
    }))
    assert ts.main(["evolve", "--config", str(path), "--out", str(tmp_path)]) == 0
    # the step potential leaves no invariant axis, so no fibre kernel is
    # built, and the convolution kernel is never bit-tested
    assert calls == []


def test_hand_built_kernel_runs_both_bit_tests(monkeypatch):
    wound = ts.wind_kernel(ts.gaussian_kernel(2, 0.2), 6)
    convolution = ts.convolution_kernel(wound)
    symmetry = _count_symmetry_tests(monkeypatch)
    shifts = []

    def counted(samples, grid):
        shifts.append(samples.shape)
        return _invariant_axes(samples, grid)

    monkeypatch.setattr(ts.kernels, "_invariant_axes", counted)
    kernel = ts.GenericKernel(wound.grid, convolution.rows())
    assert symmetry == shifts == [(36, 36)]
    assert (kernel.symmetric, kernel.invariant_axes) == (convolution.symmetric, convolution.invariant_axes) == (True, (0, 1))
    assert np.array_equal(kernel.w, convolution.w)


def _reflected(a):
    """a[-k mod n] along every axis."""
    return np.roll(np.flip(a), 1, axis=tuple(range(a.ndim)))


def _fancy_index_gather(wound):
    """Reference gather a((i - j) mod n): one (n, n) displacement table
    indexes every axis, broadcast over the axis pairs."""
    n, d = wound.grid.n, wound.grid.dimension
    diff = (np.arange(n)[:, None] - np.arange(n)) % n
    index = []
    for axis in range(d):
        shape = [1] * (2 * d)
        shape[axis] = shape[d + axis] = n
        index.append(diff.reshape(shape))
    return wound.samples[tuple(index)].reshape(wound.grid.size, wound.grid.size)


PALETTE = np.array([0.0, -0.0, 0.25, 1.0, 3.0, 1e-300])


@settings(max_examples=60)
@given(st.sampled_from([1, 2]), st.integers(2, 24), st.integers(0, 2**32 - 1),
       st.sampled_from(["uniform", "palette"]), st.booleans())
def test_strided_gather_and_wound_flags_match_the_bit_tests(dimension, n, seed, draw, even):
    rng = np.random.default_rng(seed)
    shape = (n,) * dimension
    a = rng.uniform(0.0, 2.0, shape) if draw == "uniform" else rng.choice(PALETTE, shape)
    a[(0,) * dimension] += 1.0  # positive quadrature mass
    if even:
        a = a + _reflected(a)
    wound = ts.WoundKernel(ts.TorusGrid(dimension, n), a)
    gathered = ts.convolution_kernel(wound).rows()
    assert gathered.flags.c_contiguous
    assert gathered.tobytes() == _fancy_index_gather(wound).tobytes()
    kernel = ts.convolution_kernel(wound)
    assert kernel.symmetric is _is_symmetric(kernel.rows())
    assert kernel.invariant_axes == _invariant_axes(kernel.rows(), wound.grid) == tuple(range(dimension))
    if even:
        assert kernel.symmetric


@settings(max_examples=80)
@given(st.sampled_from([1, 2]), st.integers(2, 9), st.integers(0, 2**32 - 1))
def test_rows_of_a_convolution_kernel_are_the_rows_of_the_full_gather(dimension, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 2.0, (n,) * dimension)  # not even, but for n = 2 every a is
    a[(0,) * dimension] += 1.0
    wound = ts.WoundKernel(ts.TorusGrid(dimension, n), a)
    kernel = ts.convolution_kernel(wound)
    assert kernel.slab.shape == (1, wound.grid.size) and kernel.symmetric is (n == 2)
    full = _fancy_index_gather(wound)
    for size in range(dimension + 1):
        for axes in combinations(range(dimension), size):
            rows = kernel.rows(axes)
            expected = full.reshape((n,) * dimension + (-1,))[wound.grid.origin_slab(axes)]
            assert rows.flags.c_contiguous and rows.flags.writeable
            assert rows.tobytes() == expected.tobytes()
    assert kernel.rows().tobytes() == full.tobytes() and not kernel.slab.flags.writeable


@pytest.mark.parametrize("axes", [(), (0,)])
def test_rows_of_a_kernel_invariant_along_one_axis_are_its_rows(axes):
    n = 7
    a = _tophat(1, n, 0.25).rows()
    samples = np.kron(a, np.random.default_rng(n).uniform(0.5, 1.5, (n, n)))
    kernel = ts.GenericKernel(ts.TorusGrid(2, n), samples.copy())
    assert kernel.invariant_axes == (0,) and kernel.slab.shape == (n, n * n)
    expected = samples.reshape(n, n, -1)[kernel.grid.origin_slab(axes)]
    assert kernel.rows(axes).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dimension, n", [(1, 16), (2, 6)])
def test_constant_kernel_is_bit_equal_to_the_hand_built_one(dimension, n):
    grid = ts.TorusGrid(dimension, n)
    for value in (1.0, 0.3, 2.5):
        kernel = ts.constant_kernel(grid, value)
        hand_built = ts.GenericKernel(grid, np.full((grid.size, grid.size), value))
        assert kernel.slab.shape == (1, grid.size)
        assert kernel.rows().tobytes() == hand_built.rows().tobytes()
        assert kernel.w.tobytes() == hand_built.w.tobytes()
        assert kernel.symmetric is hand_built.symmetric is True
        assert kernel.invariant_axes == hand_built.invariant_axes == tuple(range(dimension))


@pytest.mark.parametrize("build, samples, error, message", [
    (ts.GenericKernel, np.ones((8, 4)), ValueError, r"samples must be an \(n\^d, n\^d\) array"),
    (ts.GenericKernel, np.ones(64), ValueError, r"samples must be an \(n\^d, n\^d\) array"),
    (ts.GenericKernel, np.eye(8) - 0.5 * np.roll(np.eye(8), 1, 1), ts.DegenerateKernel, "must be nonnegative"),
    (ts.GenericKernel, np.zeros((8, 8)), ts.DegenerateKernel, "kernel is identically zero"),
    (ts.WoundKernel, np.ones(4), ValueError, r"samples must be shaped \(n,\)\*d"),
    (ts.WoundKernel, np.ones((8, 8)), ValueError, r"samples must be shaped \(n,\)\*d"),
    (ts.WoundKernel, np.where(np.arange(8) == 5, -0.1, 1.0), ValueError, "wound kernel samples must be nonnegative"),
    (ts.Potential, -np.ones(7), ValueError, "potential needs one sample per grid node"),
], ids=["generic-shape", "generic-flat", "generic-negative", "generic-zero",
        "wound-shape", "wound-2d", "wound-negative", "potential-length"])
def test_sampled_records_refuse_samples_of_the_wrong_shape_or_sign(build, samples, error, message):
    with pytest.raises(error, match=message):
        build(ts.TorusGrid(1, 8), samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("record", ["wound", "generic", "potential"])
def test_non_finite_samples_are_refused(record, bad):
    grid = ts.TorusGrid(1, 8)
    samples = {"wound": np.ones(8), "generic": np.ones((8, 8)), "potential": -np.ones(8)}[record]
    samples.flat[3] = bad
    build = {"wound": ts.WoundKernel, "generic": ts.GenericKernel, "potential": ts.Potential}[record]
    with pytest.raises(ts.ValidationError, match="samples must be finite"):
        build(grid, samples)


def test_narrow_tophat_is_primitive_at_the_power_cap(tmp_path):
    # 2 w n = 5 nodes of mass 1/5: the k-th power covers 4k + 1 of the 64 nodes
    n, width = 64, 5 / 128
    grid = ts.TorusGrid(1, n)
    kernel = ts.convolution_kernel(ts.wind_kernel(ts.tophat_kernel(1, width), n))
    assert kernel.w.min() == kernel.w.max() == 1.0
    assert ts.kernel_stats(kernel)["primitive_power"] == 16
    options = ts.AnalysisOptions()
    report = ts.analyze(kernel, ts.step_potential(grid), options)
    assert report.diagnostics["method_spread"] <= options.cross_tol

    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dimension": 1, "grid_n": n,
        "kernel": {"family": "tophat", "width": width},
        "potential": {"family": "step", "depth": 1.0},
        "analysis": {"primitivity_max_power": 15},
    }))
    assert ts.main(["check-kernel", "--config", str(path), "--out", str(tmp_path)]) == 2
    document = json.loads((tmp_path / "kernel_check.json").read_text())
    assert document["kernel_stats"] is None
    assert document["kernel_error"]["error"] == "NotPrimitive"
