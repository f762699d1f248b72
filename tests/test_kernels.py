"""Kernel and potential construction, winding, statistics, diagnostics."""

import dataclasses
import json
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from scipy.integrate import quad

import torspec as ts
from torspec.kernels import SYMMETRY_TILE, _is_symmetric
from conftest import make_f2, random_fixture, sine_wound


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
    nodes = (np.arange(64) / 64)[:, None]
    total = 0.0
    for m in range(-wound.wind_truncation, wound.wind_truncation + 1):
        total += float(kernel.evaluate(nodes + m).sum())
    assert abs(total / 64 - wound.quadrature_mass()) <= 1e-12


def test_zero_kernel_rejected():
    with pytest.raises(ts.DegenerateKernel):
        ts.WoundKernel(ts.TorusGrid(1, 8), np.zeros(8))


def test_wind_requires_resolvable_tail():
    heavy = ts.ContinuousKernel(
        dimension=1,
        evaluate=lambda pts: np.exp(-np.abs(pts[..., 0])),
        tail_mass_bound=lambda n_shift: 1.0,
    )
    with pytest.raises(ts.TailNotResolved):
        ts.wind_kernel(heavy, 16, 1e-6)


def test_wind_rejects_missing_tail_bound():
    bare = ts.ContinuousKernel(1, lambda pts: np.zeros(pts.shape[:-1]))
    with pytest.raises(ts.TailNotResolved):
        ts.wind_kernel(bare, 16)


def test_wind_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        ts.wind_kernel(ts.tophat_kernel(), 16, 0.0)


def _shift_loop(kernel, n, radius):
    """Reference winding: the plain loop over the nodes i/n and every shift.

    It rounds i/n + m twice, so it can drop a node on a box edge; the
    tophats compared with it below have no node it drops.
    """
    mesh = ts.TorusGrid(kernel.dimension, n).node_mesh()
    acc = np.zeros((n,) * kernel.dimension)
    for shift in product(range(-radius, radius + 1), repeat=kernel.dimension):
        acc = acc + kernel.evaluate(mesh + np.asarray(shift, dtype=float))
    return acc


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


# -- jump rate ---------------------------------------------------------------


def test_jump_rate_constant_kernel():
    grid = ts.TorusGrid(1, 32)
    rates = ts.jump_rate(ts.constant_kernel(grid))
    assert np.all(rates == 1.0)


def test_jump_rate_convolution_of_ones():
    grid = ts.TorusGrid(1, 16)
    ones = ts.wound_from_function(lambda mesh: np.ones(mesh.shape[:-1]), grid)
    rates = ts.jump_rate(ts.convolution_kernel(ones))
    assert np.all(rates == 1.0)


def test_jump_rate_half_supported_rows_rejected_downstream():
    grid = ts.TorusGrid(1, 16)
    x = grid.coordinates()[:, 0]
    kernel = ts.GenericKernel(ts.TorusGrid(1, 16), np.outer(np.where(x < 0.5, 2.0, 0.0), np.ones(grid.size)))
    rates = ts.jump_rate(kernel)
    assert np.all(rates[x < 0.5] == 2.0)
    assert np.all(rates[x >= 0.5] == 0.0)
    with pytest.raises(ts.DegenerateKernel):
        ts.kernel_stats(kernel)


@pytest.mark.parametrize("shape", [(7,), (5, 9), (64, 64), (3, 4, 6)])
def test_serial_row_sums_bit_equal_to_cumsum(shape):
    rng = np.random.default_rng(len(shape))
    a = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    weight = 1.0 / 3.0
    for view in (a, a.T):
        assert np.array_equal(ts.kernels.serial_row_sums(view), np.cumsum(view, axis=-1)[..., -1])
        assert np.array_equal(
            ts.kernels.serial_row_sums(view, weight), np.cumsum(view * weight, axis=-1)[..., -1]
        )


def test_row_and_column_sums_build_no_array_of_the_kernels_size():
    grid, kernel, _ = random_fixture(5, n=512)
    tracemalloc.start()
    try:
        rows = ts.jump_rate(kernel)
        cols = ts.kernels.serial_row_sums(kernel.samples.T, kernel.grid.weight)  # as kernel_stats takes them
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rows, np.cumsum(kernel.samples * kernel.grid.weight, axis=-1)[:, -1])
    assert np.array_equal(cols, np.cumsum(kernel.samples.T * kernel.grid.weight, axis=-1)[:, -1])
    assert peak <= 0.05 * kernel.samples.nbytes


# -- kernel statistics --------------------------------------------------------


def test_kernel_stats_constant():
    grid = ts.TorusGrid(1, 64)
    stats = ts.kernel_stats(ts.constant_kernel(grid))
    assert stats.row_integral_min == 1.0
    assert stats.row_integral_max == 1.0
    assert stats.col_integral_max == 1.0
    assert stats.primitive_power == 1
    assert stats.iterated_kernel_min == 1.0


def test_kernel_stats_of_a_positive_kernel_builds_no_array_of_its_size():
    grid = ts.TorusGrid(2, 24)
    kernel = ts.convolution_kernel(ts.wind_kernel(ts.gaussian_kernel(2, 0.2), grid.n))
    tracemalloc.start()
    try:
        stats = ts.kernel_stats(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kernel.samples.nbytes / grid.n  # one slab
    quad = grid.weight * kernel.samples
    assert stats.primitive_power == 1
    assert stats.iterated_kernel_min == float(quad.min() / grid.weight)


def test_kernel_stats_sine_kernel_row_integrals():
    n = 64
    grid = ts.TorusGrid(1, n)
    kernel = ts.convolution_kernel(sine_wound(grid))
    stats = ts.kernel_stats(kernel)
    # oracle: direct quadrature of one row integral
    row0 = sum(1.0 + 0.5 * math.sin(2 * math.pi * ((0 - j) / n)) for j in range(n)) / n
    assert abs(row0 - 1.0) < 1e-13
    assert abs(stats.row_integral_min - 1.0) < 1e-13
    assert abs(stats.row_integral_max - 1.0) < 1e-13
    assert stats.primitive_power == 1


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
    swapped = ts.kernel_stats(ts.GenericKernel(ts.TorusGrid(1, 32), kernel.samples.T))
    assert math.isclose(stats.col_integral_max, swapped.row_integral_max, rel_tol=0, abs_tol=1e-14)
    assert math.isclose(stats.row_integral_max, swapped.col_integral_max, rel_tol=0, abs_tol=1e-14)


def test_chain_kernel_needs_higher_power():
    # mass moves one cell per application; primitivity shows up at power >= 2
    n = 4
    samples = np.zeros((n, n))
    for i in range(n):
        samples[i, i] = 1.0
        samples[i, (i + 1) % n] = 1.0
    kernel = ts.GenericKernel(ts.TorusGrid(1, n), samples)
    stats = ts.kernel_stats(kernel, n_max=8)
    assert stats.primitive_power == n - 1
    assert stats.iterated_kernel_min > 0


@pytest.mark.parametrize("dimension, n", [(1, 7), (1, 8), (2, 5), (2, 6)])
def test_convolution_kernels_gather_torus_displacements(dimension, n):
    grid = ts.TorusGrid(dimension, n)
    rng = np.random.default_rng(n)
    wound = ts.WoundKernel(ts.TorusGrid(dimension, n), rng.uniform(0.1, 1.0, size=(n,) * dimension))
    nodes = np.rint(grid.coordinates() * n).astype(int)
    expected = np.array([[wound.samples[tuple((x - y) % n)] for y in nodes] for x in nodes])
    assert np.array_equal(ts.convolution_kernel(wound).samples, expected)
    assert np.array_equal(ts.modulated_convolution(wound, 0.0).samples, expected)
    coords = grid.coordinates()
    modulation = np.array([[1.0 + 0.5 * np.prod(np.cos(2.0 * np.pi * (x + y))) for y in coords] for x in coords])
    modulated = ts.modulated_convolution(wound, 0.5)
    assert np.allclose(modulated.samples, expected * modulation, rtol=1e-15, atol=0.0)
    for epsilon in (1.0, -1.0, 1.5, np.nan):
        with pytest.raises(ValueError, match="epsilon"):
            ts.modulated_convolution(wound, epsilon)


# -- potentials ---------------------------------------------------------------


def test_check_potential_constant():
    grid = ts.TorusGrid(1, 64)
    diag = ts.constant_potential(grid, 0.3).diagnostics
    assert diag.eligible
    assert diag.fraction_negative == 1.0
    assert abs(diag.norm_l1 - 0.3) < 1e-15
    assert abs(diag.norm_l2 - 0.3) < 1e-15


def test_check_potential_zero_is_ineligible_not_an_error():
    grid = ts.TorusGrid(1, 16)
    diag = ts.zero_potential(grid).diagnostics
    assert not diag.eligible
    assert diag.norm_l1 == 0.0


def test_check_potential_step_exact_norms():
    grid = ts.TorusGrid(1, 64)
    diag = ts.step_potential(grid, 1.0, 0.5).diagnostics
    assert diag.norm_l1 == 0.5
    assert diag.norm_l2 == math.sqrt(0.5)
    assert diag.fraction_negative == 0.5
    assert diag.eligible


@pytest.mark.parametrize("depth", [1e200, 1e-200])
def test_potential_norms_of_extreme_depths(depth):
    grid = ts.TorusGrid(1, 64)
    with np.errstate(over="raise", under="raise"):
        diag = ts.step_potential(grid, depth, 0.5).diagnostics
    assert diag.norm_l1 == 0.5 * depth
    assert diag.norm_l2 == depth * math.sqrt(0.5)


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
    assert np.allclose(kernel.samples, samples, rtol=0, atol=0)


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
    assert np.all(kernel.samples == 1.0)


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
    with pytest.raises(ts.ValidationError):
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
    with pytest.raises(ts.ValidationError):
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
    transposed = ts.GenericKernel(ts.TorusGrid(1, 32), kernel.samples.T)
    assert np.array_equal(transposed.w, ts.jump_rate(transposed))


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
    values = ts.gaussian_kernel(1, sigma).evaluate(np.array([[0.5]]))
    expected = (2.0 * math.pi * sigma**2) ** -0.5 * np.exp(-0.25 / (2.0 * sigma**2))
    assert values[0] == expected


def test_potential_diagnostics_are_a_field_set_at_construction():
    grid = ts.TorusGrid(2, 4)
    potential = ts.cosine_potential(grid, 0.7)
    field = {f.name: f for f in dataclasses.fields(ts.Potential)}["diagnostics"]
    assert not field.init and not field.compare and not field.repr
    v = potential.samples
    assert potential.diagnostics == ts.PotentialDiagnostics(
        max_sample=float(v.max()),
        fraction_negative=float(np.count_nonzero(v < 0)) / v.size,
        norm_l1=float(np.abs(v).sum() / 16),
        norm_l2=float(math.sqrt((v**2).sum() / 16)),
        eligible=True,
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        potential.diagnostics = None


def test_kernels_carry_only_fields_that_are_read():
    names = lambda cls: [f.name for f in dataclasses.fields(cls)]
    assert names(ts.ContinuousKernel) == ["dimension", "evaluate", "tail_mass_bound"]
    assert names(ts.GenericKernel) == ["grid", "samples", "w", "symmetric", "invariant_axes"]


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
    assert np.array_equal(kernel.samples, samples)
    values = -np.arange(4.0)
    rows = [f"{x[0] / n},{x[1] / n},{float(values[i])!r}" for i, x in enumerate(nodes)]
    potential = ts.potential_from_csv(_write(tmp_path / "p.csv", "x1,x2,value", rows[::-1]), grid)
    assert np.array_equal(potential.samples, values)


@pytest.mark.parametrize("table, header, rows, error, message", [
    ("kernel", "x,y,value", ["0,0,1", "0,0,2"], ts.ValidationError, "k.csv:3: duplicate node pair"),
    ("kernel", "x,y,value", ["0,0,1"], ts.ValidationError, "k.csv: 3 grid node pairs missing"),
    ("kernel", "x,y,value", ["0,0.5,-2.0"], ts.ValidationError, "k.csv:2: negative kernel value -2.0"),
    ("kernel", "x,y,value", ["0,0,-1", "0,0"], ts.ParseError, "k.csv:3: expected 3 fields"),
    ("kernel", "x1,x2,y1,y2,value", ["0,0,0,0,1"], ts.ParseError, "expected header 'x,y,value'"),
    ("potential", "x,value", ["0,-1", "0,-1"], ts.ValidationError, "k.csv:3: duplicate node"),
    ("potential", "x,value", ["0,-1"], ts.ValidationError, "k.csv: 1 grid nodes missing"),
    ("potential", "x,value", ["0.5,2.0"], ts.ValidationError, "k.csv:2: positive potential value 2.0"),
    ("potential", "x,value", ["0.25,-1"], ts.ValidationError, "k.csv:2: coordinate 0.25 is not a grid node"),
    ("kernel", "x,y,value", ["0,-1e308,1"], ts.ValidationError, "k.csv:2: coordinate -1e\\+308 is not a grid node"),
    ("potential", "x,value", ["0,-1", "1e308,-1"], ts.ValidationError, "k.csv:3: coordinate 1e\\+308 is not a grid node"),
], ids=["k-dup", "k-missing", "k-sign", "k-fields-first", "k-header",
        "p-dup", "p-missing", "p-sign", "p-off-grid", "k-huge", "p-huge"])
def test_csv_tables_share_checks_and_messages(table, header, rows, error, message, tmp_path):
    read = ts.kernel_from_csv if table == "kernel" else ts.potential_from_csv
    with pytest.raises(error, match=message):
        read(_write(tmp_path / "k.csv", header, rows), ts.TorusGrid(1, 2))


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
    assert kernel.symmetric == np.array_equal(kernel.samples, kernel.samples.T)
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
    assert calls == [(64, 64)]


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
    assert calls == [(16, 16)]
