"""The block route of the dense solve: generators exactly invariant along
some torus axes are solved block by block (discrete Floquet-Bloch)."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import torspec as ts
from torspec.cli import run_command
from torspec.discretize import model_axes
from torspec.eigen import block_shape
from torspec.kernels import SYMMETRY_TILE, _invariant_axes, _is_symmetric
from conftest import FIXTURE_DIR, make_f3, sine_wound

EPS = np.finfo(float).eps


def _matched_distance(a, b):
    """Largest distance under the best one-to-one pairing of two multisets."""
    assert len(a) == len(b)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _dense(generator):
    """The same matrix without its invariant axes: the whole-matrix solve."""
    return ts.OperatorMatrix(generator.data, generator.grid, symmetric=generator.symmetric)


@settings(max_examples=100)
@given(
    st.sampled_from([(1, n) for n in range(2, 13)] + [(2, n) for n in range(2, 7)]),
    st.booleans(),
    st.sampled_from([(0,), (1,), (0, 1)]),
    st.floats(1e-3, 5.0),
    st.integers(0, 2**32 - 1),
)
def test_block_spectrum_matches_the_whole_matrix(shape, symmetric, axes, depth, seed):
    dimension, n = shape
    axes = tuple(a for a in axes if a < dimension)
    grid = ts.TorusGrid(dimension, n)
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.05, 1.0, (n,) * dimension)
    if symmetric:  # a[k] + a[-k] is bit-equal to a[-k] + a[k]
        samples = samples + samples[np.ix_(*[(-np.arange(n)) % n] * dimension)]
    wound = ts.WoundKernel(grid, samples / (grid.weight * samples.sum()))
    kernel = ts.convolution_kernel(wound)
    assert kernel.symmetric is (symmetric or n == 2)  # a[k] is a[-k] at n = 2
    assert kernel.invariant_axes == tuple(range(dimension))
    field = -depth * rng.random((n,) * dimension) * (rng.random((n,) * dimension) < 0.6)
    field = np.broadcast_to(field[grid.origin_slab(axes)], field.shape)
    generator = ts.assemble_generator(kernel, ts.Potential(grid, field.ravel()))
    assert set(axes) <= set(generator.invariant_axes)

    blocks = ts.full_spectrum(generator)
    dense = ts.full_spectrum(_dense(generator))
    norm = float(np.abs(generator.data).sum(axis=1).max())
    assert _matched_distance(blocks, dense) <= 1e-10 * norm
    assert abs(blocks[0].real - dense[0].real) <= 8 * grid.size * EPS * norm
    complex_values = blocks[blocks.imag != 0]
    assert np.array_equal(np.sort_complex(complex_values), np.sort_complex(complex_values.conj()))
    if kernel.symmetric:
        assert not np.iscomplexobj(blocks)


@settings(max_examples=60)
@given(
    st.sampled_from([(1, n) for n in range(2, 17)] + [(2, n) for n in range(2, 9)]),
    st.sampled_from([(), (0,), (1,), (0, 1)]),
    st.integers(0, 2**32 - 1),
)
def test_assembled_generators_are_exactly_invariant(shape, axes, seed):
    # samples over twelve orders of magnitude, so that sums of
    # permuted rows differ in their last bits unless one row is summed
    dimension, n = shape
    axes = tuple(a for a in axes if a < dimension)
    grid = ts.TorusGrid(dimension, n)
    rng = np.random.default_rng(seed)
    samples = rng.random((n,) * dimension) * 10.0 ** rng.uniform(-6, 6, (n,) * dimension)
    kernel = ts.convolution_kernel(ts.WoundKernel(grid, samples))
    field = -rng.random((n,) * dimension) * 10.0 ** rng.uniform(-3, 3)
    field = np.broadcast_to(field[grid.origin_slab(axes)], field.shape)
    generator = ts.assemble_generator(kernel, ts.Potential(grid, field.ravel()))
    assert set(axes) <= set(generator.invariant_axes)
    m = generator.data.reshape((n,) * (2 * dimension))
    for a in generator.invariant_axes:  # the diagonal maps onto itself
        assert np.array_equal(np.roll(m, 1, axis=(a, dimension + a)), m)


def _csv_kernel(grid, samples, tmp_path):
    nodes = [i / grid.n for i in range(grid.n)]
    rows = [f"{x!r},{y!r},{float(samples[i, j])!r}" for i, x in enumerate(nodes) for j, y in enumerate(nodes)]
    path = tmp_path / "k.csv"
    path.write_text("\n".join(["x,y,value", *rows]) + "\n")
    return ts.kernel_from_csv(str(path), grid)


def _gaussian(grid):
    return ts.convolution_kernel(ts.wind_kernel(ts.gaussian_kernel(grid.dimension, 0.2), grid.n))


def _sine(grid):
    return ts.convolution_kernel(sine_wound(grid))


DISPATCH = {
    "step-2d": (lambda g, tmp: (_gaussian(g), ts.step_potential(g)), 2, (1,)),
    # non-symmetric: its +-k pairs are complex blocks of order n
    "sine-2d": (lambda g, tmp: (_sine(g), ts.step_potential(g)), 2, (1,)),
    "constant-2d": (lambda g, tmp: (_gaussian(g), ts.constant_potential(g, 0.3)), 2, (0, 1)),
    "constant-1d": (lambda g, tmp: (_gaussian(g), ts.constant_potential(g, 0.3)), 1, (0,)),
    "step-1d": (lambda g, tmp: (_gaussian(g), ts.step_potential(g)), 1, ()),
    "cosine-2d": (lambda g, tmp: (_gaussian(g), ts.cosine_potential(g)), 2, ()),
    "modulated-2d": (lambda g, tmp: (ts.modulated_convolution(
        ts.wind_kernel(ts.gaussian_kernel(2, 0.2), g.n), 0.3), ts.constant_potential(g, 0.3)), 2, ()),
    "csv-convolution": (lambda g, tmp: (_csv_kernel(g, _gaussian(g).rows(), tmp),
                                        ts.constant_potential(g, 0.3)), 1, (0,)),
    "csv-random": (lambda g, tmp: (_csv_kernel(g, np.random.default_rng(3).uniform(0.5, 1.5, (g.n, g.n)), tmp),
                                   ts.constant_potential(g, 0.3)), 1, ()),
}


@pytest.mark.parametrize("name", sorted(DISPATCH))
def test_only_invariant_models_take_blocks(name, tmp_path, monkeypatch):
    build, dimension, axes = DISPATCH[name]
    grid = ts.TorusGrid(dimension, 8)
    kernel, potential = build(grid, tmp_path)
    generator = ts.assemble_generator(kernel, potential)
    assert generator.invariant_axes == axes
    shapes = []
    for solver in ("eigvals", "eigvalsh"):
        def recorded(a, _real=getattr(np.linalg, solver)):
            shapes.append(a.shape)
            return _real(a)

        monkeypatch.setattr(np.linalg, solver, recorded)
    ts.full_spectrum(generator)
    blocks, order = grid.n ** len(axes), grid.size // grid.n ** len(axes)
    if axes:
        own = 2 ** len(axes)  # k_a in {0, n/2} on every axis, n even
        assert shapes == [(own, order, order), ((blocks - own) // 2, order, order)]
    else:
        assert shapes == [(grid.size, grid.size)]
    assert block_shape(generator) == (blocks, order, max(shape[-1] for shape in shapes))
    shapes.clear()
    report = ts.analyze(kernel, potential)  # on the reflection's sectors where its model has a point
    largest = max(shape[-1] for shape in shapes)
    assert report.diagnostics["qr"] == {"blocks": blocks, "block_order": order, "largest_order": largest}


def test_hand_built_matrix_stays_dense():
    grid, kernel, potential = make_f3(n=16)
    generator = ts.assemble_generator(kernel, ts.constant_potential(grid, 0.3))
    assert generator.invariant_axes == (0,)
    bare = ts.OperatorMatrix(generator.data, grid)
    assert bare.invariant_axes == ()


# the smallest grids; one run of slabs; runs of 114 rows, the last of them one row long
@pytest.mark.parametrize("dimension, n", [(1, 2), (2, 2), (1, 3), (2, 6), (1, 572)])
def test_shift_test_finds_one_ulp_in_any_slab(dimension, n):
    grid = ts.TorusGrid(dimension, n)
    samples = _gaussian(grid).rows()
    assert _invariant_axes(samples, grid) == tuple(range(dimension))
    last, run = grid.size - 1, max(1, SYMMETRY_TILE**2 * n // samples.size)
    for i, j in ((0, 0), (0, last), (last // 3, last // 2), (last, 0), (last, last),
                 (min(run, last), 0), (min(run, last) - 1, last)):
        bent = samples.copy()
        bent[i, j] = np.nextafter(bent[i, j], np.inf)
        assert _invariant_axes(bent, grid) == ()


def test_shift_test_builds_no_array_of_the_kernel_size():
    grid = ts.TorusGrid(2, 32)
    samples = _gaussian(grid).rows()
    tracemalloc.start()
    try:
        assert _invariant_axes(samples, grid) == (0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= samples.nbytes / grid.n  # one slab


def test_invariant_kernels_have_exactly_invariant_jump_rates():
    grid, kernel, potential = make_f3()
    assert kernel.w.min() == kernel.w.max()
    assert len(ts.essential_spectrum(kernel, potential)) == 2
    grid = ts.TorusGrid(2, 48)
    kernel = _gaussian(grid)
    assert kernel.w.min() == kernel.w.max()
    assert len(ts.essential_spectrum(kernel, ts.step_potential(grid))) == 2


def test_row_sums_of_an_invariant_kernel_take_one_slab(monkeypatch):
    # W, the generator's diagonal and the column integrals: one slab row each
    grid = ts.TorusGrid(2, 8)
    wound = ts.wind_kernel(ts.gaussian_kernel(2, 0.2), grid.n)
    shapes = []

    def recorded(*args, _real=ts.kernels.slab_rows):
        rows = _real(*args)
        shapes.append(rows.shape)
        return rows

    monkeypatch.setattr(ts.kernels, "slab_rows", recorded)
    kernel = ts.convolution_kernel(wound)
    ts.assemble_generator(kernel, ts.step_potential(grid))
    ts.kernel_stats(kernel)
    assert shapes == [(1, 1, grid.size)] * 3


def test_check_kernel_reports_one_jump_rate_for_a_gaussian(tmp_path):
    config = ts.load_config(str(FIXTURE_DIR / "f3.json"))
    assert run_command("check-kernel", config, str(tmp_path)) == 0
    rates = json.loads((tmp_path / "kernel_check.json").read_text())["jump_rate"]
    assert rates["min"] == rates["max"]


def test_two_dimensional_limit_agrees_with_the_whole_matrix():
    grid = ts.TorusGrid(2, 48)
    generator = ts.assemble_generator(_gaussian(grid), ts.step_potential(grid))
    assert generator.invariant_axes == (1,) and generator.symmetric
    diagonal = np.diagonal(generator.data).reshape(48, 48)
    assert np.array_equal(diagonal, np.broadcast_to(diagonal[:, :1], diagonal.shape))
    blocks = ts.full_spectrum(generator)
    dense = ts.full_spectrum(_dense(generator))
    assert abs(blocks[0] - dense[0]) <= 1e-13
    assert np.abs(blocks - dense).max() <= 1e-12


def test_deep_constant_potential_is_exact_on_scalar_blocks():
    grid = ts.TorusGrid(1, 16)
    potential = ts.constant_potential(grid, 1e9)
    report = ts.analyze(ts.constant_kernel(grid), potential)
    assert set(report.lambda_by_method.values()) == {-1e9}
    assert report.diagnostics["qr"]["blocks"] == 16
    modulated = ts.modulated_convolution(ts.wind_kernel(ts.gaussian_kernel(1, 0.2), 16), 0.2)
    with pytest.raises(ts.NotConverged, match="ground-state residual"):
        ts.analyze(modulated, potential)  # the whole-matrix limit the README states


# -- the Perron methods on the Bloch fibre k = 0 of the reduced model ----------


def _fibre_case(seed, axis, kernel_kind, n=12):
    """A 2-D model whose potential varies only along ``axis``, so the
    generator is invariant along the other axis."""
    grid = ts.TorusGrid(2, n)
    rng = np.random.default_rng(seed)
    if kernel_kind == "gaussian":
        kernel = _gaussian(grid)
    else:
        kernel = ts.convolution_kernel(ts.WoundKernel(grid, rng.random((n, n)) + 0.1))
    profile = -rng.uniform(0.0, 2.0, n)
    shape = [1, 1]
    shape[axis] = n
    field = np.broadcast_to(profile.reshape(shape), (n, n))
    return grid, kernel, ts.Potential(grid, field.ravel())


@pytest.mark.parametrize("kernel_kind", ["gaussian", "random"])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("seed", range(4))
def test_fibre_agrees_with_the_whole_model(seed, axis, kernel_kind):
    grid, kernel, potential = _fibre_case(seed, axis, kernel_kind)
    invariant = (1 - axis,)
    options = ts.AnalysisOptions()
    generator = ts.assemble_generator(kernel, potential)
    assert generator.invariant_axes == invariant
    assert kernel.symmetric is (kernel_kind == "gaussian")

    report = ts.analyze(kernel, potential, options)
    assert report.diagnostics["perron_order"] == grid.n
    whole = [np.linalg.eigvals(generator.data).real.max(), ts.max_eigenvalue_shifted_power(generator, options).rho]
    assert max(abs(report.max_eigenvalue - lam) for lam in whole) <= options.cross_tol
    assert report.diagnostics["ground_state_residual"] <= options.residual_tol
    assert report.diagnostics["adjoint_state_residual"] <= options.residual_tol
    for state in (report.ground_state, report.adjoint_ground_state):
        assert state.shape == (grid.size,) and state.min() > 0.0
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-14
        field = state.reshape(grid.n, grid.n)
        assert np.array_equal(field, np.broadcast_to(field[grid.origin_slab(invariant)], field.shape))


# the fibre's even sector under x -> 3/8 - x; one mode; the even sector under x -> 7/16 - x
FIBRE_ORDERS = {
    "step-2d": (lambda: ts.TorusGrid(2, 8), ts.step_potential, 4),
    "constant-2d": (lambda: ts.TorusGrid(2, 8), lambda g: ts.constant_potential(g, 0.3), 1),
    "step-1d": (lambda: ts.TorusGrid(1, 16), ts.step_potential, 8),
}


@pytest.mark.parametrize("name", sorted(FIBRE_ORDERS))
def test_perron_methods_run_on_the_fibre_only_when_it_is_smaller(name, monkeypatch):
    make_grid, make_potential, order = FIBRE_ORDERS[name]
    grid = make_grid()
    kernel, potential = _gaussian(grid), make_potential(grid)
    orders = []

    def perron(a, *args, _real=ts.spectral.perron, **kwargs):
        orders.append(a.shape[0])
        return _real(a, *args, **kwargs)

    def assemble(*args, _real=ts.spectral.assemble_birman_schwinger, **kwargs):
        matrix = _real(*args, **kwargs)
        orders.append(matrix.data.shape[0])
        return matrix

    monkeypatch.setattr(ts.spectral, "perron", perron)
    monkeypatch.setattr(ts.spectral, "assemble_birman_schwinger", assemble)
    report = ts.analyze(kernel, potential)
    assert orders and set(orders) == {order}
    assert report.diagnostics["perron_order"] == order
    assert report.ground_state.shape == (grid.size,)


def _bloch_block(rows, axis):
    """The Bloch block k = 0 from the rows x_S = 0, S = (axis,), of a 2-D matrix, summed plainly."""
    n = rows.shape[0]
    return rows.reshape(n, n, n).sum(axis=1 + axis)


def test_the_reduced_model_folds_the_slab_rows_in_mirror_pairs():
    grid = ts.TorusGrid(2, 32)
    kernel, potential = _gaussian(grid), ts.step_potential(grid)
    assert ts.ReducedModel(kernel, ts.cosine_potential(grid)).order == 514  # S = (), s = 0: n^2/2 + 2
    assert ts.ReducedModel(kernel, ts.constant_potential(grid, 0.3)).order == 1  # S = (0, 1)
    model = ts.ReducedModel(kernel, potential)
    assert (model.axes, model.point, model.order) == ((1,), (15,), 16)
    rows = grid.weight * kernel.rows((1,))
    tracemalloc.start()
    try:
        sector = model.fold(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * rows.nbytes / grid.n  # four arrays of the Bloch block's size, no copy of the rows
    block = _bloch_block(rows, 1)
    least = np.r_[0:8, 16:24]  # the orbits {x, 15 - x mod 32}, by their least node
    assert np.allclose(sector, block[np.ix_(least, least)] + block[np.ix_(least, (15 - least) % 32)], rtol=1e-14, atol=0)
    assert np.array_equal(sector, sector.T)  # symmetric bit for bit, as the kernel is
    assert np.array_equal(model.nodes, least * 32)
    assert np.array_equal(model.denominator, (kernel.w - potential.samples)[model.nodes])
    with pytest.raises(ts.DimensionMismatch, match="32 rows"):  # the whole matrix is not its slab rows
        model.reduce(ts.assemble_generator(kernel, potential))


def test_the_fibre_along_a_leading_axis_is_folded_from_the_rows():
    n = 24  # neither 1/n nor the pairwise sum of n terms is exact
    grid = ts.TorusGrid(2, n)
    rng = np.random.default_rng(24)
    kernel = ts.convolution_kernel(ts.WoundKernel(grid, rng.uniform(0.1, 1.0, (n, n))))
    potential = ts.Potential(grid, np.broadcast_to(-rng.uniform(0.0, 2.0, n), (n, n)).ravel())
    model = ts.ReducedModel(kernel, potential)
    assert (model.axes, model.point, model.order) == ((0,), None, n) and not kernel.symmetric
    rows = kernel.rows((0,))  # the slab rows x_0 = 0
    fibre = model.fold(rows)
    assert np.allclose(fibre, _bloch_block(rows, 0), rtol=1e-14, atol=0)
    assert not _is_symmetric(fibre)
    assert _invariant_axes(fibre, ts.TorusGrid(1, n)) == (0,)  # a convolution kernel on the fibre
    assert np.array_equal(model.denominator, (kernel.w - potential.samples)[: n])


FOLDED = {  # (kernel, potential), axes S, reflection point, order
    "fibre-2d": (lambda g: (_gaussian(g), ts.step_potential(g)), (2, 16), (1,), (7,), 8),
    "constant-2d": (lambda g: (_gaussian(g), ts.constant_potential(g, 1.0)), (2, 16), (0, 1), None, 1),
    "sector-fixed-1d": (lambda g: (_gaussian(g), ts.step_potential(g)), (1, 18), (), (8,), 10),
    "sector-1d": (lambda g: (_gaussian(g), ts.step_potential(g)), (1, 64), (), (31,), 32),
    "tophat-1d": (lambda g: (ts.convolution_kernel(ts.wind_kernel(ts.tophat_kernel(1, 0.125), g.n)),
                             ts.step_potential(g)), (1, 64), (), None, 64),
    "modulated-2d": (lambda g: (ts.modulated_convolution(ts.wind_kernel(ts.gaussian_kernel(2, 0.2), g.n), 0.3),
                                ts.step_potential(g)), (2, 8), (), None, 64),
}


@pytest.mark.parametrize("name", sorted(FOLDED))
def test_the_reduced_matrices_are_folds_of_the_rows_bit_for_bit(name):
    build, shape, axes, point, order = FOLDED[name]
    kernel, potential = build(ts.TorusGrid(*shape))
    model = ts.ReducedModel(kernel, potential)
    assert (model.axes, model.point, model.order) == (axes, point, order)
    generator = ts.assemble_generator(kernel, potential, axes)
    assert np.array_equal(model.reduce(generator).data, model.fold(generator.data))
    assert np.array_equal(model.kernel_part, model.fold(kernel.grid.weight * kernel.rows(axes)))


@pytest.mark.parametrize("name", sorted(FOLDED))
def test_lifting_a_stack_lifts_each_state_bit_for_bit(name):
    build, shape, _, _, order = FOLDED[name]
    grid = ts.TorusGrid(*shape)
    model = ts.ReducedModel(*build(grid))
    stack = np.random.default_rng(order).uniform(0.5, 1.5, (7, order))
    lifted = model.lift(stack)
    if order == grid.size:  # unreduced: the stack itself
        assert lifted is stack
        return
    assert lifted.shape == (7, grid.size) and lifted.flags.c_contiguous
    for c, u in zip(stack, lifted):
        assert u.tobytes() == model.lift(c).tobytes()
        assert u.tobytes() == (c if model.scale is None else c / model.scale)[model.orbit].tobytes()
    assert (name == "sector-fixed-1d") == (model.scale is not None)


def _wrong_length(potential):
    grid = ts.TorusGrid(1, 8)
    kernel = _gaussian(grid)
    model = ts.ReducedModel(kernel, ts.Potential(grid, potential(grid)))
    return model, ts.assemble_generator(kernel, model.potential, model.axes).data


@pytest.mark.parametrize("potential, order", [
    (lambda g: ts.step_potential(g).samples, 4),
    (lambda g: -np.linspace(0.0, 1.0, g.n) ** 2, 8),  # no reflection: unreduced
], ids=["step", "unreduced"])
@pytest.mark.parametrize("call", [
    lambda model, rows: model.lift(np.arange(6.0)),
    lambda model, rows: model.lift(np.arange(5.0)),
    lambda model, rows: model.lift(np.arange(3.0)),
    lambda model, rows: model.lift(np.zeros((model.order, 5))),  # a stack takes states along its last axis
    lambda model, rows: model.fold(rows, np.array([5.0])),
    lambda model, rows: model.fold(rows, np.array([1.0, 2.0])),
], ids=["lift-6", "lift-5", "lift-3", "lift-stack", "fold-1", "fold-2"])
def test_lift_and_fold_refuse_arrays_of_the_wrong_length(potential, order, call):
    model, rows = _wrong_length(potential)
    assert model.order == order
    with pytest.raises(ts.DimensionMismatch):
        call(model, rows)


@pytest.mark.parametrize("command", ["analyze", "check-kernel"])
def test_an_invariant_convolution_model_forms_no_array_of_the_kernels_size(command, tmp_path):
    raw = {"dimension": 2, "grid_n": 8, "kernel": {"family": "gaussian", "sigma": 0.2},
           "potential": {"family": "step"}}
    assert run_command(command, ts.config_from_dict(raw), str(tmp_path)) == 0  # loads what numpy loads lazily
    raw["grid_n"] = 24
    config = ts.config_from_dict(raw)
    tracemalloc.start()
    try:  # the kernel is built inside the command
        assert run_command(command, config, str(tmp_path)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 8 * (24**2) ** 2  # a quarter of one N x N array


# -- the generator's slab rows --------------------------------------------------


def _slab_case(axes, kernel_kind, n=16):
    """A 2-D model invariant along ``axes``: a ``step`` for (1,), a potential
    that varies along axis 1 only for (0,)."""
    grid = ts.TorusGrid(2, n)
    rng = np.random.default_rng(n)
    if kernel_kind == "gaussian":
        kernel = _gaussian(grid)
    else:
        kernel = ts.convolution_kernel(ts.WoundKernel(grid, rng.random((n, n)) + 0.1))
    if axes == (1,):
        potential = ts.step_potential(grid)
    else:
        profile = -rng.uniform(0.0, 2.0, n)
        potential = ts.Potential(grid, np.broadcast_to(profile, (n, n)).ravel())
    assert model_axes(kernel, potential) == axes and kernel.symmetric is (kernel_kind == "gaussian")
    return grid, kernel, potential


SLAB_CASES = [((1,), "gaussian"), ((1,), "random"), ((0,), "gaussian"), ((0,), "random")]


def _whole_generator(kernel, potential):
    """The reference: the whole generator filled in place, as before the slab-row routine."""
    data = kernel.grid.weight * kernel.rows()
    np.fill_diagonal(data, 0.0)
    np.fill_diagonal(data, potential.samples - ts.kernels.slab_row_sums(data, kernel))
    return data


@pytest.mark.parametrize("axes, kernel_kind", SLAB_CASES)
def test_slab_rows_give_the_whole_generators_spectrum_bit_for_bit(axes, kernel_kind):
    grid, kernel, potential = _slab_case(axes, kernel_kind)
    whole = ts.assemble_generator(kernel, potential)
    rows = ts.assemble_generator(kernel, potential, axes)
    assert rows.data.shape == (grid.n, grid.size) and rows.slab_axes == axes
    assert whole.slab_axes == () and whole.invariant_axes == axes
    assert whole.data.tobytes() == _whole_generator(kernel, potential).tobytes()
    slab = whole.data.reshape(grid.slab_shape(()) + (grid.size,))[grid.origin_slab(axes)]
    assert rows.data.tobytes() == np.ascontiguousarray(slab).tobytes()
    assert ts.full_spectrum(rows).tobytes() == ts.full_spectrum(whole).tobytes()
    assert block_shape(rows) == block_shape(whole) == (grid.n, grid.n, grid.n)
    even = ts.ReducedModel(kernel, potential).reduce(rows)
    assert ts.full_spectrum(rows, even=even).tobytes() == ts.full_spectrum(whole, even=even).tobytes()


@pytest.mark.parametrize("axes, kernel_kind", SLAB_CASES)
def test_slab_row_residuals_match_the_whole_matrix(axes, kernel_kind):
    grid, kernel, potential = _slab_case(axes, kernel_kind)
    report = ts.analyze(kernel, potential)
    whole = ts.assemble_generator(kernel, potential).data
    lam, psi, phi = report.max_eigenvalue, report.ground_state, report.adjoint_ground_state
    references = (np.linalg.norm(whole @ psi - lam * psi), np.linalg.norm(whole.T @ phi - lam * phi))
    measured = (report.diagnostics["ground_state_residual"], report.diagnostics["adjoint_state_residual"])
    for residual, reference in zip(measured, references):
        assert abs(residual - reference) <= max(1e-3 * reference, 1e-15)


def test_analyze_forms_only_the_slab_rows_of_an_invariant_generator():
    small = ts.TorusGrid(2, 8)
    ts.analyze(_gaussian(small), ts.step_potential(small))  # loads what numpy loads lazily
    grid = ts.TorusGrid(2, 24)
    kernel, potential = _gaussian(grid), ts.step_potential(grid)
    tracemalloc.start()
    try:
        report = ts.analyze(kernel, potential)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each block on its two sectors: s = 11 fixes no node
    assert report.diagnostics["qr"] == {"blocks": grid.n, "block_order": grid.n, "largest_order": grid.n // 2}
    assert peak <= 0.25 * kernel.rows().nbytes


def test_slab_rows_of_a_non_square_matrix_need_invariant_axes():
    grid, kernel, potential = _slab_case((1,), "gaussian")
    rows = ts.assemble_generator(kernel, potential, (1,)).data
    with pytest.raises(ts.DimensionMismatch, match="slab rows"):
        ts.OperatorMatrix(rows, grid)
    with pytest.raises(ts.DimensionMismatch, match="slab rows"):
        ts.OperatorMatrix(rows[:-1], grid, invariant_axes=(1,))
    with pytest.raises(ts.DimensionMismatch):  # a shift needs the square matrix
        ts.OperatorMatrix(rows, grid, invariant_axes=(1,)).shifted(1.0)


def _slab_generator():
    """The generator of a 2-D n = 8 Gaussian with a ``step``, held as its 8 slab rows of 64 columns."""
    grid = ts.TorusGrid(2, 8)
    generator = ts.ReducedModel(_gaussian(grid), ts.step_potential(grid)).generator
    assert generator.data.shape == (8, 64)
    return generator


@pytest.mark.parametrize("method", ["rk4", "eigenexpansion"])
def test_evolve_refuses_the_slab_rows_of_a_generator(method):
    # rk4 ended in a raw matmul ValueError, eigenexpansion in QRNotConverged
    with pytest.raises(ts.DimensionMismatch, match="not slab rows: use ReducedModel.reduce"):
        ts.evolve(_slab_generator(), np.ones(64), t_max=1.0, method=method)


def test_the_shifted_power_refuses_the_slab_rows_of_a_generator():
    # the shift ended in "operator matrix must be square, or hold its slab rows", which these rows do
    with pytest.raises(ts.DimensionMismatch, match="shifted takes the square matrix, not slab rows"):
        ts.max_eigenvalue_shifted_power(_slab_generator())


@pytest.mark.parametrize("method", ["rk4", "eigenexpansion"])
def test_cli_evolve_runs_on_the_fibre(method, tmp_path, monkeypatch):
    raw = {"dimension": 2, "grid_n": 16, "kernel": {"family": "gaussian", "sigma": 0.2},
           "potential": {"family": "step"}, "evolution": {"method": method}}
    orders = []

    def evolve(generator, *args, _real=ts.cli.evolve, **kwargs):
        orders.append(generator.data.shape[0])
        return _real(generator, *args, **kwargs)

    monkeypatch.setattr(ts.cli, "evolve", evolve)
    config = ts.config_from_dict(raw)
    assert run_command("evolve", config, str(tmp_path)) == 0
    assert orders == [8]  # the fibre's even sector under x -> 7/16 - x
    summary = json.loads((tmp_path / "evolution.json").read_text())
    assert summary["order"] == 8
    trace = np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=1)

    grid = ts.TorusGrid(2, 16)
    generator = ts.assemble_generator(_gaussian(grid), ts.step_potential(grid))
    whole = ts.evolve(generator, np.ones(grid.size), t_max=summary["t_max"], method=method)
    for column, norms in zip(trace.T[1:], (whole.l2_norms, whole.sup_norms, whole.masses)):
        assert np.allclose(column, norms, rtol=1e-10, atol=0)
    estimate = ts.max_eigenvalue_shifted_power(generator, config.analysis).rho
    assert abs(summary["lambda_estimate"] - estimate) <= config.analysis.cross_tol

    raw["potential"] = {"family": "cosine"}  # no invariant axis: the even sector under x -> -x
    assert run_command("evolve", ts.config_from_dict(raw), str(tmp_path)) == 0
    assert orders == [8, 130]
    assert json.loads((tmp_path / "evolution.json").read_text())["order"] == 130


ONE_MODE = {  # invariant along every axis: u0 = 1 stays constant, and the trace is exp(lambda t)
    "f1": {"dimension": 1, "grid_n": 128, "kernel": {"family": "constant"},
           "potential": {"family": "constant", "depth": 0.3}},
    "gauss2d": {"dimension": 2, "grid_n": 16, "kernel": {"family": "gaussian", "sigma": 0.2},
                "potential": {"family": "constant", "depth": 0.3}},
}


@pytest.mark.parametrize("method", ["rk4", "eigenexpansion"])
@pytest.mark.parametrize("name", sorted(ONE_MODE))
def test_a_model_invariant_along_every_axis_has_order_one(name, method, tmp_path):
    # t_max 10: RK4's own error, about |lambda| t (h lambda)^4 / 120, is 5e-13 there
    # and 1e-11 at the default horizon 40/|lambda|
    raw = {**ONE_MODE[name], "evolution": {"method": method, "t_max": 10.0}}
    config = ts.config_from_dict(raw)
    assert run_command("evolve", config, str(tmp_path)) == 0
    summary = json.loads((tmp_path / "evolution.json").read_text())
    assert summary["order"] == 1 and abs(summary["lambda_estimate"] + 0.3) <= 1e-15
    times, l2 = np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=1).T[:2]
    assert np.max(np.abs(l2 / np.exp(summary["lambda_estimate"] * times) - 1.0)) <= 1e-12
    grid = config.build_grid()
    report = ts.analyze(config.build_kernel(grid), config.build_potential(grid))
    assert report.diagnostics["perron_order"] == 1


@pytest.mark.parametrize("family", [ts.gaussian_kernel, ts.exponential_kernel])
@pytest.mark.parametrize("n", [15, 16, 24, 48, 64])
def test_the_fibre_of_a_symmetric_kernel_is_symmetric(family, n):
    grid = ts.TorusGrid(2, n)
    kernel = ts.convolution_kernel(ts.wind_kernel(family(2, 0.2), n))
    assert kernel.symmetric
    step = ts.step_potential(grid).samples.reshape(n, n)
    for potential in (ts.Potential(grid, step), ts.Potential(grid, step.T)):  # S = (1,), (0,)
        model = ts.ReducedModel(kernel, potential)
        generator = model.reduce(ts.assemble_generator(kernel, potential, model.axes))
        assert model.point is not None and generator.symmetric
        for matrix in (generator.data, model.kernel_part):
            assert np.array_equal(matrix, matrix.T)
