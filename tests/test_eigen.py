"""Perron iteration, certificates, dense spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import torspec as ts
from torspec.eigen import ROUNDING_ULPS, _start_vector, block_shape
from conftest import make_f1, make_f2, make_f3, make_f4, sine_wound, two_level_eigenvalue_oracle, whole_ratio_operator

_MASK = 2**64 - 1


def _mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _splitmix64_start(order, seed):
    """Reference start vector in Python integers: the top 52 bits of the
    splitmix64 stream keyed by the mixed seed, shifted into [0.5, 1.5)."""
    key = _mix64(seed % 2**64)
    return np.array([0.5 + (_mix64((key + i * 0x9E3779B97F4A7C15) & _MASK) >> 12) * 2.0**-52
                     for i in range(1, order + 1)])


def test_perron_rank_one_doubly_stochastic():
    result = ts.perron(np.full((4, 4), 0.25))
    assert abs(result.rho - 1.0) < 1e-12
    assert np.allclose(result.vector, 0.5, rtol=0, atol=1e-12)
    assert result.cw_lower <= result.rho <= result.cw_upper
    assert result.cw_upper - result.cw_lower <= 1e-11


def test_perron_ratio_operator_closed_form():
    grid, kernel, potential = make_f1(n=64)
    result = ts.perron(whole_ratio_operator(kernel, potential, 0.0))
    assert abs(result.rho - 1.0 / 1.3) < 1e-11
    assert result.vector.min() > 0


def test_perron_rejects_negative_entries():
    with pytest.raises(ts.NegativeEntry):
        ts.perron(np.array([[1.0, -0.1], [0.0, 1.0]]))


def test_perron_start_equal_to_seeded_vector_is_bit_identical():
    rng = np.random.default_rng(9)
    mat = rng.uniform(0.1, 1.0, size=(10, 10))
    seeded = ts.perron(mat, seed=3)
    started = ts.perron(mat, start=_splitmix64_start(10, 3))
    assert started.rho == seeded.rho
    assert started.iterations == seeded.iterations
    assert np.array_equal(started.vector, seeded.vector)


def test_start_vector_is_splitmix64_in_half_open_unit_band():
    seeds = (0, 1, 2, 3, 2**63, 2**64 - 1, 2**64, 2**64 + 3, 10**30)
    with np.errstate(all="raise"):  # the CLI runs under these traps
        vectors = {seed: _start_vector(4096, seed) for seed in seeds}
    for seed, v in vectors.items():
        assert v.dtype == np.float64 and v.shape == (4096,)
        assert v.min() >= 0.5 and v.max() < 1.5
        assert np.array_equal(v[:16], _splitmix64_start(16, seed))
    # distinct seeds mod 2**64 give distinct vectors, not shifted copies
    distinct = [vectors[seed] for seed in seeds if seed < 2**64 or seed == 10**30]
    for i, a in enumerate(distinct):
        for b in distinct[i + 1:]:
            assert not np.any(np.isin(a[:64], b))
    assert np.array_equal(vectors[2**64], vectors[0])
    assert np.array_equal(vectors[2**64 + 3], vectors[3])


def test_perron_tolerance_below_rounding_stops_at_the_rounding_floor():
    mat = np.random.default_rng(9).uniform(0.1, 1.0, size=(10, 10))
    result = ts.perron(mat, tol=0.0, max_iter=2000)
    assert result.iterations < 2000
    assert result.cw_upper - result.cw_lower <= 4 * np.spacing(result.cw_upper)
    assert result.cw_lower <= result.rho <= result.cw_upper


def test_perron_row_scale_matches_scaled_matrix():
    rng = np.random.default_rng(5)
    mat = rng.uniform(0.1, 1.0, size=(16, 16))
    scale = rng.uniform(0.5, 2.0, size=16)
    free = ts.perron(mat, tol=1e-12, scale=scale)
    dense = ts.perron(scale[:, None] * mat, tol=1e-12)
    assert free.cw_lower <= free.rho <= free.cw_upper
    assert abs(free.rho - dense.rho) < 1e-11
    assert np.allclose(free.vector, dense.vector, atol=1e-9)


def test_perron_rejects_non_positive_start_and_scale():
    mat = np.ones((3, 3))
    with pytest.raises(ts.NonPositiveVector):
        ts.perron(mat, start=np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ts.NegativeEntry):
        ts.perron(mat, scale=np.array([1.0, 0.0, 1.0]))


def test_perron_takes_a_list_scale_as_it_takes_a_list_start():
    # a list scale ended in a raw AttributeError ("'list' object has no attribute 'min'")
    mat = np.ones((3, 3))
    assert ts.perron(mat, scale=[1.0, 1.0, 1.0]).rho == ts.perron(mat, start=[1.0, 1.0, 1.0]).rho == 3.0
    with pytest.raises(ts.DimensionMismatch, match=r"scale must have length 3, got shape \(2,\)"):
        ts.perron(mat, scale=[1.0, 1.0])
    for bad in ([1.0, 0.0, 1.0], [1.0, -1.0, 1.0], [1.0, math.nan, 1.0]):
        with pytest.raises(ts.NegativeEntry, match="row scale must be positive"):
            ts.perron(mat, scale=bad)


@pytest.mark.parametrize("argument, message", [
    ({"a": np.ones((3, 4))}, r"square matrix, got shape \(3, 4\): use ReducedModel.reduce"),
    ({"a": np.ones(3)}, r"square matrix, got shape \(3,\)"),
    ({"start": np.ones(4)}, r"start must have length 3, got shape \(4,\)"),
    ({"scale": np.ones((3, 1))}, r"scale must have length 3, got shape \(3, 1\)"),
], ids=["slab-rows", "vector", "start", "scale"])
def test_perron_refuses_arrays_of_the_wrong_shape(argument, message):
    # each ended in a raw numpy ValueError
    argument = {"a": np.ones((3, 3)), **argument}
    with pytest.raises(ts.DimensionMismatch, match=message):
        ts.perron(argument.pop("a"), max_iter=50, **argument)


@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_perron_refuses_a_tolerance_that_is_not_nonnegative(tol):
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        ts.perron(np.ones((3, 3)), tol=tol, max_iter=50)


@pytest.mark.parametrize("argument", [
    {"max_iter": 0}, {"max_iter": -3}, {"max_iter": 2.5}, {"max_iter": np.float64(50.0)}, {"seed": 1.5},
], ids=["max_iter-0", "max_iter-negative", "max_iter-float", "max_iter-numpy-float", "seed-float"])
def test_perron_refuses_a_cap_or_seed_that_is_not_an_integer(argument):
    # a cap below one ended in NotConverged, a float cap in a bare TypeError,
    # and a float seed ran silently on its integer part's stream
    with pytest.raises(ValueError, match="max_iter must be a positive integer and seed an integer"):
        ts.perron(np.ones((3, 3)), **argument)


def test_perron_zero_row_does_not_certify():
    mat = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ts.NotConverged):
        ts.perron(mat, max_iter=50)


def test_perron_iterate_vanishes_on_a_nilpotent_matrix():
    with pytest.raises(ts.NotConverged, match="iterate vanished; matrix is not primitive"):
        ts.perron(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_perron_certificates_on_random_nonnegative_matrices():
    rng = np.random.default_rng(11)
    for _ in range(5):
        mat = rng.uniform(0.1, 1.0, size=(20, 20))
        result = ts.perron(mat, tol=1e-12)
        assert result.cw_lower <= result.rho <= result.cw_upper
        assert result.cw_upper - result.cw_lower <= 1e-12
        assert result.vector.min() > 0
        oracle = max(np.linalg.eigvals(mat).real)
        assert abs(result.rho - oracle) < 1e-10


def test_perron_overflow_is_a_floating_point_failure():
    mat = np.random.default_rng(3).uniform(0.5, 1.5, size=(10, 10))
    with np.errstate(over="ignore"), pytest.raises(ts.FloatingPointFailure, match="overflowed"):
        ts.perron(1e200 * mat)


@st.composite
def positive_matrices(draw):
    """Orders 2-12, entries in [0.01, 1]: an entry ratio of at most 100 keeps
    Birkhoff's contraction ratio below 99/101, so every draw converges."""
    order = draw(st.integers(2, 12))
    return draw(hnp.arrays(float, (order, order), elements=st.floats(0.01, 1.0)))


@settings(max_examples=200)
@given(positive_matrices())
def test_perron_bounds_bracket_the_root_and_lapack(mat):
    """The Collatz-Wielandt bounds bracket the Rayleigh root and LAPACK's
    spectral radius.  Slack: ``ROUNDING_ULPS`` spacings for the rounding of
    the ratios and dot products, plus LAPACK's own eigenvalue error, of
    order eps * order * ||A||_F (a constant matrix of 0.01s is already
    5 spacings off)."""
    result = ts.perron(mat)
    lower = result.cw_lower - ROUNDING_ULPS * np.spacing(result.cw_lower)
    upper = result.cw_upper + ROUNDING_ULPS * np.spacing(result.cw_upper)
    assert lower <= result.rho <= upper
    lapack = float(np.abs(np.linalg.eigvals(mat)).max())
    slack = len(mat) * np.finfo(float).eps * np.linalg.norm(mat)
    assert lower - slack <= lapack <= upper + slack


def test_adjoint_perron_symmetric_agrees():
    rng = np.random.default_rng(4)
    raw = rng.uniform(0.1, 1.0, size=(12, 12))
    mat = 0.5 * (raw + raw.T)
    forward = ts.perron(mat)
    backward = ts.perron(mat.T)
    assert abs(forward.rho - backward.rho) < 1e-11
    assert np.allclose(forward.vector, backward.vector, atol=1e-6)


def test_adjoint_perron_nonsymmetric_same_radius():
    # non-constant denominators break the circulant symmetry, so the adjoint
    # eigenvector genuinely differs while the radius coincides
    grid = ts.TorusGrid(1, 32)
    kernel = ts.convolution_kernel(sine_wound(grid))
    q = ts.assemble_birman_schwinger(ts.ReducedModel(kernel, ts.step_potential(grid)), 0.0)
    forward = ts.perron(q.data)
    backward = ts.perron(q.data.T)
    assert abs(forward.rho - backward.rho) < 1e-10
    assert not np.allclose(forward.vector, backward.vector, atol=1e-6)


def test_perron_rank_one_outer_product():
    grid = ts.TorusGrid(1, 16)
    rng = np.random.default_rng(9)
    profile = rng.uniform(0.5, 2.0, 16)
    mat = np.outer(profile, np.ones(16)) * grid.weight
    result = ts.perron(mat)
    assert abs(result.rho - profile.sum() * grid.weight) < 1e-11
    adjoint = ts.perron(mat.T)
    assert abs(adjoint.rho - result.rho) < 1e-10
    assert np.allclose(adjoint.vector, 0.25, atol=1e-8)  # constant, unit norm


def test_collatz_wielandt_bounds():
    mat = np.full((4, 4), 0.25)
    result = ts.perron(mat, start=np.ones(4))
    assert result.cw_lower == result.cw_upper == 1.0
    grid, kernel, potential = make_f1(n=16)
    result = ts.perron(whole_ratio_operator(kernel, potential, 0.0), start=np.ones(16))
    assert abs(result.cw_lower - 1 / 1.3) < 1e-14 and abs(result.cw_upper - 1 / 1.3) < 1e-14
    with pytest.raises(ts.NonPositiveVector):
        ts.perron(mat, start=np.array([1.0, 0.0, 1.0, 1.0]))


@pytest.mark.parametrize("make, n, shift", [
    (make_f1, 32, -0.30000000000000004),
    (make_f1, 128, -0.3000000000000004),
    (make_f2, 8, -0.29289321881345265),
])
def test_perron_root_lies_in_its_certificate(make, n, shift):
    # cold solves on Q at a root-find shift, where the Rayleigh ratio alone
    # rounds one float spacing outside the Collatz-Wielandt bracket
    grid, kernel, potential = make(n=n)
    result = ts.perron(whole_ratio_operator(kernel, potential, shift))
    assert result.cw_lower <= result.rho <= result.cw_upper


def test_full_spectrum_rank_one_fixture():
    grid, kernel, potential = make_f1(n=64)
    gen = ts.assemble_generator(kernel, potential)
    values = ts.full_spectrum(gen)
    assert abs(values[0] - (-0.3)) < 1e-12
    assert np.allclose(values[1:], -1.3, rtol=0, atol=1e-12)
    # ordering: descending real part
    assert np.all(np.diff(values.real) <= 1e-15)


def test_full_spectrum_diagonal_matrix_exact():
    grid = ts.TorusGrid(1, 8)
    diag = np.diag(np.linspace(-2.0, -0.5, 8))
    values = ts.full_spectrum(ts.OperatorMatrix(diag, grid))
    assert np.allclose(sorted(values.real, reverse=True), sorted(np.diagonal(diag), reverse=True),
                       rtol=0, atol=1e-14)
    assert np.all(values.imag == 0.0)


def test_full_spectrum_two_level_fixture_against_scalar_oracle():
    lam_top = two_level_eigenvalue_oracle((-0.999, -1e-6))
    lam_bottom = two_level_eigenvalue_oracle((-1.999, -1.001))
    assert abs(lam_top - (-1 + 1 / np.sqrt(2))) < 1e-12
    assert abs(lam_bottom - (-1 - 1 / np.sqrt(2))) < 1e-12
    grid, kernel, potential = make_f2(n=64)
    values = ts.full_spectrum(ts.assemble_generator(kernel, potential))
    assert abs(values[0] - lam_top) < 1e-10
    assert np.min(np.abs(values - lam_bottom)) < 1e-10
    rest = values[np.abs(values - lam_top) > 1e-9]
    rest = rest[np.abs(rest - lam_bottom) > 1e-9]
    close_to_minus_one = np.abs(rest - (-1.0)) < 1e-10
    close_to_minus_two = np.abs(rest - (-2.0)) < 1e-10
    assert np.all(close_to_minus_one | close_to_minus_two)


def test_full_spectrum_transpose_same_multiset():
    rng = np.random.default_rng(17)
    mat = rng.normal(size=(30, 30))
    grid = ts.TorusGrid(1, 30)
    forward = ts.full_spectrum(ts.OperatorMatrix(mat, grid))
    backward = ts.full_spectrum(ts.OperatorMatrix(mat.T, grid))
    key = lambda z: (round(z.real, 10), round(z.imag, 10))
    assert np.allclose(
        sorted(forward, key=key), sorted(backward, key=key), rtol=0, atol=1e-8
    )


def test_full_spectrum_order_cap():
    with pytest.raises(ts.DimensionMismatch, match="exceeds the cap"):
        ts.full_spectrum(ts.OperatorMatrix(np.eye(10), ts.TorusGrid(1, 10)), order_cap=5)


def test_shifted_spectrum_matches_perron_root():
    grid, kernel, potential = make_f2(n=64)
    gen = ts.assemble_generator(kernel, potential)
    rates = ts.jump_rate(kernel)
    alpha0 = float((rates - potential.samples).max())
    shifted = gen.shifted(alpha0 + 1.0)
    assert np.all(shifted.data >= 0)
    result = ts.perron(shifted.data)
    top = ts.full_spectrum(shifted)[0]
    assert abs(top.imag) < 1e-12
    assert abs(top.real - result.rho) < 1e-10


def test_operator_norm_schur_bound_sine_kernel():
    grid = ts.TorusGrid(1, 64)
    kernel = ts.convolution_kernel(sine_wound(grid))
    stats = ts.kernel_stats(kernel)
    norm = np.linalg.norm(grid.weight * kernel.rows(), 2)
    bound = np.sqrt(stats["row_integral_max"] * stats["col_integral_max"])
    assert norm <= bound * (1 + 1e-8)


def _wound_model(kernel, dimension, n):
    grid = ts.TorusGrid(dimension, n)
    wound = ts.wind_kernel(kernel, n)
    return grid, ts.convolution_kernel(wound), ts.step_potential(grid)


def _f3_step(n, width):
    grid, kernel, _ = make_f3(n=n)
    return grid, kernel, ts.step_potential(grid, 1.0, width)


# each model's solver, then the matrix shapes it takes on the route ``analyze`` takes: a
# model with a point reflection solves its sectors, the even and the odd sector of the
# self-conjugate Bloch blocks along invariant axes and of one block of each +-k pair, or of
# the whole matrix
DISPATCH_MODELS = {
    "f1": (lambda: make_f1(n=32), "eigvalsh", [(2, 1, 1), (15, 1, 1)]),
    "f2": (lambda: make_f2(n=32), "eigvalsh", [(16, 16), (16, 16)]),
    "f3": (lambda: make_f3(n=64), "eigvalsh", [(32, 32), (32, 32)]),
    # a step on 5 of 16 nodes: its reflection fixes two nodes, so the sectors have orders 9 and 7
    "f3-fixing": (lambda: _f3_step(16, 5 / 16), "eigvalsh", [(9, 9), (7, 7)]),
    # Bloch blocks of a kernel even along y_1 too: each block's sectors, s = 7 fixing no node of 16
    "gaussian-2d": (lambda: _wound_model(ts.gaussian_kernel(2, 0.2), 2, 16), "eigvalsh",
                    [(2, 8, 8), (2, 8, 8), (7, 8, 8), (7, 8, 8)]),
    # and s = 4 fixing the nodes 2 and 7 of 10
    "exponential-2d": (lambda: _wound_model(ts.exponential_kernel(2, 0.2), 2, 10), "eigvalsh",
                       [(2, 6, 6), (2, 4, 4), (4, 6, 6), (4, 4, 4)]),
    "f4": (lambda: make_f4(n=32), "eigvals", [(2, 1, 1), (15, 1, 1)]),
    # 2 w n is an integer: the half-open box puts a node on one edge only
    "tophat": (lambda: _wound_model(ts.tophat_kernel(1, 0.125), 1, 64), "eigvals", [(64, 64)]),
}


def _record_solvers(monkeypatch):
    calls = []
    for solver in ("eigvals", "eigvalsh"):
        def recorded(a, _solver=solver, _real=getattr(np.linalg, solver)):
            calls.append((_solver, a.shape))
            return _real(a)

        monkeypatch.setattr(np.linalg, solver, recorded)
    return calls


@pytest.mark.parametrize("name", sorted(DISPATCH_MODELS))
def test_full_spectrum_takes_eigvalsh_only_on_exactly_symmetric_input(name, monkeypatch):
    make, expected, shapes = DISPATCH_MODELS[name]
    grid, kernel, potential = make()
    generator = ts.assemble_generator(kernel, potential)
    data = generator.data
    reference = np.linalg.eigvals(data)
    model = ts.ReducedModel(kernel, potential)
    even = model.reduce(model.generator)
    calls = _record_solvers(monkeypatch)
    values = ts.full_spectrum(generator)
    # the self-conjugate and the pair stacks along invariant axes, else one whole matrix
    assert [call[0] for call in calls] == [expected] * (2 if generator.invariant_axes else 1)
    calls.clear()
    sectors = ts.full_spectrum(model.generator, even=even)
    assert calls == [(expected, shape) for shape in shapes]
    assert block_shape(model.generator, even)[2] == max(shape[-1] for shape in shapes)
    calls.clear()
    report = ts.analyze(kernel, potential)
    assert calls == [(expected, shape) for shape in shapes]
    assert report.diagnostics["qr"]["largest_order"] == max(shape[-1] for shape in shapes)
    if expected == "eigvalsh":
        assert not np.iscomplexobj(values) and not np.iscomplexobj(sectors)
        scale = np.abs(data).max() * data.shape[0] * np.finfo(float).eps
        for spectrum in (values, sectors):
            assert np.allclose(spectrum, np.sort(reference.real)[::-1], rtol=0.0, atol=100 * scale)


def test_hand_built_operator_takes_the_general_solver(monkeypatch):
    grid, kernel, potential = make_f2(n=16)
    generator = ts.assemble_generator(kernel, potential)
    assert generator.symmetric and kernel.symmetric
    bare = ts.OperatorMatrix(generator.data, grid)
    assert bare.symmetric is False
    calls = _record_solvers(monkeypatch)
    ts.full_spectrum(bare)
    assert calls == [("eigvals", (16, 16))]
