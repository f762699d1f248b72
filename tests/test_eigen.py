"""Perron iteration, certificates, dense spectra."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import torspec as ts
from torspec.eigen import ROUNDING_ULPS, SYMMETRY_TILE, _is_symmetric, _start_vector
from conftest import make_f1, make_f2, make_f3, make_f4, sine_wound, two_level_eigenvalue_oracle

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
    q = ts.assemble_birman_schwinger(kernel, potential, 0.0, grid)
    result = ts.perron(q)
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


def test_perron_zero_row_does_not_certify():
    mat = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ts.NotConverged):
        ts.perron(mat, max_iter=50)


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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
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
    kernel = ts.convolution_kernel(sine_wound(grid), grid)
    q = ts.assemble_birman_schwinger(kernel, ts.step_potential(grid), 0.0, grid)
    forward = ts.perron(q)
    backward = ts.perron(ts.OperatorMatrix(q.data.T, grid))
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
    q = ts.assemble_birman_schwinger(kernel, potential, 0.0, grid)
    result = ts.perron(q, start=np.ones(16))
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
    result = ts.perron(ts.assemble_birman_schwinger(kernel, potential, shift, grid))
    assert result.cw_lower <= result.rho <= result.cw_upper


def test_full_spectrum_rank_one_fixture():
    grid, kernel, potential = make_f1(n=64)
    gen = ts.assemble_generator(kernel, potential, grid)
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
    values = ts.full_spectrum(ts.assemble_generator(kernel, potential, grid))
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
    forward = ts.full_spectrum(mat)
    backward = ts.full_spectrum(mat.T)
    key = lambda z: (round(z.real, 10), round(z.imag, 10))
    assert np.allclose(
        sorted(forward, key=key), sorted(backward, key=key), rtol=0, atol=1e-8
    )


def test_full_spectrum_order_cap():
    with pytest.raises(ts.DimensionMismatch, match="exceeds the cap"):
        ts.full_spectrum(np.eye(10), order_cap=5)


def test_shifted_spectrum_matches_perron_root():
    grid, kernel, potential = make_f2(n=64)
    gen = ts.assemble_generator(kernel, potential, grid)
    rates = ts.jump_rate(kernel)
    alpha0 = float((rates - potential.samples).max())
    shifted = gen.shifted(alpha0 + 1.0)
    assert np.all(shifted.data >= 0)
    result = ts.perron(shifted)
    top = ts.full_spectrum(shifted)[0]
    assert abs(top.imag) < 1e-12
    assert abs(top.real - result.rho) < 1e-10


def test_operator_norm_schur_bound_sine_kernel():
    grid = ts.TorusGrid(1, 64)
    kernel = ts.convolution_kernel(sine_wound(grid), grid)
    stats = ts.kernel_stats(kernel)
    norm = np.linalg.norm(grid.weight * kernel.samples, 2)
    bound = np.sqrt(stats.row_integral_max * stats.col_integral_max)
    assert norm <= bound * (1 + 1e-8)


def _wound_model(kernel, dimension, n):
    grid = ts.TorusGrid(dimension, n)
    wound = ts.wind_kernel(kernel, n)
    return grid, ts.convolution_kernel(wound, grid), ts.step_potential(grid)


DISPATCH_MODELS = {
    "f1": (lambda: make_f1(n=32), "eigvalsh"),
    "f2": (lambda: make_f2(n=32), "eigvalsh"),
    "f3": (lambda: make_f3(n=64), "eigvalsh"),
    "gaussian-2d": (lambda: _wound_model(ts.gaussian_kernel(2, 0.2), 2, 16), "eigvalsh"),
    "exponential-2d": (lambda: _wound_model(ts.exponential_kernel(2, 0.2), 2, 10), "eigvalsh"),
    "f4": (lambda: make_f4(n=32), "eigvals"),
    # 2 w n is an integer: the half-open box puts a node on one edge only
    "tophat": (lambda: _wound_model(ts.tophat_kernel(1, 0.125), 1, 64), "eigvals"),
}


@pytest.mark.parametrize("name", sorted(DISPATCH_MODELS))
def test_full_spectrum_takes_eigvalsh_only_on_exactly_symmetric_input(name, monkeypatch):
    make, expected = DISPATCH_MODELS[name]
    grid, kernel, potential = make()
    data = ts.assemble_generator(kernel, potential, grid).data
    reference = np.linalg.eigvals(data)
    calls = []
    for solver in ("eigvals", "eigvalsh"):
        def recorded(a, _solver=solver, _real=getattr(np.linalg, solver)):
            calls.append(_solver)
            return _real(a)

        monkeypatch.setattr(np.linalg, solver, recorded)
    values = ts.full_spectrum(data)
    assert calls == [expected]
    if expected == "eigvalsh":
        assert not np.iscomplexobj(values)
        scale = np.abs(data).max() * data.shape[0] * np.finfo(float).eps
        assert np.allclose(values, np.sort(reference.real)[::-1], rtol=0.0, atol=100 * scale)


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
