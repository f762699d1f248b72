"""Operator assembly, the ratio operator, Fourier symbols."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torspec as ts
from conftest import make_f1, make_f2, sine_wound


def _assert_conservative(kernel, grid):
    # with V = 0 the diagonal is minus the serial off-diagonal row sum, bit
    # for bit, so each row adds up to exactly zero in that order
    data = ts.assemble_generator(kernel, ts.zero_potential(grid)).data
    for i, row in enumerate(data.tolist()):
        off_sum = 0.0
        for j, entry in enumerate(row):
            if j != i:
                off_sum += entry
        assert row[i] == -off_sum
        assert off_sum + row[i] == 0.0


def test_generator_conservative_exactly():
    # irrational kernel samples included
    for n in (16, 50):
        grid = ts.TorusGrid(1, n)
        for kernel in (
            ts.constant_kernel(grid),
            ts.convolution_kernel(sine_wound(grid)),
        ):
            _assert_conservative(kernel, grid)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(1, 2), (1, 7), (1, 16), (1, 33), (2, 3), (2, 6)]), st.integers(0, 2**32 - 1))
def test_generator_conservative_exactly_on_random_kernels(shape, seed):
    # nonnegative samples spread over twelve orders of magnitude, some zero
    dimension, n = shape
    grid = ts.TorusGrid(dimension, n)
    rng = np.random.default_rng(seed)
    samples = rng.random((grid.size, grid.size)) * 10.0 ** rng.uniform(-6, 6, (grid.size, grid.size))
    samples[rng.random(samples.shape) < 0.2] = 0.0
    samples[0, 0] = 1.0  # not identically zero
    _assert_conservative(ts.GenericKernel(ts.TorusGrid(dimension, n), samples), grid)


def test_generator_constant_kernel_matrix():
    grid = ts.TorusGrid(1, 4)
    gen = ts.assemble_generator(ts.constant_kernel(grid), ts.constant_potential(grid, 0.3))
    expected = np.full((4, 4), 0.25)
    np.fill_diagonal(expected, 0.25 - 1.3)
    assert np.allclose(gen.data, expected, rtol=0, atol=1e-15)


def test_generator_step_diagonal_hand_evaluated():
    # hand evaluation of the assembly formula at n=8: diagonal h + V - W
    grid = ts.TorusGrid(1, 8)
    gen = ts.assemble_generator(ts.constant_kernel(grid), ts.step_potential(grid))
    diag = np.diagonal(gen.data)
    assert np.all(diag[:4] == 0.125 - 1.0 - 1.0)
    assert np.all(diag[4:] == 0.125 - 1.0)
    off = gen.data.copy()
    np.fill_diagonal(off, 0.0)
    assert np.all(off[~np.eye(8, dtype=bool)] == 0.125)


def test_convolution_generator_matches_generic_assembly():
    grid = ts.TorusGrid(1, 32)
    ones = ts.wound_from_function(lambda mesh: np.ones(mesh.shape[:-1]), grid)
    potential = ts.constant_potential(grid, 0.3)
    from_wound = ts.assemble_generator(ts.convolution_kernel(ones), potential)
    from_generic = ts.assemble_generator(ts.constant_kernel(grid), potential)
    assert np.array_equal(from_wound.data, from_generic.data)


def test_convolution_generator_rank_one_spectrum():
    grid = ts.TorusGrid(1, 32)
    ones = ts.wound_from_function(lambda mesh: np.ones(mesh.shape[:-1]), grid)
    kernel = ts.convolution_kernel(ones)
    gen = ts.assemble_generator(kernel, ts.constant_potential(grid, 0.3))
    values = np.sort(np.linalg.eigvals(gen.data).real)
    assert abs(values[-1] + 0.3) < 1e-12
    assert np.allclose(values[:-1], -1.3, rtol=0, atol=1e-12)


def test_birman_schwinger_rank_one_fixture():
    grid, kernel, potential = make_f1(n=4)
    q = ts.assemble_birman_schwinger(kernel, potential, 0.0)
    assert np.allclose(q.data, 0.25 / 1.3, rtol=0, atol=1e-15)
    rho = ts.perron(q.data).rho
    assert abs(rho - 1.0 / 1.3) < 1e-11


def test_birman_schwinger_unit_radius_at_eigenvalue():
    grid, kernel, potential = make_f1(n=64)
    rho = ts.perron(ts.assemble_birman_schwinger(kernel, potential, -0.3).data).rho
    assert abs(rho - 1.0) < 1e-10


def test_birman_schwinger_rejects_edge_shift():
    grid, kernel, potential = make_f1(n=16)
    with pytest.raises(ts.MuBelowEdge):
        ts.assemble_birman_schwinger(kernel, potential, -1.3)


def test_birman_schwinger_entries_are_scaled_kernel_rows():
    grid, kernel, potential = make_f2(n=16)
    mu = -0.4
    q = ts.assemble_birman_schwinger(kernel, potential, mu)
    rates = ts.jump_rate(kernel)
    denom = -potential.samples + rates + mu
    recomputed = grid.weight * kernel.samples / denom[:, None]
    assert np.array_equal(q.data, recomputed)


def test_birman_schwinger_adjoint_spectrum_matches():
    grid = ts.TorusGrid(1, 32)
    kernel = ts.convolution_kernel(sine_wound(grid))
    potential = ts.constant_potential(grid, 0.3)
    q = ts.assemble_birman_schwinger(kernel, potential, -0.1)
    q_star = ts.assemble_birman_schwinger(kernel, potential, -0.1, adjoint=True)
    rho = ts.perron(q.data).rho
    rho_star = ts.perron(q_star.data).rho
    assert abs(rho - rho_star) < 1e-10


@pytest.mark.parametrize("adjoint", [False, True], ids=["state", "adjoint"])
def test_birman_schwinger_assembly_holds_one_matrix(adjoint):
    grid = ts.TorusGrid(1, 256)
    kernel = ts.convolution_kernel(sine_wound(grid))
    potential = ts.step_potential(grid, 1.0, 0.5)
    samples = kernel.samples.T if adjoint else kernel.samples
    expected = grid.weight * samples / (kernel.w - potential.samples - 0.2)[:, None]
    tracemalloc.start()
    try:
        q = ts.assemble_birman_schwinger(kernel, potential, -0.2, adjoint=adjoint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(q.data, expected)
    # the entries are formed and scaled in one C-ordered N x N array
    assert peak < 1.25 * q.data.nbytes


# -- Fourier symbols ----------------------------------------------------------


def test_fourier_symbol_constant():
    grid = ts.TorusGrid(1, 16)
    wound = ts.wound_from_function(lambda m: np.ones(m.shape[:-1]), grid)
    symbol = ts.fourier_symbol(wound)
    assert symbol[0].real == 1.0
    assert abs(symbol[0] - 1.0) == 0.0
    for k in range(1, 8):
        assert abs(symbol[k]) < 1e-15
    assert 1.0 - ts.gap_constants(ts.constant_potential(grid, 0.3), wound).c2 < 1e-15


def test_fourier_symbol_sine_modes():
    grid = ts.TorusGrid(1, 64)
    wound = sine_wound(grid)
    symbol = ts.fourier_symbol(wound)
    # analytic expansion: the sine contributes -+ i/4 at the first modes
    assert abs(symbol[1] - (-0.25j)) < 1e-14
    assert abs(symbol[-1] - (0.25j)) < 1e-14
    assert abs((1.0 - ts.gap_constants(ts.constant_potential(grid, 0.3), wound).c2) - 0.25) < 1e-14
    for k in (2, 3, 5, 11):
        assert abs(symbol[k]) < 1e-14


def test_fourier_symbol_wound_gaussian_against_heat_decay():
    wound = ts.wind_kernel(ts.gaussian_kernel(1, 0.2), 128, 1e-12)
    symbol = ts.fourier_symbol(wound)
    for k in (1, 2, 3):
        analytic = math.exp(-2.0 * math.pi**2 * 0.04 * k * k)
        assert abs(symbol[k] - analytic) < 1e-12


def test_fourier_symbol_conjugate_symmetry():
    grid = ts.TorusGrid(1, 32)
    rng = np.random.default_rng(2)
    wound = ts.WoundKernel(ts.TorusGrid(1, 32), rng.uniform(0.1, 1.0, 32))
    symbol = ts.fourier_symbol(wound)
    for k in range(1, 16):
        assert abs(symbol[-k] - np.conj(symbol[k])) < 1e-14
    assert abs(symbol[0].real - wound.quadrature_mass()) < 1e-14


def test_fourier_symbol_two_dimensional():
    grid = ts.TorusGrid(2, 8)
    wound = ts.wound_from_function(
        lambda mesh: 1.0 + 0.25 * np.cos(2 * np.pi * mesh[..., 0]), grid
    )
    symbol = ts.fourier_symbol(wound)
    assert symbol.shape == (8, 8)
    assert not symbol.flags.writeable
    assert abs(symbol[0, 0] - 1.0) < 1e-14
    assert abs(symbol[1, 0] - 0.125) < 1e-14
    assert abs(symbol[0, 1]) < 1e-14


def test_circulant_eigenvalues_match_symbol():
    grid = ts.TorusGrid(1, 64)
    wound = sine_wound(grid)
    eigenvalues = np.linalg.eigvals(grid.weight * ts.convolution_kernel(wound).samples)
    # oracle: quadrature DFT of the kernel samples gives every circulant eigenvalue
    dft = np.fft.fft(wound.samples) / 64
    matched = sorted(eigenvalues, key=lambda z: (z.real, z.imag))
    expected = sorted(dft, key=lambda z: (z.real, z.imag))
    assert np.allclose(matched, expected, rtol=0, atol=1e-10)
    symbol = ts.fourier_symbol(wound)
    for k in (-2, -1, 0, 1, 2):
        nearest = min(abs(eigenvalues - symbol[k]))
        assert nearest < 1e-10
    # the symbol holds every circulant eigenvalue, the Nyquist mode k = 32 included
    assert symbol.shape == (64,)
    assert np.allclose(sorted(symbol, key=lambda z: (z.real, z.imag)), matched, rtol=0, atol=1e-10)


# -- housekeeping -------------------------------------------------------------


def test_grid_mismatch_rejected():
    grid, kernel, _ = make_f1(n=16)
    other = ts.TorusGrid(1, 32)
    with pytest.raises(ts.GridMismatch):
        ts.assemble_generator(kernel, ts.constant_potential(other, 0.3))


def test_edge_sup_metadata():
    grid, kernel, potential = make_f2(n=16)
    gen = ts.assemble_generator(kernel, potential)
    assert not hasattr(gen, "edge_sup")
    edge_sup = float((kernel.w - potential.samples).max())
    assert abs(edge_sup - 2.0) < 1e-14
    # the diagonal carries the edge less the kernel's own sample h^d b(x, x)
    assert float(-np.diagonal(gen.data).min()) == edge_sup - grid.weight * kernel.samples[0, 0]


def test_grid_mismatch_reported_alike_wherever_kernel_meets_potential():
    _, kernel, _ = make_f1(n=16)
    potential = ts.constant_potential(ts.TorusGrid(1, 32), 0.3)
    messages = set()
    for build in (
        lambda: ts.assemble_generator(kernel, potential),
        lambda: ts.assemble_birman_schwinger(kernel, potential, 0.0),
        lambda: ts.essential_spectrum(kernel, potential),
        lambda: ts.analyze(kernel, potential),
    ):
        with pytest.raises(ts.GridMismatch) as err:
            build()
        messages.add(str(err.value))
    assert messages == {"operand sampled at d=1, n=32; grid has d=1, n=16"}