"""Gap-bound constants, verification verdicts, and scaling identities."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import torspec as ts
from conftest import make_f2, random_convolution_fixture, sine_wound


def unit_wound(grid):
    return ts.WoundKernel(grid, np.ones((grid.n,) * grid.dimension))


def test_constants_two_level_fixture():
    grid, _, potential = make_f2()
    bound = ts.gap_constants(potential, ts.convolution_kernel(unit_wound(grid)))
    assert bound["c1"] == 0.5
    assert bound["norm_v2"] == math.sqrt(0.5)
    assert abs(bound["gamma0"] - 0.157135) < 1e-6
    assert abs(bound["c2"] - 1.0) < 1e-12
    assert abs(bound["kappa"] - 2.0 / 81.0) < 1e-12


def test_constants_constant_potential():
    grid = ts.TorusGrid(1, 64)
    bound = ts.gap_constants(ts.constant_potential(grid, 0.3), ts.convolution_kernel(unit_wound(grid)))
    assert abs(bound["c1"] - 0.3) < 1e-15
    assert abs(bound["gamma0"] - 2.0 / 9.0) < 1e-14
    assert abs(bound["kappa"] - (2.0 / 9.0) ** 2) < 1e-14  # the quadratic branch wins


def test_constants_sine_kernel_contraction():
    grid = ts.TorusGrid(1, 128)
    bound = ts.gap_constants(ts.constant_potential(grid, 0.3), ts.convolution_kernel(sine_wound(grid)))
    assert abs(bound["c2"] - 0.75) < 1e-12
    assert abs(bound["kappa"] - 0.75 * (2.0 / 9.0) ** 2) < 1e-12


def test_potential_scaling_identities():
    grid, _, potential = make_f2(n=64)
    kernel = ts.convolution_kernel(unit_wound(grid))
    reference = ts.gap_constants(potential, kernel)
    for t in (0.25, 0.5, 0.75, 1.0):
        scaled = ts.Potential(ts.TorusGrid(1, 64), t * potential.samples)
        bound = ts.gap_constants(scaled, kernel)
        assert abs(bound["c1"] - t * reference["c1"]) < 1e-14
        assert abs(bound["norm_v2"] - t * reference["norm_v2"]) < 1e-14
        assert abs(bound["gamma0"] - reference["gamma0"]) < 1e-13  # scale invariant
        assert abs(bound["kappa"] - min(bound["c2"] * bound["gamma0"]**2, 0.5 * t * reference["c1"])) < 1e-15


def test_contraction_matches_circulant_second_modulus():
    grid = ts.TorusGrid(1, 64)
    potential = ts.constant_potential(grid, 0.3)
    for wound in (sine_wound(grid), random_convolution_fixture(3, n=64)[1]):
        kernel = ts.convolution_kernel(wound)
        bound_c2 = ts.gap_constants(potential, kernel)["c2"]
        b_part = grid.weight * kernel.rows()
        moduli = np.sort(np.abs(np.linalg.eigvals(b_part)))[::-1]
        assert abs(bound_c2 - (1.0 - moduli[1])) < 1e-10


def test_doubled_kernel_scales_the_bound_by_its_mass():
    grid = ts.TorusGrid(1, 32)
    doubled = ts.WoundKernel(grid, np.full(grid.n, 2.0))
    potential = ts.step_potential(grid)
    mass = doubled.quadrature_mass()
    assert mass == 2.0
    kernel = ts.convolution_kernel(doubled)
    bound = ts.gap_constants(potential, kernel)
    assert bound["c2"] == 1.0  # every nonzero mode of a constant vanishes
    assert bound["kappa"] == min(mass * bound["c2"] * bound["gamma0"] ** 2, 0.5 * bound["c1"])
    assert bound["kappa"] > ts.gap_constants(potential, ts.convolution_kernel(unit_wound(grid)))["kappa"]
    verdict = ts.verify_gap(ts.analyze(kernel, potential), bound)
    assert verdict["verdict"] == "pass", f"margin {verdict['margin']}"


@pytest.mark.parametrize("wound", [
    ts.WoundKernel(ts.TorusGrid(1, 32), np.ones(32)),
    ts.wind_kernel(ts.gaussian_kernel(1, 0.2), 64),
    ts.wind_kernel(ts.gaussian_kernel(1, 0.2), 512),
    ts.wind_kernel(ts.tophat_kernel(1, 0.125), 512),
], ids=["constant", "gaussian-64", "gaussian-512", "tophat-512"])
def test_unit_mass_kernels_keep_the_unscaled_constants_bit_for_bit(wound):
    assert wound.quadrature_mass() == 1.0
    moduli = np.abs(ts.fourier_symbol(wound))
    moduli.flat[0] = 0.0
    bound = ts.gap_constants(ts.step_potential(wound.grid), ts.convolution_kernel(wound))
    assert bound["c2"] == 1.0 - float(moduli.max())
    assert bound["kappa"] == min(bound["c2"] * bound["gamma0"] ** 2, 0.5 * bound["c1"])


def test_requires_kernel_and_potential_on_one_grid():
    wound = ts.wind_kernel(ts.gaussian_kernel(1, 0.2), 64)
    with pytest.raises(ts.GridMismatch):
        ts.gap_constants(ts.step_potential(ts.TorusGrid(2, 8)), ts.convolution_kernel(wound))


@pytest.mark.parametrize("build", [
    lambda wound: ts.GenericKernel(wound.grid, ts.convolution_kernel(wound).rows()),
    lambda wound: ts.modulated_convolution(wound, 0.5),
], ids=["hand-built", "modulated"])
def test_requires_a_convolution_form_kernel(build):
    kernel = build(ts.wind_kernel(ts.gaussian_kernel(1, 0.2), 16))
    assert kernel.wound is None
    with pytest.raises(ts.ValidationError, match="^the gap bound applies only to convolution-form kernels$"):
        ts.gap_constants(ts.step_potential(kernel.grid), kernel)


def test_requires_negative_somewhere():
    grid = ts.TorusGrid(1, 32)
    with pytest.raises(ts.IneligiblePotential):
        ts.gap_constants(ts.zero_potential(grid), ts.convolution_kernel(unit_wound(grid)))


def test_concentrated_kernel_degenerate_symbol():
    n = 32
    samples = np.zeros(n)
    samples[0] = n  # unit mass, all concentrated at one node
    wound = ts.WoundKernel(ts.TorusGrid(1, n), samples)
    grid = ts.TorusGrid(1, n)
    with pytest.raises(ts.DegenerateSymbol):
        ts.gap_constants(ts.constant_potential(grid, 0.3), ts.convolution_kernel(wound))


def test_verdicts_including_adversarial_report():
    grid, kernel, potential = make_f2()
    report = ts.analyze(kernel, potential)
    bound = ts.gap_constants(potential, ts.convolution_kernel(unit_wound(grid)))
    verdict = ts.verify_gap(report, bound)
    assert verdict["verdict"] == "pass"
    assert abs(verdict["margin"] - (report.max_eigenvalue + bound["kappa"])) < 1e-15
    forged = dataclasses.replace(report, max_eigenvalue=-0.01)
    assert ts.verify_gap(forged, bound)["verdict"] == "fail"


def test_gap_bound_holds_on_random_convolution_fixtures():
    for seed in range(8):
        grid, wound, potential = random_convolution_fixture(seed)
        kernel = ts.convolution_kernel(wound)
        report = ts.analyze(kernel, potential)
        bound = ts.gap_constants(potential, kernel)
        verdict = ts.verify_gap(report, bound)
        assert verdict["verdict"] == "pass", f"seed {seed}: margin {verdict['margin']}"


def unit_mass(grid, samples):
    return ts.WoundKernel(grid, samples / (grid.weight * samples.sum()))


def test_nyquist_mode_enters_the_contraction():
    # every mode in |k| < n/2 vanishes; the Nyquist mode k = 4 carries 0.98 of the mass
    grid = ts.TorusGrid(1, 8)
    wound = unit_mass(grid, np.where(np.arange(8) % 2 == 0, 1.0, 0.01))
    potential = ts.Potential(grid, np.where(np.isin(np.arange(8), (0, 2)), -1.0, 0.0))
    kernel = ts.convolution_kernel(wound)
    bound = ts.gap_constants(potential, kernel)
    assert abs(bound["c2"] - 0.02 / 1.01) < 1e-12  # 1 - |a_4| = 1 - 0.99/1.01
    report = ts.analyze(kernel, potential)
    verdict = ts.verify_gap(report, bound)
    assert verdict["verdict"] == "pass", f"margin {verdict['margin']}"


@settings(max_examples=100)
@given(
    st.sampled_from([(1, n) for n in range(2, 13)] + [(2, n) for n in range(2, 6)]),
    st.booleans(),
    st.floats(1e-3, 5.0),
    st.integers(0, 2**32 - 1),
)
def test_gap_bound_holds_for_random_unit_mass_wounds(shape, damp_odd, depth, seed):
    dimension, n = shape
    grid = ts.TorusGrid(dimension, n)
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.05, 1.0, (n,) * dimension)
    if damp_odd:  # weight the Nyquist modes, which lie outside |k| < n/2
        samples[np.indices(samples.shape).sum(axis=0) % 2 == 1] *= 0.01
    values = -depth * rng.random(grid.size) * (rng.random(grid.size) < 0.6)
    values[rng.integers(grid.size)] = -depth
    wound, potential = unit_mass(grid, samples), ts.Potential(grid, values)
    try:
        kernel = ts.convolution_kernel(wound)
        bound = ts.gap_constants(potential, kernel)
        report = ts.analyze(kernel, potential)
    except ts.TorspecError:
        return
    verdict = ts.verify_gap(report, bound)
    assert verdict["verdict"] == "pass", f"margin {verdict['margin']}"


@settings(max_examples=80)
@given(
    st.integers(1, 32),
    st.floats(-2.0, 2.0),
    st.floats(-3.0, 1.0),
    st.floats(1.0, 8.0),
    st.integers(0, 2**32 - 1),
)
def test_gap_bound_holds_for_wounds_of_any_mass(half_n, log_mass, log_depth, peak, seed):
    n = 2 * half_n
    grid = ts.TorusGrid(1, n)
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.01, 1.0, n) ** peak  # strictly positive; a large power peaks it
    wound = ts.WoundKernel(grid, samples * (10.0**log_mass / (grid.weight * samples.sum())))
    depth = 10.0**log_depth
    values = -depth * rng.random(n) * (rng.random(n) < 0.6)
    values[rng.integers(n)] = -depth
    potential = ts.Potential(grid, values)
    try:
        kernel = ts.convolution_kernel(wound)
        bound = ts.gap_constants(potential, kernel)
        report = ts.analyze(kernel, potential)
    except (ts.NotPrimitive, ts.DegenerateSymbol, ts.NotConverged):
        assume(False)
    verdict = ts.verify_gap(report, bound)
    assert verdict["verdict"] == "pass", f"margin {verdict['margin']}"
