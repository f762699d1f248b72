"""Gap-bound constants, verification verdicts, and scaling identities."""

import dataclasses
import math

import numpy as np
import pytest

import torspec as ts
from conftest import make_f2, random_convolution_fixture, sine_wound


def unit_wound(grid):
    return ts.wound_from_function(lambda mesh: np.ones(mesh.shape[:-1]), grid)


def test_constants_two_level_fixture():
    grid, _, potential = make_f2()
    bound = ts.gap_constants(potential, unit_wound(grid))
    assert bound.c1 == 0.5
    assert bound.norm_v2 == math.sqrt(0.5)
    assert abs(bound.gamma0 - 0.157135) < 1e-6
    assert abs(bound.c2 - 1.0) < 1e-12
    assert abs(bound.kappa - 2.0 / 81.0) < 1e-12


def test_constants_constant_potential():
    grid = ts.TorusGrid(1, 64)
    bound = ts.gap_constants(ts.constant_potential(grid, 0.3), unit_wound(grid))
    assert abs(bound.c1 - 0.3) < 1e-15
    assert abs(bound.gamma0 - 2.0 / 9.0) < 1e-14
    assert abs(bound.kappa - (2.0 / 9.0) ** 2) < 1e-14  # the quadratic branch wins


def test_constants_sine_kernel_contraction():
    grid = ts.TorusGrid(1, 128)
    bound = ts.gap_constants(ts.constant_potential(grid, 0.3), sine_wound(grid))
    assert abs(bound.c2 - 0.75) < 1e-12
    assert abs(bound.kappa - 0.75 * (2.0 / 9.0) ** 2) < 1e-12


def test_potential_scaling_identities():
    grid, _, potential = make_f2(n=64)
    wound = unit_wound(grid)
    reference = ts.gap_constants(potential, wound)
    for t in (0.25, 0.5, 0.75, 1.0):
        scaled = ts.Potential(ts.TorusGrid(1, 64), t * potential.samples)
        bound = ts.gap_constants(scaled, wound)
        assert abs(bound.c1 - t * reference.c1) < 1e-14
        assert abs(bound.norm_v2 - t * reference.norm_v2) < 1e-14
        assert abs(bound.gamma0 - reference.gamma0) < 1e-13  # scale invariant
        assert abs(bound.kappa - min(bound.c2 * bound.gamma0**2, 0.5 * t * reference.c1)) < 1e-15


def test_contraction_matches_circulant_second_modulus():
    grid = ts.TorusGrid(1, 64)
    for wound in (sine_wound(grid), random_convolution_fixture(3, n=64)[1]):
        bound_c2 = 1.0 - ts.fourier_symbol(wound).max_offzero_modulus()
        b_part = grid.weight * ts.convolution_kernel(wound).samples
        moduli = np.sort(np.abs(np.linalg.eigvals(b_part)))[::-1]
        assert abs(bound_c2 - (1.0 - moduli[1])) < 1e-10


def test_requires_unit_mass():
    grid = ts.TorusGrid(1, 32)
    doubled = ts.wound_from_function(lambda mesh: np.full(mesh.shape[:-1], 2.0), grid)
    with pytest.raises(ts.NotNormalized):
        ts.gap_constants(ts.constant_potential(grid, 0.3), doubled)


def test_requires_negative_somewhere():
    grid = ts.TorusGrid(1, 32)
    with pytest.raises(ts.IneligiblePotential):
        ts.gap_constants(ts.zero_potential(grid), unit_wound(grid))


def test_concentrated_kernel_degenerate_symbol():
    n = 32
    samples = np.zeros(n)
    samples[0] = n  # unit mass, all concentrated at one node
    wound = ts.WoundKernel(ts.TorusGrid(1, n), samples)
    grid = ts.TorusGrid(1, n)
    with pytest.raises(ts.DegenerateSymbol):
        ts.gap_constants(ts.constant_potential(grid, 0.3), wound)


def test_verdicts_including_adversarial_report():
    grid, kernel, potential = make_f2()
    report = ts.analyze(kernel, potential)
    bound = ts.gap_constants(potential, unit_wound(grid))
    verdict = ts.verify_gap(report, bound)
    assert verdict.passed
    assert abs(verdict.margin - (report.max_eigenvalue + bound.kappa)) < 1e-15
    forged = dataclasses.replace(report, max_eigenvalue=-0.01)
    assert not ts.verify_gap(forged, bound).passed


def test_gap_bound_holds_on_random_convolution_fixtures():
    for seed in range(8):
        grid, wound, potential = random_convolution_fixture(seed)
        kernel = ts.convolution_kernel(wound)
        report = ts.analyze(kernel, potential)
        bound = ts.gap_constants(potential, wound)
        verdict = ts.verify_gap(report, bound)
        assert verdict.passed, f"seed {seed}: margin {verdict.margin}"
