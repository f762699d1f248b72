"""Essential spectrum, radius scan, bisection, and the consolidated analysis."""

import importlib
import pkgutil

import numpy as np
import pytest

import torspec as ts
from conftest import (
    make_f1,
    make_f2,
    make_f3,
    make_f4,
    random_fixture,
    two_level_eigenvalue_oracle,
)


def test_essential_spectrum_constant_fixture():
    grid, kernel, potential = make_f1(n=32)
    ess = ts.essential_spectrum(potential, ts.jump_rate(kernel))
    assert ess.alpha0 == ess.alpha1 == 1.3
    assert list(ess.values) == [1.3]
    assert list(ess.spectrum_points) == [-1.3]


def test_essential_spectrum_two_level_fixture():
    grid, kernel, potential = make_f2(n=32)
    ess = ts.essential_spectrum(potential, ts.jump_rate(kernel))
    assert ess.alpha0 == 2.0 and ess.alpha1 == 1.0
    assert list(ess.values) == [1.0, 2.0]


def test_essential_spectrum_zero_potential_edge_bounds():
    grid = ts.TorusGrid(1, 16)
    kernel = ts.constant_kernel(grid)
    stats = ts.kernel_stats(kernel)
    ess = ts.essential_spectrum(ts.zero_potential(grid), ts.jump_rate(kernel))
    assert list(ess.values) == [1.0]
    assert ess.alpha1 >= stats.row_integral_min
    assert ess.alpha0 >= stats.row_integral_max - 1e-15


def test_radius_closed_forms_constant_fixture():
    grid, kernel, potential = make_f1(n=64)
    for mu, expected in ((0.0, 1 / 1.3), (-0.3, 1.0), (10.0, 1 / 11.3)):
        rho = ts.perron(ts.assemble_birman_schwinger(kernel, potential, mu, grid)).rho
        assert abs(rho - expected) < 1e-10


def test_radius_monotone_and_decaying():
    for seed in range(5):
        grid, kernel, potential = random_fixture(seed)
        rates = ts.jump_rate(kernel)
        u = -potential.samples
        alpha1 = float((u + rates).min())
        alpha0 = float((u + rates).max())
        gamma2 = float(rates.max())
        mus = np.linspace(-alpha1 + 0.05 * (alpha0 - alpha1 + 1.0), 10.0 * gamma2, 25)
        radii = [ts.perron(ts.assemble_birman_schwinger(kernel, potential, m, grid)).rho for m in mus]
        for nxt, prev in zip(radii[1:], radii[:-1]):
            assert nxt <= prev + 1e-9
        assert radii[-1] < 0.1
        # decay bound from the certificate: r <= gamma2 / (alpha1 + mu) for mu > 0
        for m, r in zip(mus, radii):
            if m > 0:
                assert r <= gamma2 / (alpha1 + m) + 1e-9


def test_bisection_constant_fixture_exact():
    grid, kernel, potential = make_f1()
    result = ts.max_eigenvalue_bisection(kernel, potential, grid, tol=1e-12)
    assert abs(result.lam + 0.3) < 1e-11
    assert result.ground_state.min() > 0
    assert result.adjoint_state.min() > 0
    assert abs(result.radius_at_lambda - 1.0) < 1e-10


def test_bisection_two_level_fixture_against_oracle():
    lam_oracle = two_level_eigenvalue_oracle((-0.999, -1e-6))
    grid, kernel, potential = make_f2()
    result = ts.max_eigenvalue_bisection(kernel, potential, grid, tol=1e-12)
    assert abs(result.lam - lam_oracle) < 1e-10
    # two-level ground state profile: proportional to 1/(lam + 1 - V)
    profile = 1.0 / (result.lam + 1.0 - potential.samples)
    profile /= np.linalg.norm(profile)
    assert np.allclose(result.ground_state, profile, atol=1e-9)


def test_root_find_work_count_on_gaussian_step_fixture():
    # 40 plain bisection steps would be needed for a 1e-12 bracket
    grid, kernel, potential = make_f3(n=256)
    result = ts.max_eigenvalue_bisection(kernel, potential, grid)
    assert result.iterations <= 20
    assert result.bracket[1] - result.bracket[0] <= 1e-12


def test_root_find_stops_at_floating_point_resolution():
    grid, kernel, potential = make_f1(n=32)
    result = ts.max_eigenvalue_bisection(kernel, potential, grid, tol=1e-300)
    lo, hi = result.bracket
    assert 0.0 < hi - lo <= 4 * np.spacing(abs(lo))
    assert abs(result.lam + 0.3) < 1e-12


def test_bisection_zero_potential_modes():
    grid = ts.TorusGrid(1, 32)
    kernel = ts.constant_kernel(grid)
    potential = ts.zero_potential(grid)
    with pytest.raises(ts.IneligiblePotential):
        ts.max_eigenvalue_bisection(kernel, potential, grid)
    boundary = ts.max_eigenvalue_bisection(kernel, potential, grid, diagnostic=True)
    assert boundary.lam == 0.0
    assert boundary.ground_state.min() > 0


def test_shifted_power_constant_fixture():
    grid, kernel, potential = make_f1()
    gen = ts.assemble_generator(kernel, potential, grid)
    ess = ts.essential_spectrum(potential, ts.jump_rate(kernel))
    result = ts.max_eigenvalue_shifted_power(gen, ess.alpha0)
    assert abs(result.lam + 0.3) < 1e-10
    assert np.std(result.perron.vector) < 1e-9  # constant ground state


def test_fixed_point_radius_at_returned_eigenvalue():
    # measure the radius with a sharper certificate than the bisection tol
    for seed in (0, 1, 2):
        grid, kernel, potential = random_fixture(seed)
        result = ts.max_eigenvalue_bisection(
            kernel, potential, grid, tol=1e-12, power_tol=1e-13
        )
        assert abs(result.radius_at_lambda - 1.0) <= 1e-11


def test_analyze_constant_fixture_report():
    grid, kernel, potential = make_f1()
    report = ts.analyze(kernel, potential, grid)
    for value in report.lambda_by_method.values():
        assert abs(value + 0.3) < 1e-8
    assert list(report.essential.spectrum_points) == [-1.3]
    assert len(report.discrete_eigenvalues) == 1
    assert abs(report.discrete_eigenvalues[0] - (-0.3)) < 1e-10
    assert report.diagnostics["conforming"]
    assert report.diagnostics["ground_state_residual"] <= 1e-8


def test_analyze_two_level_fixture_report():
    grid, kernel, potential = make_f2()
    report = ts.analyze(kernel, potential, grid)
    lam_top = two_level_eigenvalue_oracle((-0.999, -1e-6))
    lam_bottom = two_level_eigenvalue_oracle((-1.999, -1.001))
    assert abs(report.max_eigenvalue - lam_top) < 1e-6
    found = sorted(z.real for z in report.discrete_eigenvalues)
    assert len(found) == 2
    assert abs(found[0] - lam_bottom) < 1e-6
    assert abs(found[1] - lam_top) < 1e-6
    assert list(report.essential.values) == [1.0, 2.0]
    assert -report.essential.alpha1 < report.max_eigenvalue < 0.0


@pytest.mark.parametrize("depth", [1e-3, 1e-6, 1e-9, 1e-12])
def test_analyze_shallow_step_potential(depth):
    # lambda -> 0-: about -depth/2, within bisection_tol of the scalar oracle
    # even where the root find cannot resolve it any finer (depth 1e-12)
    grid = ts.TorusGrid(1, 64)
    options = ts.AnalysisOptions()
    report = ts.analyze(ts.constant_kernel(grid), ts.step_potential(grid, depth, 0.5), grid, options)
    assert report.diagnostics["conforming"]
    assert report.max_eigenvalue < 0.0
    values = report.lambda_by_method.values()
    assert max(values) - min(values) <= options.cross_tol
    oracle = two_level_eigenvalue_oracle((-depth, 0.0), shifts=(1.0 + depth, 1.0))
    assert abs(report.lambda_by_method["q_bisection"] - oracle) <= options.bisection_tol


def test_analyze_nonsymmetric_fixture():
    grid, kernel, potential = make_f4()
    report = ts.analyze(kernel, potential, grid)
    # kernel part acts as rank one on constants; perturbation only moves
    # mean-zero modes, so the top eigenvalue matches the constant fixture
    for value in report.lambda_by_method.values():
        assert abs(value + 0.3) < 1e-8
    assert report.ground_state.min() > 0
    assert report.adjoint_ground_state.min() > 0


def test_analyze_sign_location_properties_random():
    for seed in (10, 11, 12):
        grid, kernel, potential = random_fixture(seed)
        report = ts.analyze(kernel, potential, grid)
        assert -report.essential.alpha1 < report.max_eigenvalue < 0.0
        assert report.ground_state.min() > 0
        assert report.adjoint_ground_state.min() > 0
        assert report.diagnostics["ground_state_residual"] <= 1e-8
        # simplicity: next eigenvalue strictly below the maximum one
        gen = ts.assemble_generator(kernel, potential, grid)
        values = ts.full_spectrum(gen)
        assert values[1].real < report.max_eigenvalue - 1e-6


def test_analyze_adjoint_consistency():
    for make in (make_f1, make_f2):
        grid, kernel, potential = make(n=64)
        gen = ts.assemble_generator(kernel, potential, grid)
        ess = ts.essential_spectrum(potential, ts.jump_rate(kernel))
        lam = ts.max_eigenvalue_shifted_power(gen, ess.alpha0).lam
        lam_adj = ts.max_eigenvalue_shifted_power(ts.OperatorMatrix(gen.data.T, grid), ess.alpha0).lam
        assert abs(lam - lam_adj) < 1e-8


def test_analyze_zero_potential_diagnostic_mode():
    grid = ts.TorusGrid(1, 32)
    kernel = ts.constant_kernel(grid)
    potential = ts.zero_potential(grid)
    with pytest.raises(ts.IneligiblePotential):
        ts.analyze(kernel, potential, grid)
    report = ts.analyze(kernel, potential, grid, ts.AnalysisOptions(diagnostic=True))
    assert report.max_eigenvalue == 0.0
    assert not report.diagnostics["conforming"]
    for value in report.lambda_by_method.values():
        assert abs(value) < 1e-9


def test_analyze_rejects_flipped_potential():
    grid = ts.TorusGrid(1, 16)
    with pytest.raises(ts.PositivePotential):
        ts.Potential(1, 16, np.full(16, 0.3))


def test_analyze_propagates_not_primitive():
    n = 8
    samples = np.zeros((n, n))
    samples[: n // 2, : n // 2] = 1.0
    samples[n // 2 :, n // 2 :] = 1.0
    kernel = ts.GenericKernel(1, n, samples)
    grid = ts.TorusGrid(1, n)
    with pytest.raises(ts.NotPrimitive):
        ts.analyze(kernel, ts.constant_potential(grid, 0.3), grid)


def test_analyze_not_converged_exit():
    grid, kernel, potential = make_f1(n=16)
    with pytest.raises(ts.NotConverged):
        ts.analyze(kernel, potential, grid, ts.AnalysisOptions(max_iter=1))


def test_analyze_evaluates_no_jump_rate_once_the_kernel_is_built(monkeypatch):
    real = ts.jump_rate
    calls = []

    def counted(b):
        calls.append(b)
        return real(b)

    for info in pkgutil.iter_modules(ts.__path__):
        module = importlib.import_module(f"torspec.{info.name}")
        if getattr(module, "jump_rate", None) is real:
            monkeypatch.setattr(module, "jump_rate", counted)
    grid, kernel, potential = make_f3(n=64)
    assert len(calls) == 1  # the construction itself
    report = ts.analyze(kernel, potential, grid)
    assert len(calls) == 1
    assert report.essential.alpha1 == float((kernel.w - potential.samples).min())


def test_analyze_order_above_cap_is_typed_error():
    grid, kernel, potential = make_f2(n=16)
    with pytest.raises(ts.DimensionMismatch, match="exceeds the cap 8"):
        ts.analyze(kernel, potential, grid, ts.AnalysisOptions(spectrum_order_cap=8))


@pytest.mark.parametrize("make, symmetric", [(make_f3, True), (make_f4, False)], ids=["f3", "f4"])
def test_adjoint_state_is_solved_only_for_a_nonsymmetric_kernel(make, symmetric, monkeypatch):
    real = ts.spectral.assemble_birman_schwinger
    adjoint_calls = []

    def recorded(*args, adjoint=False, **kwargs):
        adjoint_calls.append(adjoint)
        return real(*args, adjoint=adjoint, **kwargs)

    monkeypatch.setattr(ts.spectral, "assemble_birman_schwinger", recorded)
    grid, kernel, potential = make(n=64)
    result = ts.max_eigenvalue_bisection(kernel, potential, grid)
    assert adjoint_calls == ([False] if symmetric else [False, True])
    assert (result.adjoint_state is result.ground_state) == symmetric
    generator = ts.assemble_generator(kernel, potential, grid)
    phi = result.adjoint_state
    assert np.linalg.norm(generator.data.T @ phi - result.lam * phi) <= 1e-8
    assert phi.min() > 0
