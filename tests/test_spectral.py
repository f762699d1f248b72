"""Essential spectrum, radius scan, bisection, and the consolidated analysis."""

import importlib
import json
import math
import pkgutil
from dataclasses import asdict

import numpy as np
import pytest

import torspec as ts
from torspec.cli import run_command
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
    ess = ts.essential_spectrum(kernel, potential)
    assert ess.alpha0 == ess.alpha1 == 1.3
    assert list(ess.values) == [1.3]
    assert list(ess.spectrum_points) == [-1.3]


def test_essential_spectrum_two_level_fixture():
    grid, kernel, potential = make_f2(n=32)
    ess = ts.essential_spectrum(kernel, potential)
    assert ess.alpha0 == 2.0 and ess.alpha1 == 1.0
    assert list(ess.values) == [1.0, 2.0]


def test_essential_spectrum_zero_potential_edge_bounds():
    grid = ts.TorusGrid(1, 16)
    kernel = ts.constant_kernel(grid)
    stats = ts.kernel_stats(kernel)
    ess = ts.essential_spectrum(kernel, ts.zero_potential(grid))
    assert list(ess.values) == [1.0]
    assert ess.alpha1 >= stats.row_integral_min
    assert ess.alpha0 >= stats.row_integral_max - 1e-15


def test_radius_closed_forms_constant_fixture():
    grid, kernel, potential = make_f1(n=64)
    for mu, expected in ((0.0, 1 / 1.3), (-0.3, 1.0), (10.0, 1 / 11.3)):
        rho = ts.perron(ts.assemble_birman_schwinger(kernel, potential, mu).data).rho
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
        radii = [ts.perron(ts.assemble_birman_schwinger(kernel, potential, m).data).rho for m in mus]
        for nxt, prev in zip(radii[1:], radii[:-1]):
            assert nxt <= prev + 1e-9
        assert radii[-1] < 0.1
        # decay bound from the certificate: r <= gamma2 / (alpha1 + mu) for mu > 0
        for m, r in zip(mus, radii):
            if m > 0:
                assert r <= gamma2 / (alpha1 + m) + 1e-9


def test_bisection_constant_fixture_exact():
    grid, kernel, potential = make_f1()
    result = ts.max_eigenvalue_bisection(kernel, potential, ts.AnalysisOptions(bisection_tol=1e-12))
    assert abs(result.lam + 0.3) < 1e-11
    assert result.ground_state.min() > 0
    assert result.adjoint_state.min() > 0
    assert abs(result.radius_at_lambda - 1.0) < 1e-10


def test_bisection_two_level_fixture_against_oracle():
    lam_oracle = two_level_eigenvalue_oracle((-0.999, -1e-6))
    grid, kernel, potential = make_f2()
    result = ts.max_eigenvalue_bisection(kernel, potential, ts.AnalysisOptions(bisection_tol=1e-12))
    assert abs(result.lam - lam_oracle) < 1e-10
    # two-level ground state profile: proportional to 1/(lam + 1 - V)
    profile = 1.0 / (result.lam + 1.0 - potential.samples)
    profile /= np.linalg.norm(profile)
    assert np.allclose(result.ground_state, profile, atol=1e-9)


def test_root_find_work_count_on_gaussian_step_fixture():
    # 40 plain bisection steps would be needed for a 1e-12 bracket
    grid, kernel, potential = make_f3(n=256)
    result = ts.max_eigenvalue_bisection(kernel, potential)
    assert result.iterations <= 20
    assert result.bracket[1] - result.bracket[0] <= 1e-12


def test_root_find_stops_at_floating_point_resolution():
    grid, kernel, potential = make_f1(n=32)
    result = ts.max_eigenvalue_bisection(kernel, potential, ts.AnalysisOptions(bisection_tol=1e-300))
    lo, hi = result.bracket
    assert 0.0 < hi - lo <= 4 * np.spacing(abs(lo))
    assert abs(result.lam + 0.3) < 1e-12


@pytest.mark.parametrize("depth", [1e8, 1e10, 1e12, 1e14])
def test_root_find_brackets_deep_step_potentials(depth):
    # rank-one kernel: half(1/a + 1/(a + D)) = 1 with a = lambda + 1, whose
    # positive root is 2D / ((2D - 2) + sqrt((2D - 2)^2 + 8D)) without cancellation
    grid = ts.TorusGrid(1, 16)
    result = ts.max_eigenvalue_bisection(ts.constant_kernel(grid), ts.step_potential(grid, depth))
    a = 2 * depth / ((2 * depth - 2) + math.sqrt((2 * depth - 2) ** 2 + 8 * depth))
    assert abs(result.lam - (a - 1.0)) <= ts.AnalysisOptions().bisection_tol


def test_bisection_zero_potential_modes():
    grid = ts.TorusGrid(1, 32)
    kernel = ts.constant_kernel(grid)
    potential = ts.zero_potential(grid)
    boundary = ts.max_eigenvalue_bisection(kernel, potential)
    assert boundary.lam == 0.0
    assert boundary.ground_state.min() > 0


def test_shifted_power_constant_fixture():
    grid, kernel, potential = make_f1()
    gen = ts.assemble_generator(kernel, potential)
    result = ts.max_eigenvalue_shifted_power(gen)
    assert abs(result.lam + 0.3) < 1e-10
    assert np.std(result.perron.vector) < 1e-9  # constant ground state


def test_fixed_point_radius_at_returned_eigenvalue():
    # measure the radius with a sharper certificate than the bisection tol
    for seed in (0, 1, 2):
        grid, kernel, potential = random_fixture(seed)
        result = ts.max_eigenvalue_bisection(
            kernel, potential, ts.AnalysisOptions(bisection_tol=1e-12, power_tol=1e-13)
        )
        assert abs(result.radius_at_lambda - 1.0) <= 1e-11


def test_analyze_constant_fixture_report():
    grid, kernel, potential = make_f1()
    report = ts.analyze(kernel, potential)
    for value in report.lambda_by_method.values():
        assert abs(value + 0.3) < 1e-8
    assert list(report.essential.spectrum_points) == [-1.3]
    assert len(report.discrete_eigenvalues) == 1
    assert abs(report.discrete_eigenvalues[0] - (-0.3)) < 1e-10
    assert report.diagnostics["conforming"]
    assert report.diagnostics["ground_state_residual"] <= 1e-8


def test_analyze_two_level_fixture_report():
    grid, kernel, potential = make_f2()
    report = ts.analyze(kernel, potential)
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
    report = ts.analyze(ts.constant_kernel(grid), ts.step_potential(grid, depth, 0.5), options)
    assert report.diagnostics["conforming"]
    assert report.max_eigenvalue < 0.0
    values = report.lambda_by_method.values()
    assert max(values) - min(values) <= options.cross_tol
    oracle = two_level_eigenvalue_oracle((-depth, 0.0), shifts=(1.0 + depth, 1.0))
    assert abs(report.lambda_by_method["q_bisection"] - oracle) <= options.bisection_tol


def test_analyze_nonsymmetric_fixture():
    grid, kernel, potential = make_f4()
    report = ts.analyze(kernel, potential)
    # kernel part acts as rank one on constants; perturbation only moves
    # mean-zero modes, so the top eigenvalue matches the constant fixture
    for value in report.lambda_by_method.values():
        assert abs(value + 0.3) < 1e-8
    assert report.ground_state.min() > 0
    assert report.adjoint_ground_state.min() > 0


def test_analyze_sign_location_properties_random():
    for seed in (10, 11, 12):
        grid, kernel, potential = random_fixture(seed)
        report = ts.analyze(kernel, potential)
        assert -report.essential.alpha1 < report.max_eigenvalue < 0.0
        assert report.ground_state.min() > 0
        assert report.adjoint_ground_state.min() > 0
        assert report.diagnostics["ground_state_residual"] <= 1e-8
        # simplicity: next eigenvalue strictly below the maximum one
        gen = ts.assemble_generator(kernel, potential)
        values = ts.full_spectrum(gen)
        assert values[1].real < report.max_eigenvalue - 1e-6


def test_analyze_adjoint_consistency():
    for make in (make_f1, make_f2):
        grid, kernel, potential = make(n=64)
        gen = ts.assemble_generator(kernel, potential)
        lam = ts.max_eigenvalue_shifted_power(gen).lam
        lam_adj = ts.max_eigenvalue_shifted_power(ts.OperatorMatrix(gen.data.T, grid)).lam
        assert abs(lam - lam_adj) < 1e-8


def test_analyze_zero_potential_diagnostic_mode():
    grid = ts.TorusGrid(1, 32)
    kernel = ts.constant_kernel(grid)
    potential = ts.zero_potential(grid)
    report = ts.analyze(kernel, potential)
    assert report.max_eigenvalue == 0.0
    assert not report.diagnostics["conforming"]
    for value in report.lambda_by_method.values():
        assert abs(value) < 1e-9


def test_analyze_rejects_flipped_potential():
    grid = ts.TorusGrid(1, 16)
    with pytest.raises(ts.PositivePotential):
        ts.Potential(ts.TorusGrid(1, 16), np.full(16, 0.3))


def test_analyze_propagates_not_primitive():
    n = 8
    samples = np.zeros((n, n))
    samples[: n // 2, : n // 2] = 1.0
    samples[n // 2 :, n // 2 :] = 1.0
    kernel = ts.GenericKernel(ts.TorusGrid(1, n), samples)
    grid = ts.TorusGrid(1, n)
    with pytest.raises(ts.NotPrimitive):
        ts.analyze(kernel, ts.constant_potential(grid, 0.3))


def test_analyze_not_converged_exit():
    grid, kernel, potential = make_f1(n=16)
    with pytest.raises(ts.NotConverged):
        ts.analyze(kernel, potential, ts.AnalysisOptions(max_iter=1))


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
    report = ts.analyze(kernel, potential)
    assert len(calls) == 1
    assert report.essential.alpha1 == float((kernel.w - potential.samples).min())


def test_analyze_order_above_cap_is_typed_error():
    grid, kernel, potential = make_f2(n=16)
    with pytest.raises(ts.DimensionMismatch, match="exceeds the cap 8"):
        ts.analyze(kernel, potential, ts.AnalysisOptions(spectrum_order_cap=8))


@pytest.mark.parametrize("make, symmetric", [(make_f3, True), (make_f4, False)], ids=["f3", "f4"])
def test_adjoint_state_is_solved_only_for_a_nonsymmetric_kernel(make, symmetric, monkeypatch):
    real = ts.spectral.assemble_birman_schwinger
    adjoint_calls = []

    def recorded(*args, adjoint=False, **kwargs):
        adjoint_calls.append(adjoint)
        return real(*args, adjoint=adjoint, **kwargs)

    monkeypatch.setattr(ts.spectral, "assemble_birman_schwinger", recorded)
    grid, kernel, potential = make(n=64)
    result = ts.max_eigenvalue_bisection(kernel, potential)
    assert adjoint_calls == ([False] if symmetric else [False, True])
    assert (result.adjoint_state is result.ground_state) == symmetric
    generator = ts.assemble_generator(kernel, potential)
    phi = result.adjoint_state
    assert np.linalg.norm(generator.data.T @ phi - result.lam * phi) <= 1e-8
    assert phi.min() > 0


NON_DEFAULT = ts.AnalysisOptions(seed=7, power_tol=1e-13, bisection_tol=1e-10, max_iter=5000)


def test_analyze_hands_its_options_to_both_solvers():
    grid, kernel, potential = make_f4(n=64)  # nonsymmetric: the bisection solves the adjoint too
    generator = ts.assemble_generator(kernel, potential)
    records = []
    for options in (NON_DEFAULT, ts.AnalysisOptions()):
        report = ts.analyze(kernel, potential, options)
        bisected = ts.max_eigenvalue_bisection(kernel, potential, options)
        shifted = ts.max_eigenvalue_shifted_power(generator, options)
        assert report.lambda_by_method["q_bisection"] == bisected.lam
        assert report.lambda_by_method["perron_shift"] == shifted.lam
        assert report.diagnostics["ratio_perron_iterations"] == bisected.perron_iterations
        assert report.diagnostics["perron_shift_iterations"] == shifted.perron.iterations
        records.append((bisected.perron_iterations, shifted.perron.iterations))
    assert records[0][0] != records[1][0] and records[0][1] != records[1][1]  # the settings bite


def test_evolve_estimate_takes_the_analysis_options(tmp_path):
    raw = {"dimension": 1, "grid_n": 64, "kernel": {"family": "sine"},
           "potential": {"family": "step", "depth": 1.0}, "analysis": asdict(NON_DEFAULT)}
    config = ts.config_from_dict(raw)
    assert config.analysis == NON_DEFAULT
    assert run_command("evolve", config, str(tmp_path)) == 0
    summary = json.loads((tmp_path / "evolution.json").read_text())
    grid = config.build_grid()
    generator = ts.assemble_generator(config.build_kernel(grid)[1], config.build_potential(grid))
    assert summary["lambda_estimate"] == ts.max_eigenvalue_shifted_power(generator, config.analysis).lam


def test_shifted_power_and_evolve_refuse_an_operator_without_its_edge():
    # a zero diagonal gives no stiffness to take the default step from; the
    # shifted power needs none and returns the zero matrix's eigenvalue
    grid = ts.TorusGrid(1, 16)
    flat = ts.OperatorMatrix(np.zeros((grid.size, grid.size)), grid)
    with pytest.raises(ValueError, match="no negative diagonal entry"):
        ts.evolve(flat, np.ones(grid.size), 1.0)
    assert np.all(ts.evolve(flat, np.ones(grid.size), 1.0, dt=0.1).sup_norms == 1.0)
    assert ts.max_eigenvalue_shifted_power(flat).lam == 0.0


def test_a_bare_matrix_gives_the_shifted_power_and_default_step_of_the_generator():
    grid, kernel, potential = make_f4(n=32)
    generator = ts.assemble_generator(kernel, potential)
    bare = ts.OperatorMatrix(generator.data, grid)
    shifted, bare_shifted = (ts.max_eigenvalue_shifted_power(m) for m in (generator, bare))
    assert bare_shifted.lam == shifted.lam
    assert bare_shifted.perron.iterations == shifted.perron.iterations
    assert np.array_equal(bare_shifted.perron.vector, shifted.perron.vector)
    u0 = np.linspace(0.5, 1.5, grid.size)
    trace, bare_trace = (ts.evolve(m, u0, t_max=2.0) for m in (generator, bare))
    for name in ("times", "l2_norms", "sup_norms", "masses"):
        assert np.array_equal(getattr(bare_trace, name), getattr(trace, name))
    assert bare_trace.rk4_step_min == trace.rk4_step_min
    assert bare_trace.decay_rate_fit == trace.decay_rate_fit

    transposed = ts.OperatorMatrix(generator.data.T, grid)
    assert not np.array_equal(transposed.data, generator.data)
    assert abs(ts.max_eigenvalue_shifted_power(transposed).lam - shifted.lam) <= ts.AnalysisOptions().cross_tol
    assert ts.evolve(transposed, u0, t_max=2.0).rk4_step_min > 0
