"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import json
import math
import time

import numpy as np

import torspec as ts
from torspec import jsonio
from torspec.cli import main
from conftest import (
    FIXTURE_DIR,
    make_f1,
    make_f2,
    make_f3,
    make_f4,
    random_fixture,
    two_level_eigenvalue_oracle,
)

N_RANDOM_FIXTURES = 20


def _verdict(number, ok, detail):
    print(f"[acceptance {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_constant_fixture_three_methods():
    start = time.perf_counter()
    grid, kernel, potential = make_f1(n=128)
    report = ts.analyze(kernel, potential)
    elapsed = time.perf_counter() - start
    errors = {name: abs(value + 0.3) for name, value in report.lambda_by_method.items()}
    ok = (
        all(err <= 1e-8 for err in errors.values())
        and list(-report.essential) == [-1.3]
        and elapsed < 5.0
    )
    _verdict(1, ok, f"lambda errors {errors}, essential {list(-report.essential)}, "
                    f"{elapsed:.2f}s")


def test_criterion_02_two_level_fixture_against_oracle():
    lam_top = two_level_eigenvalue_oracle((-0.999, -1e-6))
    lam_bottom = two_level_eigenvalue_oracle((-1.999, -1.001))
    grid, kernel, potential = make_f2(n=256)
    report = ts.analyze(kernel, potential)
    found = sorted(z.real for z in report.discrete_eigenvalues)
    ok = (
        abs(report.max_eigenvalue - lam_top) <= 1e-6
        and abs(report.max_eigenvalue - (-1 + 1 / math.sqrt(2))) <= 1e-6
        and len(found) == 2
        and abs(found[0] - lam_bottom) <= 1e-6
        and list(report.essential) == [1.0, 2.0]
    )
    _verdict(2, ok, f"lambda {report.max_eigenvalue!r} vs oracle {lam_top!r}, "
                    f"second {found[0]!r} vs {lam_bottom!r}, essential {list(-report.essential)}")


def test_criterion_03_gap_bound_two_level_fixture():
    grid, kernel, potential = make_f2(n=256)
    wound = ts.WoundKernel(grid, np.ones(grid.n))
    report = ts.analyze(kernel, potential)
    bound = ts.gap_constants(potential, ts.convolution_kernel(wound))
    verdict = ts.verify_gap(report, bound)
    ok = (
        abs(bound["kappa"] - 0.0246914) <= 1e-6
        and bound["c1"] == 0.5
        and abs(bound["norm_v2"] - math.sqrt(0.5)) <= 1e-12
        and abs(bound["gamma0"] - 0.157135) <= 1e-6
        and abs(bound["c2"] - 1.0) <= 1e-12
        and verdict["verdict"] == "pass"
        and abs(verdict["margin"] - (-0.268)) <= 1e-3
    )
    _verdict(3, ok, f"kappa {bound['kappa']!r}, margin {verdict['margin']!r}, verdict "
                    f"{verdict['verdict']}")


def test_criterion_04_radius_scan_monotone_on_random_fixtures():
    start = time.perf_counter()
    worst_violation = 0.0
    worst_tail = 0.0
    for seed in range(N_RANDOM_FIXTURES):
        grid, kernel, potential = random_fixture(seed, n=64)
        rates = ts.jump_rate(kernel)
        u = -potential.samples
        alpha1 = float((u + rates).min())
        alpha0 = float((u + rates).max())
        gamma2 = float(rates.max())
        mus = np.linspace(-alpha1 + 0.05 * (alpha0 - alpha1 + 1.0), 10.0 * gamma2, 50)
        radii = np.array([
            ts.perron(ts.assemble_birman_schwinger(ts.ReducedModel(kernel, potential), mu).data).rho for mu in mus
        ])
        worst_violation = max(worst_violation, float(np.max(radii[1:] - radii[:-1])))
        worst_tail = max(worst_tail, float(radii[-1]))
    elapsed = time.perf_counter() - start
    ok = worst_violation <= 1e-9 and worst_tail < 0.1 and elapsed < 60.0
    _verdict(4, ok, f"{N_RANDOM_FIXTURES} fixtures, worst increase {worst_violation:.2e}, "
                    f"radius at 10*gamma2 {worst_tail:.4f}, {elapsed:.1f}s")


def test_criterion_05_sign_location_and_adjoint_on_random_fixtures():
    worst_residual = 0.0
    worst_adjoint_gap = 0.0
    located = True
    positive = True
    for seed in range(N_RANDOM_FIXTURES):
        grid, kernel, potential = random_fixture(seed, n=64)
        result = ts.max_eigenvalue_bisection(ts.ReducedModel(kernel, potential))
        rates = ts.jump_rate(kernel)
        alpha1 = float((-potential.samples + rates).min())
        located = located and (-alpha1 < result.lam < 0.0)
        positive = positive and result.ground_state.min() > 0 and result.adjoint_state.min() > 0
        generator = ts.assemble_generator(kernel, potential)
        residual = float(np.linalg.norm(
            generator.matvec(result.ground_state) - result.lam * result.ground_state
        ))
        worst_residual = max(worst_residual, residual)
        lam_direct = ts.max_eigenvalue_shifted_power(generator).rho
        transposed = ts.OperatorMatrix(generator.data.T, grid)
        lam_adjoint = ts.max_eigenvalue_shifted_power(transposed).rho
        worst_adjoint_gap = max(worst_adjoint_gap, abs(lam_direct - lam_adjoint))
        worst_adjoint_gap = max(worst_adjoint_gap, abs(lam_direct - result.lam))
    ok = located and positive and worst_residual <= 1e-8 and worst_adjoint_gap <= 1e-8
    _verdict(5, ok, f"{N_RANDOM_FIXTURES} fixtures, worst residual {worst_residual:.2e}, "
                    f"worst adjoint gap {worst_adjoint_gap:.2e}")


def test_criterion_06_schur_bound_all_fixtures():
    worst_ratio = 0.0
    cases = [make_f1(), make_f2(), make_f3(), make_f4()]
    cases += [random_fixture(seed, n=64) for seed in range(N_RANDOM_FIXTURES)]
    for grid, kernel, _ in cases:
        stats = ts.kernel_stats(kernel)
        norm = np.linalg.norm(grid.weight * kernel.rows(), 2)
        bound = math.sqrt(stats["row_integral_max"] * stats["col_integral_max"])
        worst_ratio = max(worst_ratio, norm / bound)
    ok = worst_ratio <= 1.0 + 1e-8
    _verdict(6, ok, f"{len(cases)} kernels, worst norm/bound ratio {worst_ratio:.12f}")


def test_criterion_07_winding_and_symbol():
    tophat = ts.wind_kernel(ts.tophat_kernel(1, 1.0), 128)
    gaussian = ts.wind_kernel(ts.gaussian_kernel(1, 0.2), 128, 1e-12)
    symbol = ts.fourier_symbol(gaussian)
    analytic = math.exp(-2.0 * math.pi**2 * 0.04)
    mass_err = abs(gaussian.quadrature_mass() - 1.0)
    symbol_err = abs(symbol[1] - analytic)
    ok = bool(np.all(tophat.samples == 1.0)) and mass_err <= 1e-8 and symbol_err <= 1e-6
    _verdict(7, ok, f"tophat exact, gaussian mass error {mass_err:.2e}, "
                    f"first mode {symbol[1].real:.5f} vs {analytic:.5f}")


def test_criterion_08_evolution_decay_and_oracle_agreement():
    grid1, kernel1, potential1 = make_f1(n=128)
    gen1 = ts.assemble_generator(kernel1, potential1)
    trace1 = ts.evolve(gen1, np.ones(grid1.size), t_max=10.0)
    exact1 = ts.evolve(gen1, np.ones(grid1.size), t_max=10.0, method="eigenexpansion")

    lam = two_level_eigenvalue_oracle((-0.999, -1e-6))
    grid2, kernel2, potential2 = make_f2(n=256)
    gen2 = ts.assemble_generator(kernel2, potential2)
    trace2 = ts.evolve(gen2, np.ones(grid2.size), t_max=20.0)
    exact2 = ts.evolve(gen2, np.ones(grid2.size), t_max=20.0, method="eigenexpansion")

    fit1 = trace1.decay_rate_fit
    fit2 = ts.fit_decay_rate(trace2, (10.0, 20.0))
    sup_diff = max(
        float(np.max(np.abs(trace1.l2_norms - exact1.l2_norms))),
        float(np.max(np.abs(trace1.sup_norms - exact1.sup_norms))),
        float(np.max(np.abs(trace2.l2_norms - exact2.l2_norms))),
        float(np.max(np.abs(trace2.sup_norms - exact2.sup_norms))),
    )
    min_seen = min(trace1.min_value_seen, trace2.min_value_seen)
    ok = (
        abs(fit1 + 0.3) <= 1e-3
        and abs(fit2 - lam) <= 1e-3
        and min_seen >= -1e-10
        and sup_diff <= 1e-6
    )
    _verdict(8, ok, f"fits {fit1:.6f} / {fit2:.6f}, min sample {min_seen:.1e}, "
                    f"integrator vs oracle {sup_diff:.1e}")


def test_criterion_09_analyze_is_deterministic(tmp_path):
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        code = main(["analyze", "--config", str(FIXTURE_DIR / "f2.json"),
                     "--out", str(out), "--seed", "0"])
        assert code == 0
        document = json.loads((out / "report.json").read_text())
        document.pop("metadata")
        outputs.append(jsonio.dumps(document))
    ok = outputs[0] == outputs[1]
    _verdict(9, ok, f"reports byte-identical with metadata excluded: {ok}")


def test_criterion_10_two_dimensional_smoke():
    start = time.perf_counter()
    grid = ts.TorusGrid(2, 24)
    report = ts.analyze(ts.constant_kernel(grid), ts.constant_potential(grid, 0.3))
    elapsed = time.perf_counter() - start
    errors = {name: abs(value + 0.3) for name, value in report.lambda_by_method.items()}
    ok = all(err <= 1e-8 for err in errors.values()) and elapsed < 30.0
    _verdict(10, ok, f"lambda errors {errors}, {elapsed:.1f}s on a {grid.size}-node grid")
