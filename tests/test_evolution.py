"""Time integration, decay-rate fits, positivity, extinction."""

import tracemalloc

import numpy as np
import pytest

import torspec as ts
from torspec.evolution import RK4_SUBSTEP_CAP
from conftest import make_f1, make_f2, make_f3, two_level_eigenvalue_oracle


def _rk4_step(mat, u, dt):
    k1 = mat.matvec(u)
    k2 = mat.matvec(u + 0.5 * dt * k1)
    k3 = mat.matvec(u + 0.5 * dt * k2)
    k4 = mat.matvec(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_reference_states(gen, u0, t_max, dt, snapshots):
    """Reference integrator: the RK4 formula applied substep by substep,
    ceil(span / dt) substeps per output interval."""
    times = np.linspace(0.0, t_max, snapshots)
    states = [u0]
    u = u0.copy()
    for span in np.diff(times):
        substeps = max(int(np.ceil(span / dt - 1e-12)), 1)
        for _ in range(substeps):
            u = _rk4_step(gen, u, span / substeps)
        states.append(u)
    return np.array(states)


def test_constant_fixture_exact_exponential():
    grid, kernel, potential = make_f1()
    gen = ts.assemble_generator(kernel, potential)
    trace = ts.evolve(gen, np.ones(grid.size), t_max=10.0)
    assert np.max(np.abs(trace.l2_norms - np.exp(-0.3 * trace.times))) < 1e-9
    assert abs(trace.decay_rate_fit + 0.3) < 1e-9
    assert trace.min_value_seen >= 0.0


def test_zero_operator_constant_trace():
    grid = ts.TorusGrid(1, 16)
    zero = ts.OperatorMatrix(np.zeros((16, 16)), grid)
    trace = ts.evolve(zero, np.ones(16), t_max=5.0, dt=0.1)
    assert np.all(trace.l2_norms == trace.l2_norms[0])
    assert np.all(trace.masses == trace.masses[0])


def test_fit_exact_exponential_samples():
    times = np.linspace(0.0, 10.0, 50)
    trace = ts.EvolutionTrace(
        times=times,
        l2_norms=np.exp(-0.3 * times),
        sup_norms=np.exp(-0.3 * times),
        masses=np.exp(-0.3 * times),
        decay_rate_fit=float("nan"),
        fit_window=(0.0, 10.0),
        min_value_seen=0.0,
    )
    assert abs(ts.fit_decay_rate(trace, (0.0, 10.0)) + 0.3) < 1e-12


def test_fit_constant_trace_zero_slope():
    times = np.linspace(0.0, 4.0, 20)
    trace = ts.EvolutionTrace(times, np.ones(20), np.ones(20), np.ones(20),
                              0.0, (0.0, 4.0), 1.0)
    assert abs(ts.fit_decay_rate(trace, (0.0, 4.0))) < 1e-14


def test_fit_zero_norm_rejected():
    times = np.linspace(0.0, 4.0, 20)
    norms = np.ones(20)
    norms[-1] = 0.0
    trace = ts.EvolutionTrace(times, norms, norms, norms, 0.0, (0.0, 4.0), 0.0)
    with pytest.raises(ts.ZeroNorm):
        ts.fit_decay_rate(trace, (0.0, 4.0))
    with pytest.raises(ValueError):
        ts.fit_decay_rate(trace, (2.0, 9.0))


def test_two_level_fixture_decay_rate_window():
    lam = two_level_eigenvalue_oracle((-0.999, -1e-6))
    grid, kernel, potential = make_f2()
    gen = ts.assemble_generator(kernel, potential)
    trace = ts.evolve(gen, np.ones(grid.size), t_max=20.0)
    assert abs(ts.fit_decay_rate(trace, (10.0, 20.0)) - lam) < 1e-3
    assert trace.min_value_seen >= -1e-10


def test_rk4_matches_eigenexpansion_oracle():
    for make in (make_f1, make_f2, make_f3):
        grid, kernel, potential = make(n=64)
        gen = ts.assemble_generator(kernel, potential)
        u0 = np.ones(grid.size)
        integrated = ts.evolve(gen, u0, t_max=20.0, method="rk4")
        exact = ts.evolve(gen, u0, t_max=20.0, method="eigenexpansion")
        for a, b in (
            (integrated.l2_norms, exact.l2_norms),
            (integrated.sup_norms, exact.sup_norms),
            (integrated.masses, exact.masses),
        ):
            assert np.max(np.abs(a - b)) < 1e-6


def test_positivity_preserved_from_nonnegative_start():
    grid, kernel, potential = make_f2(n=64)
    gen = ts.assemble_generator(kernel, potential)
    rng = np.random.default_rng(1)
    u0 = rng.uniform(0.0, 2.0, grid.size)
    trace = ts.evolve(gen, u0, t_max=15.0)
    assert trace.min_value_seen >= -1e-10


def test_mass_derivative_identity_at_start():
    grid, kernel, potential = make_f2(n=64)
    gen = ts.assemble_generator(kernel, potential)
    u0 = np.ones(grid.size)
    derivative = grid.weight * gen.matvec(u0).sum()
    quadrature_v = grid.weight * potential.samples.sum()
    assert abs(derivative - quadrature_v) < 1e-13


def test_extinction_verdicts():
    grid, kernel, potential = make_f1()
    gen = ts.assemble_generator(kernel, potential)
    trace = ts.evolve(gen, np.ones(grid.size), t_max=40.0 / 0.3, method="eigenexpansion")
    summary = ts.check_extinction(trace)
    assert summary.extinct
    assert summary.ratio < 1e-3

    grid2, kernel2, potential2 = make_f2(n=128)
    gen2 = ts.assemble_generator(kernel2, potential2)
    lam = two_level_eigenvalue_oracle((-0.999, -1e-6))
    trace2 = ts.evolve(gen2, np.ones(grid2.size), t_max=40.0 / abs(lam),
                       method="eigenexpansion")
    assert ts.check_extinction(trace2).extinct

    conservative = ts.assemble_generator(kernel, ts.zero_potential(grid))
    flat = ts.evolve(conservative, np.ones(grid.size), t_max=10.0)
    summary_flat = ts.check_extinction(flat)
    assert not summary_flat.extinct
    assert abs(summary_flat.ratio - 1.0) < 1e-9


def test_unstable_step_size_detected():
    grid, kernel, potential = make_f1(n=32)
    gen = ts.assemble_generator(kernel, potential)
    rng = np.random.default_rng(0)
    u0 = rng.uniform(0.5, 1.5, grid.size)
    with pytest.raises(ts.Unstable):
        ts.evolve(gen, u0, t_max=200.0, dt=10.0, snapshots=2)


def test_evolve_input_validation():
    grid, kernel, potential = make_f1(n=16)
    gen = ts.assemble_generator(kernel, potential)
    with pytest.raises(ts.DimensionMismatch):
        ts.evolve(gen, np.ones(3), t_max=1.0)
    with pytest.raises(ValueError):
        ts.evolve(gen, np.zeros(16), t_max=1.0)
    with pytest.raises(ValueError):
        ts.evolve(gen, np.ones(16), t_max=1.0, method="verlet")
    bare = ts.OperatorMatrix(np.zeros((16, 16)), grid)
    with pytest.raises(ValueError):
        ts.evolve(bare, np.ones(16), t_max=1.0)  # zero diagonal, no default dt


def test_default_step_from_edge_metadata():
    grid, kernel, potential = make_f1(n=32)
    gen = ts.assemble_generator(kernel, potential)
    trace = ts.evolve(gen, np.ones(32), t_max=2.0)
    assert trace.times[0] == 0.0 and trace.times[-1] == 2.0
    assert len(trace.times) == 200


def test_fit_window_with_one_snapshot_is_nan():
    times = np.linspace(0.0, 4.0, 5)
    trace = ts.EvolutionTrace(times, np.ones(5), np.ones(5), np.ones(5), 0.0, (0.0, 4.0), 1.0)
    assert np.isnan(ts.fit_decay_rate(trace, (0.5, 1.5)))
    assert np.isnan(ts.fit_decay_rate(trace, (1.2, 1.8)))


def test_evolve_refuses_more_rk4_substeps_than_the_cap():
    grid, kernel, potential = make_f1(n=16)
    gen = ts.assemble_generator(kernel, potential)
    with pytest.raises(ts.NotConverged, match="substeps"):
        ts.evolve(gen, np.ones(16), t_max=1.0, dt=0.5 / RK4_SUBSTEP_CAP)
    with pytest.raises(ts.NotConverged, match="substeps"):
        ts.evolve(gen, np.ones(16), t_max=1.0, dt=1e-300)
    trace = ts.evolve(gen, np.ones(16), t_max=1.0, snapshots=2)
    assert np.isnan(trace.decay_rate_fit)


@pytest.mark.parametrize("make", [make_f2, make_f3], ids=["f2", "f3"])
def test_rk4_propagator_matches_per_substep_reference(make):
    grid, kernel, potential = make(n=32)
    gen = ts.assemble_generator(kernel, potential)
    u0 = np.random.default_rng(4).uniform(0.5, 1.5, grid.size)
    trace = ts.evolve(gen, u0, t_max=12.0, dt=0.07, snapshots=37)
    states = _rk4_reference_states(gen, u0, 12.0, 0.07, 37)
    reference = (
        np.sqrt(grid.weight * np.sum(states**2, axis=1)),
        np.max(np.abs(states), axis=1),
        grid.weight * np.sum(states, axis=1),
    )
    for got, want in zip((trace.l2_norms, trace.sup_norms, trace.masses), reference):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11
    # taken at the snapshots, as the reference is
    assert abs(trace.min_value_seen - states.min()) <= 1e-11 * abs(states.min())


def test_rk4_step_map_certificate():
    for make in (make_f1, make_f2, make_f3):
        grid, kernel, potential = make(n=32)
        gen = ts.assemble_generator(kernel, potential)
        trace = ts.evolve(gen, np.ones(grid.size), t_max=20.0)
        assert trace.rk4_step_min >= 0.0
        assert trace.min_value_seen >= 0.0
        exact = ts.evolve(gen, np.ones(grid.size), t_max=20.0, method="eigenexpansion")
        assert exact.rk4_step_min is None
    # one substep far past the positivity limit: the certificate fails, and
    # the state does turn negative
    grid, kernel, potential = make_f2(n=32)
    gen = ts.assemble_generator(kernel, potential)
    coarse = ts.evolve(gen, np.ones(grid.size), t_max=2.5, dt=2.5, snapshots=2)
    assert coarse.rk4_step_min < 0.0
    assert coarse.min_value_seen < 0.0


def test_rk4_propagator_holds_three_matrix_buffers():
    grid, kernel, potential = make_f3(n=128)
    gen = ts.assemble_generator(kernel, potential)
    u0 = np.ones(grid.size)
    tracemalloc.start()
    try:
        ts.evolve(gen, u0, t_max=40.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the step map, its power and one scratch, plus room for vectors
    assert peak <= 3.25 * gen.data.nbytes
