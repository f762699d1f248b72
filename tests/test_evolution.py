"""Time integration, decay-rate fits, positivity, extinction."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torspec as ts
from torspec.evolution import EXTINCTION_THRESHOLD, RK4_SUBSTEP_CAP, _rk4_propagator, default_dt
from conftest import make_f1, make_f2, make_f3, make_f4, two_level_eigenvalue_oracle


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
    assert summary["extinct"]
    assert summary["ratio"] < 1e-3

    grid2, kernel2, potential2 = make_f2(n=128)
    gen2 = ts.assemble_generator(kernel2, potential2)
    lam = two_level_eigenvalue_oracle((-0.999, -1e-6))
    trace2 = ts.evolve(gen2, np.ones(grid2.size), t_max=40.0 / abs(lam),
                       method="eigenexpansion")
    assert ts.check_extinction(trace2)["extinct"]

    conservative = ts.assemble_generator(kernel, ts.zero_potential(grid))
    flat = ts.evolve(conservative, np.ones(grid.size), t_max=10.0)
    summary_flat = ts.check_extinction(flat)
    assert not summary_flat["extinct"]
    assert abs(summary_flat["ratio"] - 1.0) < 1e-9


def _extinction_by_index_loop(l2, times):
    """The onset of the non-increasing tail found by walking back from the last step."""
    decreasing = l2[1:] <= l2[:-1] * (1.0 + 1e-12)
    onset = len(l2) - 1
    for k in range(len(l2) - 2, -1, -1):
        if decreasing[k]:
            onset = k
        else:
            break
    ratio = l2[-1] / l2[0]
    return float(times[onset]), bool(onset < len(l2) - 1 and ratio < EXTINCTION_THRESHOLD)


@pytest.mark.parametrize("l2", [
    [1.0, 1.2, 0.5, 0.8, 0.1, 1e-4, 1e-5],  # rises twice, the last mid-way
    [1.0, 0.1, 1e-4, 1e-5, 2e-5],  # the last step rises
    [1.0, 1.0 + 5e-13, 1.0 + 9e-13, 1.0 + 9e-13],  # flat within 1e-12
    [1.0, 1e-4, 1e-5],  # non-increasing throughout
    [1.0, np.nan, 1e-4, 1e-5],  # a NaN step counts as a rise
    [1.0],
])
def test_extinction_onset_is_one_past_the_last_rise(l2):
    l2 = np.array(l2)
    times = np.arange(l2.size) * 0.5
    trace = ts.EvolutionTrace(times, l2, l2, l2, 0.0, (0.0, 0.0), 0.0)
    summary = ts.check_extinction(trace)
    assert (summary["monotone_from"], summary["extinct"]) == _extinction_by_index_loop(l2, times)


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
    with pytest.raises(ts.DegenerateKernel):
        ts.evolve(bare, np.ones(16), t_max=1.0)  # zero diagonal, no default dt


@pytest.mark.parametrize("method", ["rk4", "eigenexpansion"])
@pytest.mark.parametrize("t_max, dt, entry, message", [
    (math.nan, None, 1.0, "t_max must be positive and finite"),
    (math.inf, None, 1.0, "t_max must be positive and finite"),
    (1.0, math.nan, 1.0, "dt must be positive"),
    (1.0, None, math.nan, "initial density must be finite"),
    (1.0, None, math.inf, "initial density must be finite"),
], ids=["t_max-nan", "t_max-inf", "dt-nan", "u0-nan", "u0-inf"])
def test_evolve_refuses_non_finite_arguments(method, t_max, dt, entry, message):
    grid, kernel, potential = make_f2(n=16)
    gen = ts.assemble_generator(kernel, potential)
    u0 = np.ones(grid.size)
    u0[3] = entry
    with pytest.raises(ValueError, match=message):
        ts.evolve(gen, u0, t_max=t_max, dt=dt, method=method)


@pytest.mark.parametrize("snapshots", [0, 1])
def test_evolve_refuses_fewer_than_two_snapshots(snapshots):
    # 0 indexed an empty time array, 1 returned t = 0 alone and ignored t_max
    grid, kernel, potential = make_f3(n=16)
    gen = ts.assemble_generator(kernel, potential)
    for method in ("rk4", "eigenexpansion"):
        with pytest.raises(ValueError, match="snapshots must be at least 2"):
            ts.evolve(gen, np.ones(grid.size), t_max=5.0, method=method, snapshots=snapshots)


@pytest.mark.parametrize("snapshots", [2.5, 2.0, np.float64(3.0)])
def test_evolve_refuses_snapshots_that_are_not_integers(snapshots):
    # each raised a bare TypeError from np.linspace
    grid, kernel, potential = make_f3(n=16)
    gen = ts.assemble_generator(kernel, potential)
    with pytest.raises(ValueError, match="snapshots must be at least 2 and an integer"):
        ts.evolve(gen, np.ones(grid.size), t_max=1.0, snapshots=snapshots)


def test_default_step_from_edge_metadata():
    grid, kernel, potential = make_f1(n=32)
    gen = ts.assemble_generator(kernel, potential)
    trace = ts.evolve(gen, np.ones(32), t_max=2.0)
    assert trace.times[0] == 0.0 and trace.times[-1] == 2.0
    assert len(trace.times) == 200


@pytest.mark.parametrize("window", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
def test_fit_refuses_a_non_finite_window(window):
    times = np.linspace(0.0, 4.0, 20)
    trace = ts.EvolutionTrace(times, np.ones(20), np.ones(20), np.ones(20), 0.0, (0.0, 4.0), 0.0)
    with pytest.raises(ValueError, match="window outside the trace"):
        ts.fit_decay_rate(trace, window)


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


def _gaussian(dimension, n, potential):
    grid = ts.TorusGrid(dimension, n)
    return ts.convolution_kernel(ts.wind_kernel(ts.gaussian_kernel(dimension, 0.2), n)), potential(grid)


def _fibre(n):
    """A non-symmetric convolution kernel and a potential that varies along axis 1 alone:
    the fibre x_0 = 0, with no reflection."""
    grid, rng = ts.TorusGrid(2, n), np.random.default_rng(n)
    kernel = ts.convolution_kernel(ts.WoundKernel(grid, rng.uniform(0.1, 1.0, (n, n))))
    return kernel, ts.Potential(grid, np.broadcast_to(-rng.uniform(0.0, 2.0, n), (n, n)).ravel())


EVOLVED = {  # (kernel, potential), and the order evolve runs at
    "fibre-2d": (lambda: _fibre(12), 12),
    "fibre-sector-2d": (lambda: _gaussian(2, 16, ts.step_potential), 8),
    "sector-1d": (lambda: _gaussian(1, 32, ts.step_potential), 16),
    "sector-fixed-1d": (lambda: _gaussian(1, 18, ts.step_potential), 10),
    "order-1-1d": (lambda: make_f1(n=16)[1:], 1),
    "order-1-2d": (lambda: _gaussian(2, 24, lambda g: ts.constant_potential(g, 0.3)), 1),  # 200 lifts: two blocks
    "unreduced-1d": (lambda: _gaussian(1, 16, lambda g: ts.Potential(g, -np.linspace(0.0, 1.0, 16) ** 2)), 16),
    "whole-1d": (lambda: make_f4(n=16)[1:], 16),  # not reduced: the generator has no ``reduction``
}


@functools.lru_cache(maxsize=None)
def _evolved_generator(name):
    build, order = EVOLVED[name]
    kernel, potential = build()
    if name.startswith("whole"):
        generator = ts.assemble_generator(kernel, potential)
    else:
        model = ts.ReducedModel(kernel, potential)
        generator = model.reduce(model.generator)
    assert generator.data.shape[1] == order
    return generator


def _norms_one_snapshot_at_a_time(generator, u0, t_max, method, snapshots):
    """Reference: each state advanced (RK4) or reconstructed (eigenexpansion) alone, lifted
    alone, and reduced by np.sum and np.max; row 0 is u0.  The norms, and the least entry."""
    model, weight, times = generator.reduction, generator.grid.weight, np.linspace(0.0, t_max, snapshots)
    c = u0 if model is None else u0[model.nodes] * (1.0 if model.scale is None else model.scale)
    if method == "rk4":
        span = float(t_max) / (snapshots - 1)
        substeps = max(float(np.ceil(span / default_dt(generator) - 1e-12)), 1.0)
        propagator = _rk4_propagator(generator.data, span / substeps, int(substeps))[0]
        states = [c]
        for _ in times[1:]:
            states.append(propagator @ states[-1])
    else:
        evals, vectors = (np.linalg.eigh if generator.symmetric else np.linalg.eig)(generator.data)
        coeff = vectors.T @ c if generator.symmetric else np.linalg.solve(vectors, c.astype(complex))
        states = [c] + [(vectors @ (coeff * np.exp(evals * t))).real for t in times[1:]]
    if model is not None:
        states = [(s if model.scale is None else s / model.scale)[model.orbit] for s in states]
    states[0] = u0
    norms = [(np.sqrt(weight * np.sum(u**2)), np.max(np.abs(u)), weight * np.sum(u)) for u in states]
    return np.array(norms).T, min(float(u.min()) for u in states)


@settings(max_examples=100)
@given(
    st.sampled_from(sorted(EVOLVED)),
    st.sampled_from(["rk4", "eigenexpansion"]),
    st.sampled_from([2, 3, 57, 200]),
    st.floats(0.5, 20.0),
    st.integers(0, 2**32 - 1),
)
def test_evolve_takes_the_norms_of_each_lifted_state_bit_for_bit(name, method, snapshots, t_max, seed):
    generator = _evolved_generator(name)
    model, c = generator.reduction, np.random.default_rng(seed).uniform(0.5, 1.5, generator.data.shape[1])
    u0 = c if model is None else c[model.orbit]  # in the model's range, any value at a fixed node
    trace = ts.evolve(generator, u0, t_max=t_max, method=method, snapshots=snapshots)
    (l2, sup, masses), least = _norms_one_snapshot_at_a_time(generator, u0, t_max, method, snapshots)
    for got, want in ((trace.l2_norms, l2), (trace.sup_norms, sup), (trace.masses, masses)):
        assert got.tobytes() == want.tobytes()
    assert trace.min_value_seen == least


def test_the_first_snapshot_is_the_start_itself():
    generator = _evolved_generator("sector-fixed-1d")
    model = generator.reduction
    fixed = np.flatnonzero(model.scale != 1.0)[0]
    q = model.scale[fixed]
    c = np.full(model.order, 0.5)
    c[fixed] = next(x for x in np.linspace(1.0, 1.5, 101) if x * q / q != x)  # its coordinate lifts to another float
    trace = ts.evolve(generator, c[model.orbit], t_max=1.0, snapshots=2)
    assert trace.sup_norms[0] == c[fixed]


def test_evolve_lifts_its_states_in_blocks():
    grid = ts.TorusGrid(2, 48)
    model = ts.ReducedModel(*_gaussian(2, 48, lambda g: ts.constant_potential(g, 0.3)))
    generator = model.reduce(model.generator)
    assert model.order == 1
    u0 = np.ones(grid.size)
    ts.evolve(generator, u0, t_max=10.0)  # loads what numpy loads lazily
    tracemalloc.start()
    try:
        ts.evolve(generator, u0, t_max=10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 200 lifted snapshots of 2304 nodes are 3.7 MB; a block of at most 2^16 entries is 0.5 MB
    assert peak < 1.5e6
