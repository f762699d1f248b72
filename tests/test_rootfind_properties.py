"""Property tests of the shift root find on small random 1-D models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import torspec as ts
from conftest import random_convolution_fixture, random_fixture

CROSS_TOL = ts.AnalysisOptions().cross_tol
BISECTION_TOL = ts.AnalysisOptions().bisection_tol
POWER_TOL = ts.AnalysisOptions().power_tol

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)

models = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([8, 16, 32, 64]),
    st.sampled_from(["generic", "convolution"]),
)


def build(model):
    seed, n, family = model
    if family == "generic":
        return random_fixture(seed, n)
    grid, wound, potential = random_convolution_fixture(seed, n)
    return grid, ts.convolution_kernel(wound, grid), potential


@PROPERTY
@given(models)
def test_root_find_agrees_with_direct_qr(model):
    grid, kernel, potential = build(model)
    result = ts.max_eigenvalue_bisection(kernel, potential, grid)
    lam_qr = ts.full_spectrum(ts.assemble_generator(kernel, potential, grid))[0].real
    assert abs(result.lam - lam_qr) <= CROSS_TOL
    assert result.ground_state.min() > 0 and result.adjoint_state.min() > 0


@PROPERTY
@given(models)
def test_bracket_is_narrow_and_straddles_unit_radius(model):
    """The root find decides each side with warm-started estimates; a cold
    solve on the assembled operator agrees with them to the Perron tolerance,
    the resolution at which either estimate can tell the radius from one."""
    grid, kernel, potential = build(model)
    result = ts.max_eigenvalue_bisection(kernel, potential, grid)
    lo, hi = result.bracket
    assert 0.0 < hi - lo <= BISECTION_TOL
    assert lo < result.lam < hi
    radius = lambda mu: ts.perron(ts.assemble_birman_schwinger(kernel, potential, mu, grid)).rho
    assert radius(lo) >= 1.0 - POWER_TOL
    assert radius(hi) < 1.0 + POWER_TOL


@PROPERTY
@given(models, st.integers(0, 2**32 - 1))
def test_deepening_the_potential_does_not_raise_lambda(model, depth_seed):
    grid, kernel, potential = build(model)
    rng = np.random.default_rng(depth_seed)
    extra = rng.uniform(0.0, 0.5, grid.size) * (rng.random(grid.size) < 0.5)
    deeper = ts.Potential(1, grid.n, potential.samples - extra)
    lam = ts.max_eigenvalue_bisection(kernel, potential, grid).lam
    lam_deeper = ts.max_eigenvalue_bisection(kernel, deeper, grid).lam
    assert lam_deeper <= lam + 10 * BISECTION_TOL


@PROPERTY
@given(models)
def test_perron_warm_start_from_its_own_vector_stops_at_once(model):
    grid, kernel, potential = build(model)
    lam = ts.max_eigenvalue_bisection(kernel, potential, grid).lam
    q = ts.assemble_birman_schwinger(kernel, potential, lam, grid)
    cold = ts.perron(q, tol=POWER_TOL)
    warm = ts.perron(q, tol=POWER_TOL, start=cold.vector)
    assert warm.iterations == 1
    assert abs(warm.rho - cold.rho) <= POWER_TOL
