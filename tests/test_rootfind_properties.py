"""Property tests of the shift root find on small random 1-D models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import torspec as ts
from torspec.eigen import ROUNDING_ULPS
from conftest import (
    constant_fixture,
    mirror_fixture,
    random_convolution_fixture,
    random_fixture,
    whole_ratio_operator,
)

CROSS_TOL = ts.AnalysisOptions().cross_tol
BISECTION_TOL = ts.AnalysisOptions().bisection_tol
POWER_TOL = ts.AnalysisOptions().power_tol

PROPERTY = settings(max_examples=20)

models = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([8, 16, 32, 64]),
    st.sampled_from(["generic", "convolution"]),
)


# and models that reduce: exactly mirror-symmetric (even and odd n), or invariant along every axis
reducible_models = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([7, 8, 15, 16, 33, 64]),
    st.sampled_from(["generic", "convolution", "mirror", "constant"]),
)
FIXTURES = {"convolution": random_convolution_fixture, "mirror": mirror_fixture, "constant": constant_fixture}


def build(model):
    seed, n, family = model
    if family == "generic":
        return random_fixture(seed, n)
    grid, wound, potential = FIXTURES[family](seed, n)
    return grid, ts.convolution_kernel(wound), potential


def _whole_lambda(kernel, potential):
    """The reference: the top eigenvalue of the whole assembled matrix, by eigvalsh or eigvals."""
    data = ts.assemble_generator(kernel, potential).data
    return float((np.linalg.eigvalsh if kernel.symmetric else np.linalg.eigvals)(data).real.max())


def _reduction(model, reduced):
    """The reduced model, and a check that it reduces as its family says: to an even
    sector, of order n/2 or (n + 1)/2 or, with two fixed nodes, n/2 + 1; or to one mode."""
    n, family = model[1:]
    if family == "mirror":
        assert reduced.point is not None and reduced.order in (n // 2, n // 2 + 1)
    assert (reduced.order == 1) is (family == "constant")
    return reduced


@PROPERTY
@given(reducible_models)
def test_root_find_agrees_with_direct_qr(model):
    grid, kernel, potential = build(model)
    result = ts.max_eigenvalue_bisection(_reduction(model, ts.ReducedModel(kernel, potential)))
    assert abs(result.lam - _whole_lambda(kernel, potential)) <= CROSS_TOL
    assert result.ground_state.min() > 0 and result.adjoint_state.min() > 0
    assert result.ground_state.shape == (grid.size,) and abs(np.linalg.norm(result.ground_state) - 1.0) <= 1e-14


@PROPERTY
@given(reducible_models)
def test_bracket_is_narrow_and_straddles_unit_radius(model):
    """The root find decides each side with warm-started estimates; a cold
    solve on the assembled operator, reduced or whole, agrees with them to the
    Perron tolerance, the resolution at which either estimate can tell the
    radius from one."""
    grid, kernel, potential = build(model)
    reduced = _reduction(model, ts.ReducedModel(kernel, potential))
    result = ts.max_eigenvalue_bisection(reduced)
    lo, hi = result.bracket
    assert 0.0 < hi - lo <= BISECTION_TOL
    assert lo < result.lam < hi
    for radius in (lambda mu: ts.perron(ts.assemble_birman_schwinger(reduced, mu).data).rho,
                   lambda mu: ts.perron(whole_ratio_operator(kernel, potential, mu)).rho):
        assert radius(lo) >= 1.0 - POWER_TOL
        assert radius(hi) < 1.0 + POWER_TOL
    assert lo - CROSS_TOL <= _whole_lambda(kernel, potential) <= hi + CROSS_TOL


@PROPERTY
@given(models, st.integers(0, 2**32 - 1))
def test_deepening_the_potential_does_not_raise_lambda(model, depth_seed):
    grid, kernel, potential = build(model)
    rng = np.random.default_rng(depth_seed)
    extra = rng.uniform(0.0, 0.5, grid.size) * (rng.random(grid.size) < 0.5)
    deeper = ts.Potential(grid, potential.samples - extra)
    lam = ts.max_eigenvalue_bisection(ts.ReducedModel(kernel, potential)).lam
    lam_deeper = ts.max_eigenvalue_bisection(ts.ReducedModel(kernel, deeper)).lam
    assert lam_deeper <= lam + 10 * BISECTION_TOL


@PROPERTY
@given(models)
def test_perron_warm_start_from_its_own_vector_stops_at_once(model):
    grid, kernel, potential = build(model)
    lam = ts.max_eigenvalue_bisection(ts.ReducedModel(kernel, potential)).lam
    q = ts.assemble_birman_schwinger(ts.ReducedModel(kernel, potential), lam)
    cold = ts.perron(q.data, tol=POWER_TOL)
    warm = ts.perron(q.data, tol=POWER_TOL, start=cold.vector)
    assert warm.iterations == 1
    assert abs(warm.rho - cold.rho) <= POWER_TOL


@PROPERTY
@given(models)
def test_shifted_power_brackets_the_dense_eigenvalue(model):
    """The shifted power's Collatz-Wielandt bounds are shifted back onto M
    itself; taking off k = max(-M_ii) + 1 rounds each by a spacing of k."""
    grid, kernel, potential = build(model)
    generator = ts.assemble_generator(kernel, potential)
    result = ts.max_eigenvalue_shifted_power(generator)
    lam_qr = ts.full_spectrum(generator)[0].real
    slack = ROUNDING_ULPS * np.spacing(float(-np.diagonal(generator.data).min()) + 1.0)
    assert result.cw_lower - slack <= lam_qr <= result.cw_upper + slack
    assert result.cw_lower <= result.rho <= result.cw_upper


def _unit(v):
    return v / np.linalg.norm(v)


@PROPERTY
@given(models)
def test_adjoint_model_has_the_same_lambda(model):
    """M and its transpose share the maximum eigenvalue, and each one's
    ground state is the other's adjoint state.  The reflected convolution
    kernel b(y, x) has the same jump rate, so its generator is the
    transpose; a generic kernel's transpose changes W, so the shifted power
    runs on the transposed generator itself."""
    grid, kernel, potential = build(model)
    report = ts.analyze(kernel, potential)
    if model[2] == "convolution":
        reflected = ts.analyze(ts.GenericKernel(grid, kernel.rows().T), potential)
        assert abs(reflected.max_eigenvalue - report.max_eigenvalue) <= CROSS_TOL
        for state, adjoint in ((report.ground_state, reflected.adjoint_ground_state),
                               (reflected.ground_state, report.adjoint_ground_state)):
            assert np.allclose(_unit(state), _unit(adjoint), rtol=0.0, atol=1e-9)
    else:
        generator = ts.assemble_generator(kernel, potential)
        adjoint = ts.max_eigenvalue_shifted_power(ts.OperatorMatrix(generator.data.T, grid))
        assert abs(adjoint.rho - report.max_eigenvalue) <= CROSS_TOL
        assert np.allclose(_unit(adjoint.vector), _unit(report.adjoint_ground_state), rtol=0.0, atol=1e-9)
