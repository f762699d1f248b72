"""Every method's lambda checked against the exact lambda of the row-sum model (``exact_oracle``).

The row-sum model is the float off-diagonal h^d b_ij and the float row sums V_i, its diagonal
formed exactly.  Each method's estimate is checked by two exact eliminations, at its relative
distance ``R`` on either side, not by bisection.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torspec as ts
from exact_oracle import below, below_matrix, brackets

R = 2.0**-30  # about 9.3e-10: the relative bound every method meets at moderate depth, a power of two
DEPTHS = st.floats(0.25, 4.0)


def _row_sum_decision(kernel, potential):
    """lambda < t on the row-sum model of the kernel and potential, for each t."""
    off = ts.assemble_generator(kernel, potential).data
    return lambda t: below(off, potential.samples, t)


def _assert_every_method_brackets_lambda(kernel, potential, options=ts.AnalysisOptions()):
    decide = _row_sum_decision(kernel, potential)
    for method, estimate in ts.analyze(kernel, potential, options).lambda_by_method.items():
        assert brackets(decide, estimate, R), (method, estimate)


def _analyze_config(raw, tables=None):
    """Every method of ``analyze`` against the oracle, on the model of a config whose CSV ``tables``
    (name to rows of numbers) are written beside it."""
    with tempfile.TemporaryDirectory() as base:
        for name, (header, rows) in (tables or {}).items():
            with open(os.path.join(base, name), "w") as handle:
                handle.write("\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n")
        config = ts.config_from_dict(raw, base_dir=base)
        grid = config.build_grid()
        kernel, potential = config.build_kernel(grid), config.build_potential(grid)
    _assert_every_method_brackets_lambda(kernel, potential, config.analysis)


def test_the_oracle_decides_lambda_to_the_float():
    # a constant kernel with a constant potential: every row sums to V, so lambda = V exactly
    grid = ts.TorusGrid(1, 16)
    decide = _row_sum_decision(ts.constant_kernel(grid), ts.constant_potential(grid, 0.3))
    assert not decide(-0.3) and decide(np.nextafter(-0.3, 0.0))
    assert brackets(decide, -0.3, R) and not any(brackets(decide, -0.3 * (1 + e * R), R) for e in (-2, 2))
    # not symmetric: eigenvalues 0 and -4; with the same off-diagonal and row sums -0.5, lambda is -0.5
    m = np.array([[-2.0, 1.0], [4.0, -2.0]])
    assert not below_matrix(m, 0.0) and below_matrix(m, 2.0**-1074)
    assert below(m, [-0.5, -0.5], 0.0) and not below(m, [-0.5, -0.5], -0.5) and below(m, [-0.5, -0.5], -0.25)
    with pytest.raises(ValueError, match="Metzler"):
        below_matrix(-m, 1.0)


def test_the_assembled_diagonal_loses_a_shallow_potential():
    # a step of depth 1e-17 on a constant kernel: lambda is -5e-18 on the row-sum model, while
    # the float-assembled diagonal h b_ii - W_i + V_i has dropped V, and its lambda is not negative
    grid = ts.TorusGrid(1, 16)
    kernel, potential = ts.constant_kernel(grid), ts.step_potential(grid, 1e-17, 0.5)
    assert brackets(_row_sum_decision(kernel, potential), -5e-18, R)
    assert not below_matrix(ts.assemble_generator(kernel, potential).data, 0.0)


# each kernel family; the edge-aligned tophat of width 2/n and the sine kernel are not symmetric
KERNELS = {
    "constant": st.builds(lambda value: {"family": "constant", "value": value}, st.floats(0.5, 2.0)),
    "tophat": st.builds(lambda width: {"family": "tophat", "width": width}, st.sampled_from([0.125, 0.3, 0.5])),
    "gaussian": st.builds(lambda sigma: {"family": "gaussian", "sigma": sigma}, st.floats(0.1, 0.5)),
    "exponential": st.builds(lambda scale: {"family": "exponential", "scale": scale}, st.floats(0.1, 0.5)),
    "sine": st.builds(lambda amplitude: {"family": "sine", "amplitude": amplitude}, st.floats(-0.9, 0.9)),
    "modulated": st.builds(lambda base, epsilon: {"family": "modulated", "base": base, "epsilon": epsilon},
                           st.sampled_from([{"family": "gaussian"}, {"family": "tophat", "width": 0.3}]),
                           st.floats(-0.5, 0.5)),
    "csv": st.just({"family": "csv", "path": "kernel.csv"}),
}
POTENTIALS = st.one_of(
    st.builds(lambda depth, width: {"family": "step", "depth": depth, "width": width},
              DEPTHS, st.sampled_from([0.25, 0.5, 0.75])),
    st.builds(lambda depth: {"family": "cosine", "depth": depth}, DEPTHS),
    st.just({"family": "csv", "path": "potential.csv"}),
)


def _tables(n, seed):
    """A positive kernel table, neither symmetric nor of convolution form, and a potential table
    that is deepest at node 0, on the 1-D grid of n nodes."""
    rng = np.random.default_rng(seed)
    kernel = rng.uniform(0.5, 1.5, (n, n)).tolist()
    potential = (-rng.uniform(0.25, 4.0, n) * (rng.random(n) < 0.5)).tolist()
    potential[0] = -4.0
    return {"kernel.csv": ("x,y,value", [(i / n, j / n, kernel[i][j]) for i in range(n) for j in range(n)]),
            "potential.csv": ("x,value", [(i / n, potential[i]) for i in range(n)])}


@pytest.mark.parametrize("family", KERNELS)
@settings(max_examples=6)
@given(st.data(), POTENTIALS, st.integers(0, 2**32 - 1))
def test_every_method_lies_within_the_exact_bracket_at_n_16(family, data, potential, seed):
    raw = {"dimension": 1, "grid_n": 16, "kernel": data.draw(KERNELS[family]), "potential": potential}
    _analyze_config(raw, _tables(16, seed))


@settings(max_examples=3)
@given(st.sampled_from([{"family": "gaussian"}, {"family": "exponential"}, {"family": "csv", "path": "kernel.csv"}]),
       DEPTHS, st.integers(0, 2**32 - 1))
def test_every_method_lies_within_the_exact_bracket_at_n_32(kernel, depth, seed):
    raw = {"dimension": 1, "grid_n": 32, "kernel": kernel, "potential": {"family": "step", "depth": depth}}
    _analyze_config(raw, _tables(32, seed))


@settings(max_examples=8)
@given(st.sampled_from([{"family": "gaussian"}, {"family": "tophat", "width": 0.5}, {"family": "exponential"}]),
       st.floats(-0.5, 0.5), st.sampled_from(["step", "cosine"]), DEPTHS)
def test_modulated_kernels_in_2d_lie_within_the_exact_bracket(base, epsilon, potential, depth):
    raw = {"dimension": 2, "grid_n": 4, "kernel": {"family": "modulated", "base": base, "epsilon": epsilon},
           "potential": {"family": potential, "depth": depth}}
    _analyze_config(raw)


@settings(max_examples=8)
@given(st.floats(0.04, 0.2), DEPTHS)
def test_a_sheared_kernel_on_whole_bloch_blocks_lies_within_the_exact_bracket(c, depth):
    # exp(-(z0^2 + z0 z1 + z1^2)/c) plus its mirror z -> -z with a step: the reflection does not split
    # its Bloch blocks, so direct_qr solves them whole, each pair as one complex Hermitian block
    n = 4
    grid = ts.TorusGrid(2, n)
    z = ((np.arange(n) + n // 2) % n - n // 2) / n
    z0, z1 = np.meshgrid(z, z, indexing="ij")
    sheared = np.exp(-(z0 * z0 + z0 * z1 + z1 * z1) / c)
    kernel = ts.convolution_kernel(ts.WoundKernel(grid, sheared + np.roll(np.flip(sheared), 1, (0, 1))))
    potential = ts.step_potential(grid, depth)
    model = ts.ReducedModel(kernel, potential)
    assert kernel.symmetric and (model.axes, model.point, model.split) == ((1,), (1,), False)
    _assert_every_method_brackets_lambda(kernel, potential)
