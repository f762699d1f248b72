"""Shared builders for the test suite: named fixtures and randomized models."""

from pathlib import Path

import numpy as np
from hypothesis import settings

import torspec as ts

# One policy for every property test, loaded before any test module is
# imported: no deadline, the same draws on every run, no example database.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = REPO_ROOT / "fixtures"


def make_f1(n=128):
    """Constant kernel, constant potential -0.3."""
    grid = ts.TorusGrid(1, n)
    return grid, ts.constant_kernel(grid), ts.constant_potential(grid, 0.3)


def make_f2(n=256):
    """Constant kernel, step potential -1 on the left half period."""
    grid = ts.TorusGrid(1, n)
    return grid, ts.constant_kernel(grid), ts.step_potential(grid, 1.0, 0.5)


def make_f3(n=256):
    """Wound Gaussian kernel (sigma 0.2), step potential."""
    grid = ts.TorusGrid(1, n)
    wound = ts.wind_kernel(ts.gaussian_kernel(1, 0.2), n, 1e-12)
    return grid, ts.convolution_kernel(wound), ts.step_potential(grid, 1.0, 0.5)


def node_mesh(grid):
    """Node coordinates x_a = i_a/n shaped (n,)*d + (d,)."""
    return np.stack(np.meshgrid(*[np.arange(grid.n) / grid.n] * grid.dimension, indexing="ij"), axis=-1)


def sine_wound(grid, amplitude=0.5):
    return ts.WoundKernel(grid, 1.0 + amplitude * np.sin(2.0 * np.pi * node_mesh(grid)[..., 0]))


def make_f4(n=128):
    """Non-symmetric sine-modulated convolution kernel, constant potential -0.3."""
    grid = ts.TorusGrid(1, n)
    return grid, ts.convolution_kernel(sine_wound(grid)), ts.constant_potential(grid, 0.3)


def random_potential(rng, n):
    """Nonpositive samples with at least 10% of nodes strictly negative."""
    values = -rng.uniform(0.1, 1.0, n) * (rng.random(n) < 0.5)
    need = max(1, n // 10)
    if np.count_nonzero(values < 0) < need:
        idx = rng.choice(n, size=need, replace=False)
        values[idx] = -rng.uniform(0.1, 1.0, size=need)
    return ts.Potential(ts.TorusGrid(1, n), values)


def random_fixture(seed, n=64):
    """Random strictly positive two-point kernel plus an eligible potential."""
    rng = np.random.default_rng(seed)
    grid = ts.TorusGrid(1, n)
    kernel = ts.GenericKernel(ts.TorusGrid(1, n), rng.uniform(0.5, 1.5, size=(n, n)))
    return grid, kernel, random_potential(rng, n)


def random_convolution_fixture(seed, n=64):
    """Random positive unit-mass convolution kernel plus an eligible potential."""
    rng = np.random.default_rng(seed)
    grid = ts.TorusGrid(1, n)
    z = np.arange(n) / n
    coef = rng.uniform(-1.0, 1.0, size=(3, 2))
    coef *= 0.9 / max(1.0, float(np.abs(coef).sum()))
    samples = np.ones(n)
    for k in range(3):
        samples = samples + coef[k, 0] * np.cos(2 * np.pi * (k + 1) * z)
        samples = samples + coef[k, 1] * np.sin(2 * np.pi * (k + 1) * z)
    wound = ts.WoundKernel(ts.TorusGrid(1, n), samples)
    return grid, wound, random_potential(rng, n)


def mirror_fixture(seed, n=64):
    """Even cosine-series convolution kernel and the eligible potential v + v o r, r(x) =
    (s - x) mod n for a random s: a model exactly invariant under the point reflection r."""
    rng = np.random.default_rng(seed)
    grid = ts.TorusGrid(1, n)
    z = np.minimum(np.arange(n), n - np.arange(n)) / n  # folded, so a[k] == a[-k mod n] bit for bit
    coef = rng.uniform(-1.0, 1.0, 3)
    coef *= 0.9 / max(1.0, float(np.abs(coef).sum()))
    samples = 1.0 + sum(c * np.cos(2 * np.pi * (k + 1) * z) for k, c in enumerate(coef))
    v = random_potential(rng, n).samples
    s = int(rng.integers(n))
    return grid, ts.WoundKernel(grid, samples), ts.Potential(grid, v + v[(s - np.arange(n)) % n])


def constant_fixture(seed, n=64):
    """Random positive convolution kernel (``random_convolution_fixture``) and a constant
    potential of random depth: a model invariant along every axis."""
    grid, wound, _ = random_convolution_fixture(seed, n)
    depth = np.random.default_rng(seed).uniform(0.1, 1.0)
    return grid, wound, ts.constant_potential(grid, depth)


def whole_ratio_operator(kernel, potential, mu):
    """The ratio operator Q_mu on the whole grid, without the model's reduction:
    h^d b(x, y) / (W(x) - V(x) + mu), an (N, N) array."""
    return np.multiply(kernel.rows(), kernel.grid.weight) / (kernel.w - potential.samples + mu)[:, None]


def two_level_eigenvalue_oracle(bracket, weights=(0.5, 0.5), shifts=(2.0, 1.0)):
    """Scalar self-consistency root for a constant kernel over a two-level
    potential: sum_i w_i / (lam + shift_i) = 1, solved by plain bisection.

    Independent of any linear algebra; the shifts are 1 - V on each level.
    """

    def g(lam):
        return sum(w / (lam + s) for w, s in zip(weights, shifts)) - 1.0

    lo, hi = bracket
    if g(lo) < 0 or g(hi) > 0:
        raise AssertionError("oracle bracket does not straddle the root")
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
