"""The torus model is the Bloch fibre theta = 0 of the periodic operator on R^d.

Winding a kernel a on R with the phase e^{-i theta (t + m)} gives the kernel
a_theta of the fibre M_theta = h A_theta + diag(V - W) of the operator on R
with the same 1-periodic potential (Floquet-Bloch; Kuchment, Bull. AMS 53,
2016).  Since |a_theta| <= a_0 entrywise, every eigenvalue of every fibre has
real part at most the torus lambda, which M_0 attains.  In 2-D the phase is
e^{-i theta . (t + m)}, theta on a grid of [0, 2 pi)^2 and m in Z^2.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import torspec as ts
from conftest import random_potential

THETAS = 2.0 * np.pi * np.arange(16) / 16
BASES = {
    "gaussian": ts.gaussian_kernel,
    "exponential": ts.exponential_kernel,
    "tophat": ts.tophat_kernel,  # not even: the node at -w lies in its box, the one at w does not
}


def _circulant(a, n, truncation, theta):
    """h A_theta: h a_theta(x_i - y_j), a_theta(t) = sum_{|m| <= truncation} a(t + m) e^{-i theta (t + m)},
    each point t + m = (j + m n)/n rounded once, t centred in [-1/2, 1/2)."""
    k = np.arange(n)
    points = ((k + n // 2) % n - n // 2 + n * np.arange(-truncation, truncation + 1)[:, None]) / n
    a_theta = (a.factor(points) * np.exp(-1j * theta * points)).sum(axis=0)
    return a_theta[(k[:, None] - k) % n] / n


@settings(max_examples=12)
@given(
    st.sampled_from(sorted(BASES)),
    st.floats(0.1, 0.3),
    st.sampled_from([16, 32, 64]),
    st.integers(0, 2**32 - 1),
)
def test_the_torus_lambda_tops_every_bloch_fibre(base, parameter, n, seed):
    a = BASES[base](1, parameter)
    wound = ts.wind_kernel(a, n)
    potential = random_potential(np.random.default_rng(seed), n)
    lam = ts.analyze(ts.convolution_kernel(wound), potential).max_eigenvalue
    w = _circulant(a, n, wound.wind_truncation, 0.0).real.sum(axis=1)
    tops = [np.linalg.eigvals(_circulant(a, n, wound.wind_truncation, theta) + np.diag(potential.samples - w))
            .real.max() for theta in THETAS]
    assert max(tops) <= lam + 1e-10
    assert abs(tops[0] - lam) <= ts.AnalysisOptions().cross_tol


THETAS_2D = 2.0 * np.pi * np.stack(np.meshgrid(np.arange(4), np.arange(4), indexing="ij"), axis=-1).reshape(-1, 2) / 4


def _circulant_2d(a, n, truncation, theta):
    """h^2 A_theta on the n x n grid, nodes in row-major order: h^2 a_theta(x - y), a_theta(t) = sum over
    |m_1|, |m_2| <= truncation of a(t + m) e^{-i theta . (t + m)}, a(z) = g(z_1) g(z_2) for the factor g,
    each coordinate of t + m formed as in 1-D."""
    k = np.arange(n)
    axis = ((k + n // 2) % n - n // 2 + n * np.arange(-truncation, truncation + 1)[:, None]) / n  # (translates, n)
    points = np.stack(np.broadcast_arrays(axis[:, None, :, None], axis[None, :, None, :]), axis=-1)
    a_theta = (a.factor(points).prod(axis=-1) * np.exp(-1j * (points @ theta))).sum(axis=(0, 1))  # at t = (k_1, k_2) / n
    d = (k[:, None] - k) % n  # x_a - y_a on one axis
    return a_theta[d[:, None, :, None], d[None, :, None, :]].reshape(n * n, n * n) / n**2


@settings(max_examples=8)
@given(
    st.sampled_from(sorted(BASES)),
    st.floats(0.15, 0.3),  # a tophat box holds a neighbour of each node at n = 8
    st.sampled_from([8, 12]),
    st.integers(0, 2**32 - 1),
)
def test_the_torus_lambda_tops_every_bloch_fibre_in_two_dimensions(base, parameter, n, seed):
    a = BASES[base](2, parameter)
    wound = ts.wind_kernel(a, n)
    grid = ts.TorusGrid(2, n)
    potential = ts.Potential(grid, random_potential(np.random.default_rng(seed), n * n).samples)
    lam = ts.analyze(ts.convolution_kernel(wound), potential).max_eigenvalue
    w = _circulant_2d(a, n, wound.wind_truncation, THETAS_2D[0]).real.sum(axis=1)
    tops = [np.linalg.eigvals(_circulant_2d(a, n, wound.wind_truncation, theta) + np.diag(potential.samples - w))
            .real.max() for theta in THETAS_2D]
    assert max(tops) <= lam + 1e-10
    assert abs(tops[0] - lam) <= ts.AnalysisOptions().cross_tol
