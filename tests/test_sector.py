"""The even sector of a point reflection: the reduced model of mirror-symmetric models.

A symmetric convolution kernel with a potential that equals its mirror under
r(x) = (s - x) mod n commutes with r bit for bit, and the CLI's start u0 = 1
is even under it, so ``evolve`` runs on the sector of even states, of order
about N/2, and lifts each state back to the grid for its norms.
"""

import contextlib
import functools
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torspec as ts
from torspec.cli import run_command
from torspec.eigen import block_shape
from conftest import make_f1, make_f3, node_mesh


def _mirror(a, s):
    """a[(s - x) mod n] on every axis."""
    return np.roll(np.flip(a), np.add(s, 1), tuple(range(a.ndim)))


def _sector(kernel, potential):
    generator = ts.assemble_generator(kernel, potential)
    return generator, ts.ReducedModel(kernel, potential).reduce(generator)


def test_a_point_that_fixes_no_node_comes_first():
    assert ts.ReducedModel(*make_f3(n=512)[1:]).point == (255,)
    grid = ts.TorusGrid(1, 8)
    kernel = make_f3(n=8)[1]
    assert ts.ReducedModel(kernel, ts.step_potential(grid, 1.0, 3 / 8)).point == (2,)  # only s = 2 fits
    odd = ts.TorusGrid(1, 9)  # every s fixes one node
    assert ts.ReducedModel(make_f3(n=9)[1], ts.step_potential(odd, 1.0, 0.5)).point == (4,)
    plane = ts.TorusGrid(2, 8)
    gaussian = ts.convolution_kernel(ts.wind_kernel(ts.gaussian_kernel(2, 0.2), 8))
    model = ts.ReducedModel(gaussian, ts.step_potential(plane))
    assert (model.axes, model.point, model.order) == ((1,), (3,), 4)  # on the fibre x_1 = 0
    for whole in (ts.constant_potential(plane, 0.3), make_f1(n=16)[2]):  # invariant along every axis
        model = ts.ReducedModel(ts.constant_kernel(whole.grid), whole)
        assert (model.point, model.order) == (None, 1)


def _reference_point(v):
    """The first s with v[s] == v[0] and v[(s - x) mod n] == v, by one comparison per s in
    row-major order, the points that fix no node first; None if no s fits."""
    n = v.shape[0]
    candidates = [s for s in np.ndindex(v.shape) if v[s] == v.flat[0]]
    for s in sorted(candidates, key=lambda s: n % 2 == 1 or all(x % 2 == 0 for x in s)):  # stable: fixing a node last
        if np.array_equal(_mirror(v, s), v):
            return s
    return None


@functools.lru_cache(maxsize=None)
def _gaussian(dimension, n):
    return ts.convolution_kernel(ts.wind_kernel(ts.gaussian_kernel(dimension, 0.2), n))


@settings(max_examples=60)
@given(
    st.sampled_from([(1, 5), (1, 8), (1, 9), (1, 64), (1, 512), (2, 6), (2, 7), (2, 16), (2, 48)]),
    st.integers(2, 4),
    st.sampled_from([1, 2, 4]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_the_reflection_point_is_the_first_that_fits(shape, levels, periods, mirrored, seed):
    # many equal values, so many candidates: at 1-D n = 512 and 2-D n = 48 the search takes several
    # chunks; a potential of several periods along each axis fits several points, so the order tells
    (dimension, n), rng = shape, np.random.default_rng(seed)
    grid = ts.TorusGrid(dimension, n)
    periods = periods if n % periods == 0 else 1
    v = np.tile(-0.5 * rng.integers(0, levels, (n // periods,) * dimension), (periods,) * dimension)
    if mirrored:
        v = np.minimum(v, _mirror(v, tuple(int(x) for x in rng.integers(0, n, dimension))))
    potential = ts.Potential(grid, v.ravel())
    model = ts.ReducedModel(_gaussian(dimension, n), potential)
    fibre = potential.samples[grid.slab_nodes(model.axes)].reshape((n,) * (dimension - len(model.axes)))
    assert model.point == (_reference_point(fibre) if fibre.ndim else None)
    if mirrored and not model.axes:
        assert model.point is not None


@pytest.mark.parametrize("n, width", [(16, 0.5), (16, 5 / 16), (15, 0.4)])
def test_the_sector_is_symmetric_and_holds_the_maximum_eigenvalue(n, width):
    grid, kernel, _ = make_f3(n=n)
    potential = ts.step_potential(grid, 1.0, width)
    s = ts.ReducedModel(kernel, potential).point
    generator, sector = _sector(kernel, potential)
    m = generator.data
    mirror = _mirror(np.arange(n), s)
    assert np.array_equal(m[np.ix_(mirror, mirror)], m)
    fixed = np.count_nonzero(mirror == np.arange(n))
    assert sector.data.shape == ((n + fixed) // 2,) * 2 and sector.symmetric
    assert np.array_equal(sector.data, sector.data.T)
    whole, even = np.linalg.eigvalsh(m), np.linalg.eigvalsh(sector.data)
    assert np.min(np.abs(whole[:, None] - even[None, :]), axis=0).max() <= 1e-13
    assert abs(even.max() - whole.max()) <= 1e-13


@settings(max_examples=60)
@given(
    st.sampled_from([(1, n, ()) for n in (5, 8, 9, 64)]
                    + [(2, n, axes) for n in (6, 7, 16) for axes in ((), (0,), (1,))]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_the_reflections_sectors_give_the_whole_spectrum(case, fixing, seed):
    # a random symmetric convolution kernel and a random potential equal to its mirror about s, invariant
    # along ``axes``: QR on the whole Bloch blocks along the axes, a real stack of the self-conjugate ones
    # and a complex Hermitian block per pair, or on the even and odd sector of the whole matrix, against
    # eigvalsh on the whole matrix; s fixes a node at odd n, or at even s
    dimension, n, axes = case
    grid, rng = ts.TorusGrid(dimension, n), np.random.default_rng(seed)
    samples = rng.uniform(0.05, 1.0, (n,) * dimension)
    kernel = ts.convolution_kernel(ts.WoundKernel(grid, samples + _mirror(samples, (0,) * dimension)))
    s = (2 * rng.integers(0, n, dimension) + (not fixing)) % n
    v = np.broadcast_to(-rng.uniform(0.0, 2.0, (n,) * dimension)[grid.origin_slab(axes)], (n,) * dimension)
    potential = ts.Potential(grid, (v + _mirror(v, s)).ravel())
    model = ts.ReducedModel(kernel, potential)
    assert kernel.symmetric and model.axes == axes
    assert model.point == tuple(int(x) for a, x in enumerate(s) if a not in axes)
    assert (model.mirror == np.arange(len(model.mirror))).any() == bool(fixing or n % 2)
    generator, even = model.generator, model.reduce(model.generator)
    values = ts.full_spectrum(generator, even=even)
    assert block_shape(generator, even)[2] == (len(model.mirror) if axes else model.order)
    whole = ts.assemble_generator(kernel, potential).data
    scale = np.abs(whole).max() * whole.shape[0] * np.finfo(float).eps
    assert np.abs(np.sort(values) - np.linalg.eigvalsh(whole)).max() <= 100 * scale
    if axes:  # a Bloch pair's eigenvalues twice, bit for bit: odd counts only from self-conjugate blocks
        counts = np.unique(values, return_counts=True)[1]
        assert np.count_nonzero(counts % 2) <= (2 - n % 2) * len(model.mirror)


def _even_along(a, axes):
    """a plus its mirror z_S -> -z_S mod n, S = ``axes``: even along z_S bit for bit."""
    return a + np.roll(np.flip(a, axes), 1, axes)


@settings(max_examples=60)
@given(
    st.sampled_from([(2, n, axes) for n in (6, 7, 8) for axes in ((0,), (1,))]
                    + [(3, n, axes) for n in (4, 5, 6) for axes in ((0,), (2,), (0, 2), (1, 2))]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_blocks_of_a_kernel_even_along_the_invariant_axes_split_into_sectors(case, fixing, seed):
    # a random kernel even under z -> -z and along z_S, and a potential equal to its mirror about s and
    # invariant along S: every Bloch block real and on its two sectors, against eigvalsh on the whole
    # matrix; s fixes a node at odd n, or at even s
    dimension, n, axes = case
    grid, rng = ts.TorusGrid(dimension, n), np.random.default_rng(seed)
    samples = _even_along(rng.uniform(0.05, 1.0, (n,) * dimension), axes)
    kernel = ts.convolution_kernel(ts.WoundKernel(grid, samples + _mirror(samples, (0,) * dimension)))
    s = (2 * rng.integers(0, n, dimension) + (not fixing)) % n
    v = np.broadcast_to(-rng.uniform(0.0, 2.0, (n,) * dimension)[grid.origin_slab(axes)], (n,) * dimension)
    potential = ts.Potential(grid, (v + _mirror(v, s)).ravel())
    model = ts.ReducedModel(kernel, potential)
    assert kernel.symmetric and model.axes == axes and model.split
    assert model.point == tuple(int(x) for a, x in enumerate(s) if a not in axes)
    assert (model.mirror == np.arange(len(model.mirror))).any() == bool(fixing or n % 2)
    generator, even = model.generator, model.reduce(model.generator)
    values = ts.full_spectrum(generator, even=even)
    assert block_shape(generator, even)[2] == model.order < len(model.mirror)
    assert values.dtype == float and len(values) == grid.size
    whole = ts.assemble_generator(kernel, potential).data
    scale = np.abs(whole).max() * whole.shape[0] * np.finfo(float).eps
    assert np.abs(np.sort(values) - np.linalg.eigvalsh(whole)).max() <= 100 * scale


def test_a_kernel_even_only_under_z_to_minus_z_keeps_whole_blocks(monkeypatch):
    # a sheared Gaussian exp(-(z0^2 + z0 z1 + z1^2)/c) plus its mirror z -> -z: symmetric, with the
    # reflection s = 3 of a step, but not even along y_1, so its Bloch blocks stay whole: the self-conjugate
    # ones as one real stack, each pair as one complex Hermitian block
    n = 8
    grid = ts.TorusGrid(2, n)
    z = ((np.arange(n) + n // 2) % n - n // 2) / n  # centred displacements
    z0, z1 = np.meshgrid(z, z, indexing="ij")
    sheared = np.exp(-(z0 * z0 + z0 * z1 + z1 * z1) / 0.08)
    kernel = ts.convolution_kernel(ts.WoundKernel(grid, sheared + _mirror(sheared, (0, 0))))
    potential = ts.step_potential(grid)
    model = ts.ReducedModel(kernel, potential)
    assert kernel.symmetric and (model.axes, model.point, model.split) == ((1,), (3,), False)
    generator, even = model.generator, model.reduce(model.generator)
    shapes = []
    for solver in ("eigvals", "eigvalsh"):
        def recorded(a, _solver=solver, _real=getattr(np.linalg, solver)):
            shapes.append((_solver, a.shape, a.dtype))
            return _real(a)

        monkeypatch.setattr(np.linalg, solver, recorded)
    values = ts.full_spectrum(generator, even=even)
    # k in {0, 4} real, then 1, 2 and 3 complex
    assert shapes == [("eigvalsh", (2, n, n), np.float64), ("eigvalsh", (3, n, n), np.complex128)]
    assert block_shape(generator, even) == (n, n, n)
    monkeypatch.undo()
    whole = ts.assemble_generator(kernel, potential).data
    scale = np.abs(whole).max() * whole.shape[0] * np.finfo(float).eps
    assert np.abs(np.sort(values) - np.linalg.eigvalsh(whole)).max() <= 100 * scale


def test_evolve_on_a_sector_needs_an_even_start():
    grid, kernel, potential = make_f3(n=16)
    sector = _sector(kernel, potential)[1]
    u0 = np.ones(grid.size)
    u0[3] = 2.0
    with pytest.raises(ValueError, match="not even"):
        ts.evolve(sector, u0, t_max=1.0)


@contextlib.contextmanager
def _propagators():
    """The order and substep count of every RK4 propagator formed inside the block."""
    formed, real = [], ts.evolution._rk4_propagator

    def propagator(m, h, substeps):
        formed.append((m.shape[0], substeps))
        return real(m, h, substeps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ts.evolution, "_rk4_propagator", propagator)
        yield formed


def _evolve_cli(raw, tables):
    """CLI ``evolve`` in a fresh directory holding ``tables``: its config, summary and
    trace, and the model built from the config."""
    with tempfile.TemporaryDirectory() as out:
        for name, text in tables.items():
            with open(os.path.join(out, name), "w") as handle:
                handle.write(text)
        config = ts.config_from_dict(raw, base_dir=out)
        assert run_command("evolve", config, out) == 0
        with open(os.path.join(out, "evolution.json")) as handle:
            summary = json.load(handle)
        trace = np.loadtxt(os.path.join(out, "trace.csv"), delimiter=",", skiprows=1)
        grid = config.build_grid()
        model = config.build_kernel(grid), config.build_potential(grid)
    return config, summary, trace, model


def _table(grid, header, values, pairs=False):
    """A CSV table of ``values`` keyed by grid nodes (node pairs when ``pairs``)."""
    nodes = [",".join(repr(c) for c in x) for x in node_mesh(grid).reshape(grid.size, -1).tolist()]
    keys = [f"{x},{y}" for x in nodes for y in nodes] if pairs else nodes
    return "\n".join([header, *(f"{k},{float(v)!r}" for k, v in zip(keys, np.ravel(values)))]) + "\n"


@settings(max_examples=30)
@given(
    st.sampled_from([(1, n) for n in range(4, 25, 2)] + [(2, 4), (2, 6)]),
    st.sampled_from(["step", "csv"]),
    st.sampled_from(["rk4", "eigenexpansion"]),
    st.integers(1, 23),
    st.floats(0.5, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_cli_evolve_on_the_sector_matches_the_whole_model(shape, kind, method, cut, depth, seed):
    dimension, n = shape
    grid = ts.TorusGrid(dimension, n)
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.05, 1.0, (n,) * dimension)
    a = a + _mirror(a, (0,) * dimension)  # a[k] + a[-k] is bit-equal to a[-k] + a[k]
    samples = ts.convolution_kernel(ts.WoundKernel(grid, a)).rows()  # b(x, y) = a(x - y)
    tables = {"kernel.csv": _table(grid, "x,y,value" if dimension == 1 else "x1,x2,y1,y2,value", samples, True)}
    raw = {"dimension": dimension, "grid_n": n, "kernel": {"family": "csv", "path": "kernel.csv"},
           "evolution": {"method": method}}
    if kind == "step":  # on 1 to n - 1 nodes; an odd count is mirrored only by an s that fixes two
        raw["potential"] = {"family": "step", "depth": depth, "width": (cut % (n - 1) + 1) / n}
    else:
        s = tuple(int(x) for x in rng.integers(0, n, dimension))
        v = -depth * rng.random((n,) * dimension) * (rng.random((n,) * dimension) < 0.6)
        v.flat[0] = -depth
        v = v + _mirror(v, s)
        tables["potential.csv"] = _table(grid, "x,value" if dimension == 1 else "x1,x2,value", v)
        raw["potential"] = {"family": "csv", "path": "potential.csv"}
    with _propagators() as formed:
        config, summary, trace, model = _evolve_cli(raw, tables)
        generator = ts.assemble_generator(*model)
        whole = ts.evolve(generator, np.ones(grid.size), t_max=summary["t_max"], method=method)
    assert ts.ReducedModel(*model).point is not None and summary["order"] < grid.size
    for column, norms in zip(trace.T[1:], (whole.l2_norms, whole.sup_norms, whole.masses)):
        assert np.max(np.abs(column - norms) / np.abs(norms)) <= 1e-10
    if method == "rk4":
        (sector_order, substeps), (whole_order, whole_substeps) = formed
        assert (sector_order, whole_order) == (summary["order"], grid.size)
        assert substeps == whole_substeps
    estimate = ts.max_eigenvalue_shifted_power(generator, config.analysis).rho
    assert abs(summary["lambda_estimate"] - estimate) <= config.analysis.cross_tol


def _one_ulp_off(n):
    v = np.where(np.arange(n) < n // 2, -1.0, 0.0)
    v[0] = np.nextafter(v[0], 0.0)
    return _table(ts.TorusGrid(1, n), "x,value", v)


@pytest.mark.parametrize("kernel, potential, tables", [
    ({"family": "tophat", "width": 0.125}, {"family": "step"}, {}),  # edge-aligned: not symmetric
    ({"family": "gaussian"}, {"family": "csv", "path": "potential.csv"}, {"potential.csv": _one_ulp_off(16)}),
    ({"family": "modulated", "epsilon": 0.3, "base": {"family": "gaussian"}}, {"family": "step"}, {}),
])
def test_models_without_an_exact_reflection_keep_the_whole_order(kernel, potential, tables):
    raw = {"dimension": 1, "grid_n": 16, "kernel": kernel, "potential": potential}
    with _propagators() as formed:
        summary, model = (_evolve_cli(raw, tables)[i] for i in (1, 3))
    assert summary["order"] == 16 and formed[0][0] == 16
    assert ts.ReducedModel(*model).point is None


def test_cli_evolve_holds_rk4_buffers_of_half_the_order(tmp_path):
    raw = {"dimension": 1, "grid_n": 32, "kernel": {"family": "gaussian", "sigma": 0.2},
           "potential": {"family": "step"}}
    assert run_command("evolve", ts.config_from_dict(raw), str(tmp_path)) == 0  # loads what numpy loads lazily
    raw["grid_n"] = 512
    config = ts.config_from_dict(raw)
    tracemalloc.start()
    try:  # the kernel and the whole generator are built inside the command
        assert run_command("evolve", config, str(tmp_path)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads((tmp_path / "evolution.json").read_text())["order"] == 256
    whole = 8 * 512**2
    # the whole generator, then the sector with the step map, its power and one scratch,
    # each a quarter of it; three RK4 buffers of the whole order alone would take 3 * whole
    assert peak <= 1.75 * whole
