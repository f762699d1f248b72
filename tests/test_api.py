"""The public surface: every export is used, and result records compare by identity."""

import inspect
import re

import numpy as np
import pytest

import torspec as ts
from conftest import REPO_ROOT, make_f2, sine_wound


def test_every_export_is_used_by_the_package_or_the_readme():
    """A public name that neither the package nor the README reads is dead API."""
    sources = [
        path.read_text()
        for path in sorted((REPO_ROOT / "src" / "torspec").glob("*.py"))
        if path.name != "__init__.py"
    ]
    lines = [line for text in sources for line in text.splitlines()]
    readme = (REPO_ROOT / "README.md").read_text()
    unused = []
    for name in dir(ts):
        if name.startswith("_") or inspect.ismodule(getattr(ts, name)):
            continue
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class) {name}\b")
        if not word.search(readme) and not any(
            word.search(line) and not own.match(line) for line in lines
        ):
            unused.append(name)
    assert unused == []


def _records():
    """One instance of each result record, computed afresh on every call."""
    grid, kernel, potential = make_f2(n=8)
    generator = ts.assemble_generator(kernel, potential, grid)
    return {
        "PerronResult": ts.perron(np.full((3, 3), 1.0)),
        "SpectrumReport": ts.analyze(kernel, potential, grid),
        "EssentialSpectrum": ts.essential_spectrum(potential, kernel.w),
        "BisectionResult": ts.max_eigenvalue_bisection(kernel, potential, grid),
        "ShiftedPowerResult": ts.max_eigenvalue_shifted_power(generator, generator.edge_sup),
        "EvolutionTrace": ts.evolve(generator, np.ones(grid.size), 1.0, snapshots=4),
        "FourierSymbol": ts.fourier_symbol(sine_wound(grid)),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_result_records_compare_by_identity(name):
    x, y = _records()[name], _records()[name]
    assert type(x).__name__ == name
    assert x == x
    assert (x == y) is False
    assert x != y
