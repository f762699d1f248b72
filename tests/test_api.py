"""The public surface: every export is used, no function restates a record's
grid, and result records compare by identity."""

import functools
import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest

import torspec as ts
from conftest import REPO_ROOT, make_f2


def _package_lines() -> list[str]:
    """Every source line of the package, its export list aside."""
    sources = [
        path.read_text()
        for path in sorted((REPO_ROOT / "src" / "torspec").glob("*.py"))
        if path.name != "__init__.py"
    ]
    return [line for text in sources for line in text.splitlines()]


def test_every_export_is_used_by_the_package_or_the_readme():
    """A public name that neither the package nor the README reads is dead API."""
    lines = _package_lines()
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


def test_every_public_method_is_read_by_the_package_or_the_readme():
    """A method or property of an exported class that nothing reads as
    ``.name`` is dead API, even when its class is used."""
    lines = _package_lines()
    readme = (REPO_ROOT / "README.md").read_text()
    unused = []
    for class_name in dir(ts):
        cls = getattr(ts, class_name)
        if not inspect.isclass(cls) or issubclass(cls, BaseException):
            continue
        for name, member in vars(cls).items():
            if name.startswith("_") or not (
                inspect.isfunction(member) or isinstance(member, (property, functools.cached_property))
            ):
                continue
            read = re.compile(rf"\.{name}\b")
            own = re.compile(rf"^\s*def {name}\b")
            if not read.search(readme) and not any(
                read.search(line) and not own.match(line) for line in lines
            ):
                unused.append(f"{class_name}.{name}")
    assert unused == []


def test_every_error_type_is_raised_or_is_a_base():
    """An exception class that nothing raises and nothing derives from is dead."""
    classes = [
        cls for cls in vars(ts.errors).values()
        if inspect.isclass(cls) and issubclass(cls, BaseException) and cls.__module__ == ts.errors.__name__
    ]
    lines = _package_lines()
    dead = [
        cls.__name__ for cls in classes
        if not any(re.search(rf"\braise {cls.__name__}\b", line) for line in lines)
        and not any(other is not cls and issubclass(other, cls) for other in classes)
    ]
    assert dead == []


RECORD = re.compile(r"\b(GenericKernel|WoundKernel|Potential)\b")


def test_no_function_takes_a_grid_beside_a_sampled_record():
    """Kernels and potentials carry their grid; a separate one could only disagree."""
    redundant = []
    for info in pkgutil.iter_modules(ts.__path__):
        module = importlib.import_module(f"torspec.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            params = inspect.signature(obj).parameters.values()
            if "grid" in {p.name for p in params} and any(RECORD.search(str(p.annotation)) for p in params):
                redundant.append(f"{module.__name__}.{name}")
    assert redundant == []


def _records():
    """One instance of each result record, computed afresh on every call."""
    grid, kernel, potential = make_f2(n=8)
    generator = ts.assemble_generator(kernel, potential)
    return {
        "PerronResult": ts.perron(np.full((3, 3), 1.0)),
        "SpectrumReport": ts.analyze(kernel, potential),
        "BisectionResult": ts.max_eigenvalue_bisection(ts.ReducedModel(kernel, potential)),
        "EvolutionTrace": ts.evolve(generator, np.ones(grid.size), 1.0, snapshots=4),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_result_records_compare_by_identity(name):
    x, y = _records()[name], _records()[name]
    assert type(x).__name__ == name
    assert x == x
    assert (x == y) is False
    assert x != y
