"""Uniform grids on the unit torus."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import GridMismatch


@dataclass(frozen=True)
class TorusGrid:
    """Uniform left-endpoint grid {i/n} per axis on the d-torus.

    Node ordering is row-major over axes: in two dimensions node
    I = i1*n + i2 sits at (i1/n, i2/n).  The quadrature weight per node
    is h^d = n^(-d), so grid-aligned step functions integrate exactly.
    """

    dimension: int
    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.dimension, Integral) and isinstance(self.n, Integral)):
            raise ValueError("dimension and grid resolution must be integers")
        if self.dimension not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if self.n < 2:
            raise ValueError("grid resolution must be at least 2")

    def require_match(self, other: "TorusGrid") -> None:
        """Raise GridMismatch unless ``other`` is this grid."""
        if other != self:
            raise GridMismatch(
                f"operand sampled at d={other.dimension}, n={other.n}; "
                f"grid has d={self.dimension}, n={self.n}"
            )

    def origin_slab(self, axes: tuple[int, ...]) -> tuple[slice, ...]:
        """Index of the nodes at x_a = 0 for every a in ``axes`` into an array
        whose leading axes are (n,)*d; those axes keep length 1."""
        return tuple(slice(0, 1) if a in axes else slice(None) for a in range(self.dimension))

    def slab_nodes(self, axes: tuple[int, ...]) -> np.ndarray:
        """Indices, in node order, of the nodes at x_a = 0 for every a in ``axes``."""
        return np.arange(self.size).reshape(self.slab_shape(()))[self.origin_slab(axes)].ravel()

    def slab_shape(self, axes: tuple[int, ...]) -> tuple[int, ...]:
        """Shape of the nodes at x_a = 0 for every a in ``axes``: (n or 1,)*d."""
        return tuple(1 if a in axes else self.n for a in range(self.dimension))

    @property
    def weight(self) -> float:
        """Quadrature weight per node, h^d."""
        return float(self.n) ** (-self.dimension)

    @property
    def size(self) -> int:
        """Total node count n^d."""
        return self.n ** self.dimension
