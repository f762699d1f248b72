"""Uniform grids on the unit torus."""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.dimension not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if self.n < 2:
            raise ValueError("grid resolution must be at least 2")

    def require_match(self, *operands) -> None:
        """Raise GridMismatch unless every operand is sampled on this grid."""
        for obj in operands:
            if obj.dimension != self.dimension or obj.n != self.n:
                raise GridMismatch(
                    f"operand sampled at d={obj.dimension}, n={obj.n}; "
                    f"grid has d={self.dimension}, n={self.n}"
                )

    @property
    def weight(self) -> float:
        """Quadrature weight per node, h^d."""
        return float(self.n) ** (-self.dimension)

    @property
    def size(self) -> int:
        """Total node count n^d."""
        return self.n ** self.dimension

    def axis_nodes(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def index_grid(self) -> np.ndarray:
        """Integer node indices, shape (size, dimension)."""
        axes = [np.arange(self.n)] * self.dimension
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape (size, dimension)."""
        return self.index_grid() / self.n

    def node_mesh(self) -> np.ndarray:
        """Node coordinates shaped (n,)*d + (d,), for samplers on axis grids."""
        axes = [self.axis_nodes()] * self.dimension
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)
