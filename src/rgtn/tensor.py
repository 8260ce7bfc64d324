"""Immutable dense arrays for the tensor-train routines.

A :class:`DenseTensor` is an order-N array of float64 entries that cannot
be written to; ``tt_svd`` takes one and ``tt_reconstruct`` returns one, and
each tensor-train core is one.  :class:`ShapeError` is the package's error
for operands whose shapes or axes do not conform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Shape", "ShapeError", "DenseTensor", "from_array"]

Shape = tuple[int, ...]


class ShapeError(ValueError):
    """Shapes or axes of the operands do not conform."""


@dataclass(frozen=True)
class DenseTensor:
    """Immutable order-N array of 64-bit reals, held in ``array``."""

    array: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.array, dtype=np.float64)
        arr = arr.copy() if arr is self.array else arr
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def shape(self) -> Shape:
        return self.array.shape

    @property
    def order(self) -> int:
        return self.array.ndim

    @property
    def size(self) -> int:
        return self.array.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"DenseTensor(shape={self.shape})"


def from_array(array: np.ndarray | float) -> DenseTensor:
    """Wrap a numpy array (copied) as a DenseTensor."""
    return DenseTensor(array)
