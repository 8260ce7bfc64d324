"""Immutable dense arrays for the tensor-train routines.

A :class:`DenseTensor` is an order-N array of float64 entries that cannot
be written to; ``tt_svd`` takes one and ``tt_reconstruct`` returns one, and
each tensor-train core is one.  ``from_array`` copies a caller's array;
the class itself wraps an array it is handed, read-only in place, so an
array just computed and held nowhere else is not copied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Shape", "DenseTensor", "from_array"]

Shape = tuple[int, ...]


@dataclass(frozen=True)
class DenseTensor:
    """Immutable order-N array of 64-bit reals, held in ``array``.

    A float64 array is wrapped without a copy and made read-only: only hand
    it an array that nothing else writes to, and ``from_array`` otherwise.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.array, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def shape(self) -> Shape:
        return self.array.shape

    @property
    def size(self) -> int:
        return self.array.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"DenseTensor(shape={self.shape})"


def from_array(array: np.ndarray | float) -> DenseTensor:
    """Wrap a numpy array (copied) as a DenseTensor."""
    arr = np.asarray(array, dtype=np.float64)
    return DenseTensor(arr.copy() if arr is array else arr)
