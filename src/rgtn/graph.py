"""The time graph over a window of tau successive steps.

Step s influences step t > s with weight c^(t-s), where 0 < c < 1.  With
the window stacked in ascending time (row t is step t), the adjacency is
strictly lower triangular with c^p on the p-th sub-diagonal, so row t of
``A @ X`` gathers only from strictly earlier rows of X.

The adjacency is built once per ``(tau, c)`` and cached; every call returns
the same read-only array, so a forward pass pays nothing for it and no
caller can change what the next one reads.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["build_time_adjacency"]


@lru_cache(maxsize=64)
def build_time_adjacency(tau: int, c: float) -> np.ndarray:
    """Ascending-time (tau, tau) adjacency, read-only.

    ``models.ModelConfig`` checks ``tau >= 1`` and ``0 < c < 1``.
    """
    a = np.zeros((tau, tau))
    for p in range(1, tau):
        a += np.diag(np.full(tau - p, c**p), k=-p)
    a.flags.writeable = False
    return a
