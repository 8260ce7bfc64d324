"""Tensor-train decomposition and reconstruction.

A tensor-train network stores an order-N tensor as a chain of N order-3
cores G_n of shape (R_{n-1}, I_n, R_n) with boundary ranks R_0 = R_N = 1.
Entry counts drop from prod(I_n) for the dense tensor to
sum(R_{n-1} I_n R_n) for the chain.  The models' trainable TT head uses
the same chain with one (in, out) mode pair per core; see ``models``.

``tt_svd`` is the TT-SVD of Oseledets (2011, SIAM J. Sci. Comput. 33(5)).
It takes no Gram-matrix shortcut: the eigenvalues of ``mat mat^T`` are the
squared singular values, so rounding swamps those below about 1e-8 of the
largest and the ``tol`` bound fails for small ``tol``.

``tt_svd`` returns the chain as a tuple of read-only float64 core arrays,
and nothing checks it: its boundary ranks are 1 and adjacent ranks match
by construction.  ``rgtn decompose`` refuses a tensor file or a rank-cap
count that ``tt_svd`` cannot take before it calls it.  ``tt_svd`` still
takes a ``DenseTensor`` and ``tt_reconstruct`` still returns one, as the
benchmark calls them; ROADMAP item 8 moves both to plain arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import DenseTensor

__all__ = ["tt_svd", "tt_reconstruct", "tt_param_count"]


def tt_param_count(cores: Sequence[np.ndarray]) -> int:
    """Total entries stored by the chain: sum of R_{n-1} I_n R_n."""
    return sum(core.size for core in cores)


def tt_svd(
    x: DenseTensor,
    max_ranks: int | Sequence[int] | None = None,
    rel_tolerance: float | None = None,
) -> tuple[np.ndarray, ...]:
    """TT-SVD: the kept left singular vectors of each unfolding, left to right.

    With ``rel_tolerance`` t, each unfolding is truncated at threshold
    t * ||x||_F / sqrt(N - 1), which bounds the relative reconstruction
    error by t.  ``max_ranks`` (an int or one cap per interior rank)
    additionally caps the kept ranks.  With neither given the chain is
    exact up to floating-point rounding.

    ``x`` has order >= 1 and no empty mode, and ``max_ranks`` holds one cap
    or N - 1, as ``cli.cmd_decompose`` checks; a non-finite entry raises
    ValueError.

    Step k unfolds what is left in C order, last index fastest (a view of a
    C-contiguous tensor, a copy of any other), as ``mat`` (R_{k-1} I_k,
    rest).  As ``mat^T = Q R`` gives ``mat = R^T Q^T``, the SVD of the small
    ``R^T`` has the singular values and left vectors of ``mat``, and ``V^T``
    is never built (Chan's R-SVD, 1982, ACM TOMS 8(1)).  Core k is the kept
    vectors in that order; ``U_kept^T mat``, ``s V^T`` in exact arithmetic,
    goes on to step k + 1.
    """
    if not np.all(np.isfinite(x.array)):
        raise ValueError("tt_svd input contains non-finite entries")
    dims = x.array.shape
    n = len(dims)
    single = max_ranks is None or isinstance(max_ranks, int)
    caps = [max_ranks] * (n - 1) if single else list(max_ranks)

    tol = 0.0
    if rel_tolerance is not None and n > 1:
        tol = float(rel_tolerance) * float(np.linalg.norm(x.array)) / np.sqrt(n - 1)

    cores: list[np.ndarray] = []
    current = x.array
    rank = 1
    for k in range(n - 1):
        mat = current.reshape(rank * dims[k], -1)
        u, s, _ = np.linalg.svd(np.linalg.qr(mat.T, mode="r").T, full_matrices=False)
        keep = len(s)
        if tol > 0.0:
            tail = np.cumsum(s[::-1] ** 2)[::-1]
            below = np.nonzero(tail <= tol**2)[0]
            if below.size:
                keep = int(below[0])
        else:
            keep = int(np.count_nonzero(s > 0.0))
        if caps[k] is not None:
            keep = min(keep, int(caps[k]))
        keep = max(keep, 1)
        # Columns kept past the numerical rank carry zero weight; zero them so
        # a zero tensor yields all-zero cores.
        u_kept = u[:, :keep] * (s[:keep] > 0.0)
        cores.append(u_kept.reshape(rank, dims[k], keep))
        current = u_kept.T @ mat
        rank = keep
    cores.append(current.reshape(rank, dims[-1])[:, :, None])
    for core in cores:
        core.flags.writeable = False
    return tuple(cores)


def tt_reconstruct(cores: Sequence[np.ndarray]) -> DenseTensor:
    """Contract the chain left to right back into a dense tensor."""
    result = cores[0]
    for core in cores[1:]:
        result = np.tensordot(result, core, axes=(result.ndim - 1, 0))
    return DenseTensor(result[0, ..., 0])

