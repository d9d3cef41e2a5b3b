"""Numeric kernels: BFS hop counts, Pareto filtering, crowding distance, CSR.

Plain numpy/Python, one implementation each. Archive bytes depend on the
exact floating-point summation order of `crowding_distance_kernel` and on
the ascending neighbor order of `adjacency_csr`; keep both when editing.
"""

from __future__ import annotations

import numpy as np

UNREACHABLE = -1

# Read by perfbench/run.py for its machine stamp and kernel-path metric.
NUMBA_ENABLED = False


def bfs_hops(indptr, indices, source, n):
    """Hop counts from source over a CSR adjacency; UNREACHABLE where cut off."""
    indptr, indices = indptr.tolist(), indices.tolist()
    dist = [UNREACHABLE] * n
    dist[source] = 0
    queue = [int(source)]
    for u in queue:  # the queue grows while it is walked
        du = dist[u] + 1
        for v in indices[indptr[u]:indptr[u + 1]]:
            if dist[v] == UNREACHABLE:
                dist[v] = du
                queue.append(v)
    return np.array(dist, dtype=np.int32)


def bfs_hops_multi(indptr, indices, sources, n):
    """One `bfs_hops` row per source, stacked into an (len(sources), n) array."""
    out = np.empty((len(sources), n), dtype=np.int32)
    for i, src in enumerate(sources):
        out[i] = bfs_hops(indptr, indices, src, n)
    return out


def pareto_mask(values):
    """Mask of non-dominated rows (minimization, strict dominance)."""
    mask = np.ones(values.shape[0], dtype=np.bool_)
    for i, row in enumerate(values):
        dominators = ~(values > row).any(axis=1) & (values < row).any(axis=1)
        mask[i] = not dominators.any()
    return mask


def crowding_distance_kernel(values):
    """Crowding distance per row; boundary rows per objective get +inf.

    Interior contribution per objective is the normalized neighbor gap;
    objectives with zero spread contribute nothing. Ties keep the stable
    sort order, so equal values resolve by row index.
    """
    m, d = values.shape
    cd = np.zeros(m, dtype=np.float64)
    if m == 0:
        return cd
    for k in range(d):
        order = np.argsort(values[:, k], kind="mergesort")
        col = values[order, k]
        cd[order[0]] = np.inf
        cd[order[-1]] = np.inf
        spread = col[-1] - col[0]
        if spread > 0.0:
            cd[order[1:-1]] += (col[2:] - col[:-2]) / spread
    return cd


def adjacency_csr(adj: np.ndarray):
    """CSR (indptr, indices) from a dense boolean adjacency matrix.

    Neighbor lists come out in ascending index order, which downstream
    tie-breaking relies on.
    """
    indptr = np.zeros(adj.shape[0] + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.count_nonzero(adj, axis=1))
    indices = np.nonzero(adj)[1].astype(np.int32)
    return indptr, indices
