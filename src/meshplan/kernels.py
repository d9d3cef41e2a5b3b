"""Numeric kernels: BFS hop counts, Pareto filtering, crowding distance,
neighbour lists.

Plain numpy/Python, one implementation each. Archive bytes depend on the
exact floating-point summation order of `crowding_distance_kernel` and on
the ascending neighbour order of `adjacency_csr`; keep both when editing.

Every hop search outside construction walks one graph form, the per-node
ascending neighbour lists that `adjacency_csr` builds from edge lists. The
BFS kernels take a hop `limit`: nodes more than `limit` hops from the
source read UNREACHABLE, exactly as if they were cut off, and every node
within `limit` hops gets its true hop count. Routing and the C12 check pass
the instance hop bound A and rely on this exactness: they only read hop
counts up to A, and the downhill path walk only visits nodes closer to the
gateway than its start.
"""

from __future__ import annotations

import numpy as np

UNREACHABLE = -1

# Read by perfbench/run.py for its machine stamp and kernel-path metric.
NUMBA_ENABLED = False


def bfs_hops(graph, limit, source):
    """Hop counts from source over neighbour lists, as a list; UNREACHABLE
    where cut off or more than `limit` hops away."""
    dist = [UNREACHABLE] * len(graph)
    dist[source] = 0
    frontier = [source]
    depth = 0
    while frontier and depth < limit:
        depth += 1
        nxt = []
        for u in frontier:
            for v in graph[u]:
                if dist[v] == UNREACHABLE:
                    dist[v] = depth
                    nxt.append(v)
        frontier = nxt
    return dist


def bfs_hops_multi(graph, limit, sources):
    """One `bfs_hops` list per source, in source order."""
    return [bfs_hops(graph, limit, src) for src in sources]


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


def adjacency_csr(n, heads, tails):
    """Undirected neighbour lists over n nodes from edge lists: one list per
    node, in ascending index order, which downstream tie-breaking relies on.

    Each (heads[i], tails[i]) pair links both ways; repeated pairs, in either
    direction, give one neighbour entry.
    """
    nbrs = [set() for _ in range(n)]
    for u, v in zip(heads, tails):
        nbrs[u].add(v)
        nbrs[v].add(u)
    return [sorted(row) for row in nbrs]
