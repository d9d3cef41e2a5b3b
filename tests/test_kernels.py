import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshplan.kernels import (
    UNREACHABLE,
    adjacency_csr,
    bfs_hops,
    bfs_hops_multi,
    crowding_distance_kernel,
    pareto_mask,
)
from meshplan.model import dominates


def _random_graph(rng, n, density=0.25):
    adj = rng.random((n, n)) < density
    adj = np.triu(adj, 1)
    return (adj | adj.T).astype(np.uint8)


def test_adjacency_csr_ascending_neighbors(rng):
    adj = _random_graph(rng, 12)
    indptr, indices = adjacency_csr(adj)
    assert indptr[0] == 0 and indptr[-1] == len(indices)
    for u in range(12):
        row = indices[indptr[u]:indptr[u + 1]]
        assert list(row) == sorted(row)
        assert set(row) == set(np.flatnonzero(adj[u]))


def test_adjacency_csr_empty_graph():
    indptr, indices = adjacency_csr(np.zeros((4, 4), dtype=np.uint8))
    assert list(indptr) == [0, 0, 0, 0, 0]
    assert len(indices) == 0


def test_bfs_hops_path_graph():
    adj = np.zeros((5, 5), dtype=np.uint8)
    for j in range(4):
        adj[j, j + 1] = adj[j + 1, j] = 1
    indptr, indices = adjacency_csr(adj)
    assert list(bfs_hops(indptr, indices, 0, 5)) == [0, 1, 2, 3, 4]
    assert list(bfs_hops(indptr, indices, 2, 5)) == [2, 1, 0, 1, 2]


def test_bfs_hops_disconnected_component():
    adj = np.zeros((4, 4), dtype=np.uint8)
    adj[0, 1] = adj[1, 0] = 1
    indptr, indices = adjacency_csr(adj)
    dist = bfs_hops(indptr, indices, 0, 4)
    assert list(dist) == [0, 1, UNREACHABLE, UNREACHABLE]


def test_bfs_hops_multi_stacks_single_source(rng):
    adj = _random_graph(rng, 15)
    indptr, indices = adjacency_csr(adj)
    sources = np.array([0, 3, 7], dtype=np.int32)
    multi = bfs_hops_multi(indptr, indices, sources, 15)
    for row, src in zip(multi, sources):
        assert np.array_equal(row, bfs_hops(indptr, indices, int(src), 15))


@st.composite
def _graph_and_limit(draw):
    """Random undirected graph on n <= 20 nodes (often disconnected) and a limit."""
    n = draw(st.integers(1, 20))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    return adj, draw(st.integers(0, n))


def _hops_reference(adj, src):
    """Hop counts by frontier expansion over the dense adjacency matrix."""
    dist = np.full(len(adj), UNREACHABLE)
    dist[src] = 0
    frontier = dist == 0
    depth = 0
    while frontier.any():
        depth += 1
        frontier = adj[frontier].any(axis=0) & (dist == UNREACHABLE)
        dist[frontier] = depth
    return dist


@settings(max_examples=200, deadline=None)
@given(_graph_and_limit())
def test_bounded_bfs_truncates_full_bfs(case):
    adj, limit = case
    n = adj.shape[0]
    indptr, indices = adjacency_csr(adj)
    sources = np.arange(n, dtype=np.int32)
    multi = bfs_hops_multi(indptr, indices, sources, n, limit)
    assert multi.shape == (n, n) and multi.dtype == np.int32
    for src in range(n):
        full = bfs_hops(indptr, indices, src, n)
        assert np.array_equal(full, _hops_reference(adj, src))
        expected = np.where(full > limit, UNREACHABLE, full)
        bounded = bfs_hops(indptr, indices, src, n, limit)
        assert bounded.dtype == np.int32
        assert np.array_equal(bounded, expected)
        assert np.array_equal(multi[src], bounded)


def test_bfs_hops_multi_without_sources():
    indptr, indices = adjacency_csr(np.zeros((3, 3), dtype=np.uint8))
    out = bfs_hops_multi(indptr, indices, np.array([], dtype=np.int32), 3, 2)
    assert out.shape == (0, 3) and out.dtype == np.int32


def test_pareto_mask_matches_dominance(rng):
    pts = rng.integers(0, 5, size=(40, 3)).astype(np.float64)
    for values in (pts, np.vstack([pts, pts[::4]])):  # second: duplicate rows
        mask = pareto_mask(values)
        for i in range(len(values)):
            dominated = any(
                dominates(values[j], values[i])
                for j in range(len(values))
                if j != i
            )
            assert mask[i] == (not dominated)


def test_pareto_mask_all_equal_rows():
    pts = np.ones((5, 2))
    assert pareto_mask(pts).all()


def test_crowding_distance_known_values():
    values = np.array([[1.0], [2.0], [4.0]])
    cd = crowding_distance_kernel(values)
    assert cd[0] == np.inf and cd[2] == np.inf
    assert cd[1] == pytest.approx((4.0 - 1.0) / 3.0)


def test_crowding_distance_boundaries_per_objective():
    values = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    cd = crowding_distance_kernel(values)
    assert cd[0] == np.inf and cd[1] == np.inf
    assert cd[2] == pytest.approx(2.0)


def test_crowding_distance_zero_spread_objective():
    values = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    cd = crowding_distance_kernel(values)
    assert cd[1] == pytest.approx((3.0 - 1.0) / 2.0)


def _crowding_reference(values):
    """Per-element loop in the summation order the archive bytes rely on."""
    m, d = values.shape
    cd = np.zeros(m)
    for k in range(d if m else 0):
        order = np.argsort(values[:, k], kind="mergesort")
        cd[order[0]] = cd[order[-1]] = np.inf
        spread = values[order[-1], k] - values[order[0], k]
        if spread > 0.0:
            for r in range(1, m - 1):
                gap = values[order[r + 1], k] - values[order[r - 1], k]
                cd[order[r]] += gap / spread
    return cd


@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_crowding_distance_bitwise_against_loop(rng, m):
    cases = [
        rng.random((m, 4)),
        rng.integers(0, 3, size=(m, 3)).astype(np.float64),  # ties
        np.column_stack([rng.random(m), np.full(m, 7.0)]),  # zero spread
    ]
    for values in cases:
        expected = _crowding_reference(values)
        assert crowding_distance_kernel(values).tobytes() == expected.tobytes()
