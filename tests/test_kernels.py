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


def _random_edges(rng, n, m):
    """m random (head, tail) pairs on n nodes: repeats, both directions and
    self-loops included."""
    return rng.integers(0, n, m).tolist(), rng.integers(0, n, m).tolist()


def _dense(n, heads, tails):
    adj = np.zeros((n, n), dtype=bool)
    adj[heads, tails] = adj[tails, heads] = True
    return adj


def test_adjacency_csr_ascending_neighbors(rng):
    heads, tails = _random_edges(rng, 12, 40)
    graph = adjacency_csr(12, heads, tails)
    assert isinstance(graph, list) and len(graph) == 12
    assert all(isinstance(row, list) for row in graph)
    adj = _dense(12, heads, tails)
    for u in range(12):
        assert graph[u] == np.flatnonzero(adj[u]).tolist()


def test_adjacency_csr_empty_graph():
    assert adjacency_csr(4, [], []) == [[], [], [], []]


def test_adjacency_csr_merges_duplicates_and_directions():
    # 0-1 given three times in both directions, 2-3 once, a self-loop at 3
    graph = adjacency_csr(4, [0, 1, 0, 3, 3], [1, 0, 1, 2, 3])
    assert graph == [[1], [0], [3], [2, 3]]


def test_bfs_hops_path_graph():
    graph = adjacency_csr(5, [0, 1, 2, 3], [1, 2, 3, 4])
    assert bfs_hops(graph, 5, 0) == [0, 1, 2, 3, 4]
    assert bfs_hops(graph, 5, 2) == [2, 1, 0, 1, 2]


def test_bfs_hops_disconnected_component():
    graph = adjacency_csr(4, [0], [1])
    assert bfs_hops(graph, 4, 0) == [0, 1, UNREACHABLE, UNREACHABLE]


def test_bfs_hops_ignores_self_loops_and_repeats():
    graph = adjacency_csr(3, [0, 0, 1, 1, 2], [0, 1, 0, 2, 1])
    assert bfs_hops(graph, 3, 0) == [0, 1, 2]
    assert bfs_hops(graph, 1, 0) == [0, 1, UNREACHABLE]


def test_bfs_hops_multi_stacks_single_source(rng):
    graph = adjacency_csr(15, *_random_edges(rng, 15, 25))
    sources = [0, 3, 7]
    multi = bfs_hops_multi(graph, 15, sources)
    assert multi == [bfs_hops(graph, 15, src) for src in sources]


@st.composite
def _graph_and_limit(draw):
    """Random edge lists on n <= 20 nodes (often disconnected, with repeats,
    both directions and self-loops) and a hop limit."""
    n = draw(st.integers(1, 20))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    heads = [u for u, _ in edges]
    tails = [v for _, v in edges]
    return n, heads, tails, draw(st.integers(0, n))


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
    n, heads, tails, limit = case
    adj = _dense(n, heads, tails)
    graph = adjacency_csr(n, heads, tails)
    for u in range(n):
        assert graph[u] == np.flatnonzero(adj[u]).tolist()
    multi = bfs_hops_multi(graph, limit, range(n))
    assert len(multi) == n
    for src in range(n):
        full = bfs_hops(graph, n, src)
        assert full == _hops_reference(adj, src).tolist()
        expected = [UNREACHABLE if d > limit else d for d in full]
        assert bfs_hops(graph, limit, src) == expected
        assert multi[src] == expected


def test_bfs_hops_multi_without_sources():
    graph = adjacency_csr(3, [], [])
    assert bfs_hops_multi(graph, 2, []) == []


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
