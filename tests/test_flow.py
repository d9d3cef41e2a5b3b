import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_flow_conserved,
    dense,
    dense_links,
    make_line_instance,
    make_square_instance,
    planning_cases,
)
from meshplan.construct import ConstructionInfeasibleError, construct_feasible
from meshplan.flow import (
    MAX_PATH_TRIES,
    RoutingInfeasibleError,
    _lex_shortest_path,
    route_flows,
)
from meshplan.instance import RadioParams, build_grid_instance, row_capacities
from meshplan.kernels import UNREACHABLE, adjacency_csr, bfs_hops
from meshplan.model import (
    FEAS_TOL,
    Solution,
    check_constraints,
    evaluate_link_balance,
)


def _line_solution(inst, gateway_site):
    """Everything installed along the line, demand on site 0."""
    n = inst.num_sites
    sol = Solution.empty(inst)
    sol.ap[0] = 1
    sol.relay[1:] = 1
    sol.gateway[gateway_site] = 1
    sol.x[0, 0] = 1
    with dense_links(sol) as (L, _):
        for j in range(n - 1):
            L[j, j + 1, j % inst.K] = 1
    return sol


def _square_solution(inst, gateways=(3,)):
    """The 4-cycle with demand on site 0."""
    sol = Solution.empty(inst)
    sol.ap[0] = 1
    sol.relay[1:] = 1
    for g in gateways:
        sol.gateway[g] = 1
    sol.x[0, 0] = 1
    with dense_links(sol) as (L, _):
        L[0, 1, 0] = 1
        L[1, 3, 1] = 1
        L[0, 2, 1] = 1
        L[2, 3, 0] = 1
    return sol


def test_one_hop_route():
    inst = make_line_instance(2, A=1)
    sol = Solution.empty(inst)
    sol.ap[0] = 1
    sol.relay[1] = 1
    sol.gateway[1] = 1
    sol.x[0, 0] = 1
    with dense_links(sol) as (L, _):
        L[0, 1, 0] = 1
    routed, traces = route_flows(sol, inst)
    assert dense(routed)[1][0, 1, 0] == pytest.approx(2.0)
    assert routed.F[1] == pytest.approx(2.0)
    assert len(traces) == 1
    assert traces[0]["path"] == [0, 1]
    assert_flow_conserved(routed, inst)


def test_gateway_at_demand_site_short_circuits():
    inst = make_line_instance(3)
    sol = _line_solution(inst, gateway_site=0)
    routed, traces = route_flows(sol, inst)
    assert traces[0]["path"] == [0]
    assert routed.F[0] == pytest.approx(2.0)
    assert routed.f.sum() == 0.0
    assert_flow_conserved(routed, inst)


def test_route_does_not_mutate_input():
    inst = make_line_instance(3)
    sol = _line_solution(inst, gateway_site=2)
    before = sol.copy()
    routed, _ = route_flows(sol, inst)
    for name in ("links", "L", "f"):
        assert np.array_equal(getattr(sol, name), getattr(before, name))
    assert routed is not sol
    assert routed.f.sum() > 0


def test_nearest_gateway_wins():
    inst = make_line_instance(5)
    sol = _line_solution(inst, gateway_site=1)
    sol.gateway[4] = 1
    routed, traces = route_flows(sol, inst)
    assert traces[0]["gateway"] == 1
    assert routed.F[1] == pytest.approx(2.0)
    assert routed.F[4] == 0.0


def test_equidistant_tie_prefers_lower_index_gateway():
    inst = make_line_instance(5, dp_sites=(2,))
    sol = Solution.empty(inst)
    sol.ap[2] = 1
    sol.relay[[0, 1, 3, 4]] = 1
    sol.gateway[1] = 1
    sol.gateway[3] = 1
    sol.x[0, 2] = 1
    with dense_links(sol) as (L, _):
        for j in range(4):
            L[j, j + 1, j % inst.K] = 1
    routed, traces = route_flows(sol, inst)
    assert traces[0]["gateway"] == 1
    assert routed.F[1] == pytest.approx(2.0)


def test_lexicographically_smallest_shortest_path():
    inst = make_square_instance()
    sol = _square_solution(inst, gateways=(3,))
    routed, traces = route_flows(sol, inst)
    # both 0-1-3 and 0-2-3 are two hops; the smaller middle node wins
    assert traces[0]["path"] == [0, 1, 3]
    _, f = dense(routed)
    assert f[0, 1, 0] == pytest.approx(2.0)
    assert f[1, 3, 1] == pytest.approx(2.0)
    assert f[0, 2, 1] == 0.0
    assert_flow_conserved(routed, inst)


def test_capacity_fallback_takes_detour():
    inst = make_square_instance(
        capacity_overrides=((0, 1, 0, 1.0), (0, 1, 1, 1.0))
    )
    sol = _square_solution(inst, gateways=(3,))
    routed, traces = route_flows(sol, inst)
    assert traces[0]["path"] == [0, 2, 3]
    _, f = dense(routed)
    assert f[0, 2, 1] == pytest.approx(2.0)
    assert f[2, 3, 0] == pytest.approx(2.0)
    assert_flow_conserved(routed, inst)


@pytest.mark.parametrize("link", [(1, 0, 0), (3, 1, 1)])
def test_reverse_capacity_override_takes_detour(link):
    # the override names a link of the path 0-1-3 against its travel direction
    inst = make_square_instance(capacity_overrides=((*link, 1.0),))
    routed, traces = route_flows(_square_solution(inst, gateways=(3,)), inst)
    assert traces[0]["path"] == [0, 2, 3]
    assert_flow_conserved(routed, inst)


def test_reverse_capacity_override_in_check_and_link_balance():
    inst = make_square_instance(capacity_overrides=((1, 0, 0, 3.0),))
    routed, _ = route_flows(_square_solution(inst, gateways=(3,)), inst)
    assert dense(routed)[1][0, 1, 0] == pytest.approx(2.0)
    assert evaluate_link_balance(routed, inst) == pytest.approx(1.0)
    with dense_links(routed) as (_, f):
        f[0, 1, 0] = 4.0
    c10 = next(c for c in check_constraints(routed, inst).checks if c.id == "C10")
    assert c10.violations == [(0, 1, 0)]
    assert evaluate_link_balance(routed, inst) == pytest.approx(-1.0)


def test_saturated_cut_is_infeasible():
    inst = make_square_instance(
        capacity_overrides=tuple(
            (u, v, k, 1.0) for u, v in ((0, 1), (0, 2)) for k in (0, 1)
        )
    )
    sol = _square_solution(inst, gateways=(3,))
    with pytest.raises(RoutingInfeasibleError) as exc:
        route_flows(sol, inst)
    assert exc.value.site == 0
    assert str(exc.value) == "site 0: every path within 3 hops blocked by link capacity"


def test_hop_bound_excludes_far_gateways():
    inst = make_line_instance(6, A=3)
    sol = _line_solution(inst, gateway_site=5)
    with pytest.raises(RoutingInfeasibleError) as exc:
        route_flows(sol, inst)
    assert str(exc.value) == "site 0: no gateway within 3 hops"
    relaxed = make_line_instance(6, A=5)
    routed, traces = route_flows(_line_solution(relaxed, 5), relaxed)
    assert traces[0]["path"] == [0, 1, 2, 3, 4, 5]
    assert_flow_conserved(routed, relaxed)


def test_no_gateway_is_infeasible():
    inst = make_line_instance(3)
    sol = _line_solution(inst, gateway_site=2)
    sol.gateway[:] = 0
    with pytest.raises(RoutingInfeasibleError) as exc:
        route_flows(sol, inst)
    assert exc.value.site == 0
    assert str(exc.value) == "site 0: no gateway selected"


def test_flow_direction_matches_travel():
    inst = make_line_instance(3)
    sol = _line_solution(inst, gateway_site=2)
    routed, _ = route_flows(sol, inst)
    links = routed.link_list()
    # links carrying flow point downstream; f lives on the same slots
    assert (0, 1, 0) in links and (1, 2, 1) in links
    L, f = dense(routed)
    for j, l, k in links:
        if f[j, l, k] > 0:
            assert L[j, l, k] == 1
            assert L[l, j, k] == 0


def test_shared_link_accumulates_flow():
    inst = make_line_instance(3, dp_sites=(0, 1))
    sol = _line_solution(inst, gateway_site=2)
    sol.x = np.eye(2, 3, dtype=np.uint8)
    routed, traces = route_flows(sol, inst)
    assert dense(routed)[1][1, 2, 1] == pytest.approx(4.0)
    assert routed.F[2] == pytest.approx(4.0)
    assert len(traces) == 2
    assert_flow_conserved(routed, inst)


def test_full_channel_spills_onto_next_channel_of_same_pair():
    inst = make_line_instance(
        3, dp_sites=(0, 1), R=3, K=3, capacity_overrides=((1, 2, 0, 3.0),)
    )
    sol = Solution.empty(inst)
    sol.ap[:2] = 1
    sol.relay[2] = 1
    sol.gateway[2] = 1
    sol.x = np.eye(2, 3, dtype=np.uint8)
    sol.set_links([(0, 1, 2, 1, 0.0), (1, 2, 0, 1, 0.0), (1, 2, 1, 1, 0.0)])
    routed, traces = route_flows(sol, inst)
    # the first 2.0 leaves channel 0 too full for the second, which takes
    # channel 1 of the same pair
    assert [t["path"] for t in traces] == [[0, 1, 2], [1, 2]]
    _, f = dense(routed)
    assert f[1, 2, 0] == pytest.approx(2.0)
    assert f[1, 2, 1] == pytest.approx(2.0)
    assert_flow_conserved(routed, inst)


def test_opposite_flows_on_one_pair_take_separate_channels():
    # the path 3-0-1-2 with gateways 2 and 3 and pair 0-1 on channels 0 and
    # 1: site 0's 2.0 is too much for 0-3 and goes 0->1->2 on channel 0; site
    # 1's 1.0 then overfills 1-2 and goes 1->0->3, on channel 1, because a
    # channel carries flow one way
    inst = make_line_instance(
        4, dp_sites=(0, 1), R=3, K=3,
        capacity_overrides=((0, 3, 2, 1.5), (1, 2, 2, 2.5)),
    )
    inst = dataclasses.replace(inst, dp_traffic=np.array([2.0, 1.0]))
    sol = Solution.empty(inst)
    sol.ap[:2] = 1
    sol.relay[2:] = 1
    sol.gateway[[2, 3]] = 1
    sol.x = np.eye(2, 4, dtype=np.uint8)
    sol.set_links([(0, 1, 0, 1, 0.0), (0, 1, 1, 1, 0.0), (1, 2, 2, 1, 0.0),
                   (0, 3, 2, 1, 0.0)])
    routed, traces = route_flows(sol, inst)
    assert [t["path"] for t in traces] == [[0, 1, 2], [1, 0, 3]]
    assert routed.link_list() == [(0, 1, 0), (0, 3, 2), (1, 0, 1), (1, 2, 2)]
    assert routed.f.tolist() == [2.0, 1.0, 1.0, 2.0]
    assert routed.F.tolist() == [0.0, 0.0, 2.0, 1.0]
    assert_flow_conserved(routed, inst)


def test_link_stored_in_both_directions_routes_as_one():
    inst = make_line_instance(2, A=1)
    sol = Solution.empty(inst)
    sol.ap[0] = 1
    sol.relay[1] = 1
    sol.gateway[1] = 1
    sol.x[0, 0] = 1
    sol.set_links([(0, 1, 0, 1, 0.0), (1, 0, 0, 1, 0.0)])
    routed, _ = route_flows(sol, inst)
    assert routed.link_list() == [(0, 1, 0)]
    assert routed.f.tolist() == [2.0]
    assert_flow_conserved(routed, inst)


def test_traces_serialize_to_json():
    inst = make_line_instance(3)
    routed, traces = route_flows(_line_solution(inst, 2), inst)
    payload = json.loads(json.dumps(traces))
    assert payload == [
        {"site": 0, "gateway": 2, "path": [0, 1, 2], "demand": 2.0}
    ]


@settings(max_examples=60, deadline=None)
@given(planning_cases())
def test_routing_conserves_flow_within_link_capacity(case):
    inst, gateway_count, seed = case
    try:
        plan = construct_feasible(
            inst, np.random.default_rng(seed), max_retries=20,
            gateway_count=gateway_count,
        )
    except ConstructionInfeasibleError:
        assume(False)
    routed, traces = route_flows(plan, inst)
    assert_flow_conserved(routed, inst)
    caps = np.array(row_capacities(inst, routed.links))
    assert np.all(routed.f <= routed.L * caps + FEAS_TOL)
    assert sum(t["demand"] for t in traces) == pytest.approx(
        float(routed.site_loads(inst).sum())
    )
    # each record walks from its site to its gateway within A hops, and each
    # hop u -> v is an established link stored as (u, v, k) carrying flow
    carried = {
        (j, l) for (j, l, _), L, f in zip(routed.links.tolist(), routed.L, routed.f)
        if L == 1 and f > 0
    }
    for t in traces:
        path = t["path"]
        assert path[0] == t["site"] and path[-1] == t["gateway"]
        assert len(path) - 1 <= inst.A
        for hop in zip(path, path[1:]):
            assert hop in carried


@pytest.mark.parametrize("full", [7, 8])
def test_fan_of_blocked_paths_stops_after_max_path_tries(full):
    # nine two-hop paths 0-i-10; the first `full` are too narrow for the
    # demand, and each blocked try cuts one of them
    assert MAX_PATH_TRIES == 8
    inst = make_line_instance(
        11, capacity_overrides=tuple((0, i, 0, 1.0) for i in range(1, full + 1))
    )
    sol = Solution.empty(inst)
    sol.ap[0] = 1
    sol.relay[1:] = 1
    sol.gateway[10] = 1
    sol.x[0, 0] = 1
    sol.set_links(
        row for i in range(1, 10) for row in ((0, i, 0, 1, 0.0), (i, 10, 0, 1, 0.0))
    )
    if full == 7:
        routed, traces = route_flows(sol, inst)
        assert traces[0]["path"] == [0, 8, 10]
        assert_flow_conserved(routed, inst)
    else:
        # 0-9-10 is free, but it would be the ninth try
        with pytest.raises(RoutingInfeasibleError) as exc:
            route_flows(sol, inst)
        assert str(exc.value) == (
            "site 0: every path within 3 hops blocked by link capacity"
        )


def test_lex_shortest_path_raises_without_downhill_step():
    graph = [[1], [0, 2], [1]]  # the path 0-1-2
    assert _lex_shortest_path(graph, [2, 1, 0], 0, 2) == [0, 1, 2]
    # a hop row that is not a BFS of the graph: site 0's only neighbour is
    # no closer to gateway 2 than site 0 itself
    with pytest.raises(StopIteration):
        _lex_shortest_path(graph, [2, 2, 0], 0, 2)


def _reference_route_flows(solution, instance):
    """Routing as specified, written independently of `route_flows`: each
    blocked try rebuilds the hop graph from every site pair not yet dropped
    and walks it afresh."""
    s, A = instance.num_sites, instance.A
    out = solution.copy()
    loads = out.site_loads(instance)
    live = out.links[out.L == 1]
    caps = {}
    for (j, l, k), c in zip(live.tolist(), row_capacities(instance, live)):
        caps[min(j, l), max(j, l), k] = c
    keys = sorted(caps)
    sender = [None] * len(keys)
    flow = [0.0] * len(keys)
    pairs = sorted({(u, v) for u, v, _ in keys})

    def hops(gw, dropped=()):
        kept = [p for p in pairs if p not in dropped]
        graph = adjacency_csr(s, [u for u, _ in kept], [v for _, v in kept])
        return graph, bfs_hops(graph, A, gw)

    def walk(graph, dist, site, gw):
        path = [site]
        while path[-1] != gw:
            cur = path[-1]
            path.append(next(v for v in graph[cur] if dist[v] == dist[cur] - 1))
        return path

    def lowest_row(u, v, demand):
        for r, (a, b, _) in enumerate(keys):
            if (a, b) == (min(u, v), max(u, v)) and sender[r] in (None, u) \
                    and flow[r] + demand <= caps[keys[r]] + FEAS_TOL:
                return r
        return None

    def route_to(site, gw, demand):
        dropped = set()
        for _ in range(MAX_PATH_TRIES):
            graph, dist = hops(gw, dropped)
            if dist[site] == UNREACHABLE:
                return None
            path = walk(graph, dist, site, gw)
            picks = [(u, lowest_row(u, v, demand)) for u, v in zip(path, path[1:])]
            blocked = [i for i, (_, r) in enumerate(picks) if r is None]
            if not blocked:
                for u, r in picks:
                    sender[r] = u
                    flow[r] += demand
                return path
            u, v = path[blocked[0]], path[blocked[0] + 1]
            dropped.add((min(u, v), max(u, v)))
        return None

    demand_sites = np.flatnonzero(loads > FEAS_TOL).tolist()
    gateways = np.flatnonzero(out.gateway == 1).tolist()
    if demand_sites and not gateways:
        raise RoutingInfeasibleError(demand_sites[0], "no gateway selected")
    throughput = [0.0] * s
    traces = []
    for site in demand_sites:
        demand = float(loads[site])
        dists = [(hops(gw)[1][site], gw) for gw in gateways]
        order = sorted(d for d in dists if d[0] != UNREACHABLE)
        if not order:
            raise RoutingInfeasibleError(site, f"no gateway within {A} hops")
        for _, gw in order:
            path = route_to(site, gw, demand)
            if path is not None:
                break
        else:
            raise RoutingInfeasibleError(
                site, f"every path within {A} hops blocked by link capacity"
            )
        throughput[gw] += demand
        traces.append({"site": site, "gateway": gw, "path": path, "demand": demand})
    out.set_links(
        (v, u, k, 1, f) if snd == v else (u, v, k, 1, f)
        for (u, v, k), snd, f in zip(keys, sender, flow)
    )
    out.F = np.array(throughput, dtype=np.float64)
    return out, traces


@st.composite
def link_tables(draw):
    """A small grid with random links, demand, gateways and narrow links."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    s, K = rows * cols, draw(st.integers(1, 3))
    inst = build_grid_instance(
        rows, cols, n_dps=s, radio=RadioParams(
            radios=1, channels=K, capacity=6.0, max_hops=draw(st.integers(1, 4))
        ), seed=0,
    )
    # half the draws link each site pair with odds 1/2: dense graphs with
    # many equal-hop paths, or disconnected ones; the other half lay a random
    # tree (each site after the first links to an earlier one) plus up to s
    # more site pairs, so that paths run several hops and share pairs. Each
    # linked pair has one or two links on distinct channels, each in its own
    # direction and either wide (None: C_max) or narrower than some demands
    # and so blocking them
    pairs = [(j, l) for j in range(s) for l in range(j + 1, s)]
    if draw(st.booleans()):
        linked = {pair for pair, on in zip(pairs, draw(st.lists(
            st.booleans(), min_size=len(pairs), max_size=len(pairs),
        ))) if on}
    else:
        tree = {(draw(st.integers(0, l - 1)), l) for l in range(1, s)}
        linked = tree | draw(st.sets(st.sampled_from(pairs), max_size=s))
    narrow = st.sampled_from([1.0, 2.0, 3.0])
    row = st.tuples(st.integers(0, K - 1), st.none() | narrow, st.booleans())
    links, overrides = [], []
    for j, l in sorted(linked):
        for k, cap, flip in draw(
            st.lists(row, min_size=1, max_size=2, unique_by=lambda pick: pick[0])
        ):
            links.append((l, j, k) if flip else (j, l, k))
            if cap is not None:
                overrides.append((*links[-1], cap))
    traffic = np.array(draw(st.lists(
        st.sampled_from([1.0, 2.0, 3.0, 4.0]), min_size=s, max_size=s,
    )))
    inst = dataclasses.replace(
        inst, dp_traffic=traffic, capacity_overrides=tuple(overrides),
    )
    sol = Solution.empty(inst)
    site = st.integers(0, s - 1)
    for j, loaded in enumerate(draw(st.lists(st.booleans(), min_size=s, max_size=s))):
        sol.x[j, j] = loaded
    # one draw in four selects no gateway
    if draw(st.sampled_from([True, True, True, False])):
        sol.gateway[list(draw(st.sets(site, min_size=1, max_size=3)))] = 1
    sol.set_links((j, l, k, 1, 0.0) for j, l, k in links)
    return sol, inst


@settings(max_examples=300, deadline=None)
@given(link_tables())
def test_routing_matches_rebuilt_graph_reference(case):
    sol, inst = case
    try:
        expected = _reference_route_flows(sol, inst)
    except RoutingInfeasibleError as exc:
        with pytest.raises(RoutingInfeasibleError) as got:
            route_flows(sol, inst)
        assert str(got.value) == str(exc)
        return
    routed, traces = route_flows(sol, inst)
    ref, ref_traces = expected
    for name in ("links", "L", "f", "F"):
        assert getattr(routed, name).tolist() == getattr(ref, name).tolist(), name
    assert traces == ref_traces
