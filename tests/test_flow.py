import json

import numpy as np
import pytest
from hypothesis import assume, given, settings

from conftest import (
    assert_flow_conserved,
    dense,
    dense_links,
    make_line_instance,
    make_square_instance,
    planning_cases,
)
from meshplan.construct import ConstructionInfeasibleError, construct_feasible
from meshplan.flow import RoutingInfeasibleError, route_flows, traces_to_json
from meshplan.instance import row_capacities
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
    assert traces[0].path == [0, 1]
    assert_flow_conserved(routed, inst)


def test_gateway_at_demand_site_short_circuits():
    inst = make_line_instance(3)
    sol = _line_solution(inst, gateway_site=0)
    routed, traces = route_flows(sol, inst)
    assert traces[0].path == [0]
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
    assert traces[0].gateway == 1
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
    assert traces[0].gateway == 1
    assert routed.F[1] == pytest.approx(2.0)


def test_lexicographically_smallest_shortest_path():
    inst = make_square_instance()
    sol = _square_solution(inst, gateways=(3,))
    routed, traces = route_flows(sol, inst)
    # both 0-1-3 and 0-2-3 are two hops; the smaller middle node wins
    assert traces[0].path == [0, 1, 3]
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
    assert traces[0].path == [0, 2, 3]
    _, f = dense(routed)
    assert f[0, 2, 1] == pytest.approx(2.0)
    assert f[2, 3, 0] == pytest.approx(2.0)
    assert_flow_conserved(routed, inst)


@pytest.mark.parametrize("link", [(1, 0, 0), (3, 1, 1)])
def test_reverse_capacity_override_takes_detour(link):
    # the override names a link of the path 0-1-3 against its travel direction
    inst = make_square_instance(capacity_overrides=((*link, 1.0),))
    routed, traces = route_flows(_square_solution(inst, gateways=(3,)), inst)
    assert traces[0].path == [0, 2, 3]
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
    assert traces[0].path == [0, 1, 2, 3, 4, 5]
    assert_flow_conserved(routed, relaxed)


def test_no_gateway_is_infeasible():
    inst = make_line_instance(3)
    sol = _line_solution(inst, gateway_site=2)
    sol.gateway[:] = 0
    with pytest.raises(RoutingInfeasibleError):
        route_flows(sol, inst)


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
    assert [t.path for t in traces] == [[0, 1, 2], [1, 2]]
    _, f = dense(routed)
    assert f[1, 2, 0] == pytest.approx(2.0)
    assert f[1, 2, 1] == pytest.approx(2.0)
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
    payload = json.loads(traces_to_json(traces))
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
    assert sum(t.demand for t in traces) == pytest.approx(
        float(routed.site_loads(inst).sum())
    )
