import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meshplan import construct, mopso
from conftest import (
    PLAN_ARRAYS,
    assert_feasible,
    dense,
    dense_links,
    make_line_instance,
    make_square_instance,
    mixed_traffic_cases,
    planning_cases,
)
from meshplan.construct import (
    BackboneError,
    ChannelAssignmentError,
    ConstructionInfeasibleError,
    GatewayBudgetError,
    Outcomes,
    assign_channels,
    connect_backbone,
    construct_feasible,
    place_access_points,
    place_relays,
    rebuild_pipeline,
    select_gateways,
)
from meshplan.flow import RoutingInfeasibleError
from meshplan.instance import (
    PlanningInstance,
    RadioParams,
    build_grid_instance,
    coverage_matrix,
    grid_neighbors,
    row_capacities,
)
from meshplan.model import (
    CandidateRejected,
    CheckFailed,
    Solution,
)


def _lone_ap(instance, site):
    sol = Solution.empty(instance)
    sol.ap[site] = 1
    return sol


@pytest.mark.parametrize(
    "site,expected",
    [(0, 2), (5, 2), (30, 2), (35, 2), (3, 3), (12, 3), (23, 3), (32, 3),
     (7, 4), (14, 4), (28, 4)],
)
def test_lone_ap_relay_counts(standard_instance, site, expected):
    grown = place_relays(_lone_ap(standard_instance, site), standard_instance)
    assert int(grown.relay.sum()) == expected
    assert set(np.flatnonzero(grown.relay)) <= set(
        grid_neighbors(standard_instance, site)
    )
    assert grown.ap[site] == 1


def test_relays_count_existing_installs(standard_instance):
    sol = _lone_ap(standard_instance, 14)
    sol.relay[15] = 1
    sol.relay[13] = 1
    grown = place_relays(sol, standard_instance)
    # two neighbors already installed, so only two more appear
    assert int(grown.relay.sum()) == 4


def test_place_access_points_assigns_and_respects_capacity(standard_instance, rng):
    sol = place_access_points(Solution.empty(standard_instance), standard_instance, rng)
    a = coverage_matrix(standard_instance)
    loads = sol.site_loads(standard_instance)
    assert loads.max() <= standard_instance.C_max + 1e-9
    assert sol.x.sum(axis=1).max() <= 1
    assert np.all(sol.x <= a * sol.ap[None, :])
    # every coverable demand point ends up assigned
    coverable = a.max(axis=1) == 1
    assert np.array_equal(sol.x.sum(axis=1) == 1, coverable)
    assert not (sol.ap & sol.relay).any()


def test_place_access_points_converts_relays(rng):
    # the only covering site already carries a relay; access duty takes over
    inst = make_square_instance(dp_sites=(0,))
    base = Solution.empty(inst)
    base.relay[0] = 1
    sol = place_access_points(base, inst, rng)
    assert sol.ap[0] == 1
    assert sol.relay[0] == 0
    assert sol.x[0, 0] == 1


def test_connect_backbone_single_component_min_degree_two(standard_instance, rng):
    sol = place_relays(
        place_access_points(Solution.empty(standard_instance), standard_instance, rng),
        standard_instance,
    )
    linked = connect_backbone(sol, standard_instance)
    from meshplan.instance import connectivity_matrix

    b = connectivity_matrix(standard_instance)
    installed = np.flatnonzero(linked.z)
    degrees = (b * linked.z[None, :])[installed].sum(axis=1)
    assert degrees.min() >= 2
    # breadth-first reachability over installed sites only
    seen = {int(installed[0])}
    frontier = [int(installed[0])]
    while frontier:
        u = frontier.pop()
        for v in np.flatnonzero(b[u] * linked.z):
            if int(v) not in seen:
                seen.add(int(v))
                frontier.append(int(v))
    assert seen == set(int(j) for j in installed)


def test_connect_backbone_idempotent(standard_instance, rng):
    sol = place_relays(
        place_access_points(Solution.empty(standard_instance), standard_instance, rng),
        standard_instance,
    )
    empty = Solution.empty(standard_instance)
    for plan in (sol, empty):
        once = connect_backbone(plan, standard_instance)
        twice = connect_backbone(once, standard_instance)
        assert np.array_equal(once.z, twice.z)
    # the all-zero plan has nothing to join or lift: it comes back as it was
    assert not empty.z.any()


def test_connect_backbone_unreachable_components():
    # two installed islands with nothing installable between them
    sites = np.array([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (6.0, 0.0)])
    inst = PlanningInstance(
        rows=1, cols=4, spacing=1.0, sites=sites,
        dp_positions=np.array([(0.0, 0.0)]), dp_traffic=np.array([2.0]),
        coverage_radius=0.3, backbone_range=1.0, R=2, K=2,
        C_max=54.0, A=3, M=1000.0, seed=0,
    )
    sol = Solution.empty(inst)
    sol.ap[0] = 1
    sol.ap[2] = 1
    with pytest.raises(BackboneError, match="not connectable"):
        connect_backbone(sol, inst)


def test_select_gateways_default_budget(standard_instance, rng):
    sol = connect_backbone(
        place_relays(
            place_access_points(
                Solution.empty(standard_instance), standard_instance, rng
            ),
            standard_instance,
        ),
        standard_instance,
    )
    flagged = select_gateways(sol, standard_instance, rng)
    demand = float(sol.site_loads(standard_instance).sum())
    expected = max(1, int(np.ceil(demand / standard_instance.C_max - 1e-12)))
    assert int(flagged.gateway.sum()) == expected
    assert np.all(flagged.gateway <= flagged.z)


def test_select_gateways_refills_missing_only(standard_instance, rng):
    sol = connect_backbone(
        place_relays(
            place_access_points(
                Solution.empty(standard_instance), standard_instance, rng
            ),
            standard_instance,
        ),
        standard_instance,
    )
    first = select_gateways(sol, standard_instance, rng, count=3)
    kept = np.flatnonzero(first.gateway)
    more = select_gateways(first, standard_instance, rng, count=5)
    assert int(more.gateway.sum()) == 5
    assert np.all(more.gateway[kept] == 1)


def test_select_gateways_rejects_bad_counts(standard_instance, rng):
    sol = connect_backbone(
        place_relays(
            place_access_points(
                Solution.empty(standard_instance), standard_instance, rng
            ),
            standard_instance,
        ),
        standard_instance,
    )
    with pytest.raises(ValueError):
        select_gateways(sol, standard_instance, rng, count=0)
    with pytest.raises(GatewayBudgetError):
        select_gateways(sol, standard_instance, rng, count=int(sol.z.sum()) + 1)


def test_assign_channels_first_fit_properties(standard_instance, rng):
    sol = select_gateways(
        connect_backbone(
            place_relays(
                place_access_points(
                    Solution.empty(standard_instance), standard_instance, rng
                ),
                standard_instance,
            ),
            standard_instance,
        ),
        standard_instance,
        rng,
    )
    linked = assign_channels(sol, standard_instance)
    L, _ = dense(linked)
    incident = L.sum(axis=(1, 2)) + L.sum(axis=(0, 2))
    assert incident.max() <= standard_instance.R
    assert incident[np.flatnonzero(linked.z)].min() >= 2
    # no channel repeats among links meeting at a node
    per_node_channel = L.sum(axis=1) + L.sum(axis=0)
    assert per_node_channel.max() <= 1
    # deterministic: same input, same links
    again = assign_channels(sol, standard_instance)
    assert np.array_equal(linked.links, again.links)
    assert np.array_equal(linked.L, again.L)
    assert np.array_equal(linked.w, again.w)


def test_assign_channels_two_node_backbone_fails():
    inst = make_square_instance()
    sol = Solution.empty(inst)
    sol.ap[0] = 1
    sol.relay[1] = 1
    with pytest.raises(ChannelAssignmentError):
        assign_channels(sol, inst)


def test_assign_channels_triangle_needs_three_channels():
    sites = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 0.8)])
    base = dict(
        rows=1, cols=3, spacing=1.0, sites=sites,
        dp_positions=np.array([(0.0, 0.0)]), dp_traffic=np.array([2.0]),
        coverage_radius=0.3, backbone_range=1.0,
        C_max=54.0, A=3, M=1000.0, seed=0,
    )
    def installed_triangle(instance):
        sol = Solution.empty(instance)
        sol.ap[0] = 1
        sol.relay[1] = 1
        sol.relay[2] = 1
        return sol

    tight = PlanningInstance(R=2, K=2, **base)
    with pytest.raises(ChannelAssignmentError):
        assign_channels(installed_triangle(tight), tight)
    roomy = PlanningInstance(R=2, K=3, **base)
    linked = assign_channels(installed_triangle(roomy), roomy)
    assert len(linked.link_list()) == 3
    channels = {k for _, _, k in linked.link_list()}
    assert channels == {0, 1, 2}


def test_construct_feasible_seeds(standard_instance):
    for seed in range(10):
        sol = construct_feasible(standard_instance, np.random.default_rng(seed))
        assert_feasible(sol, standard_instance)


def test_construct_deterministic(standard_instance):
    one = construct_feasible(standard_instance, np.random.default_rng(5))
    two = construct_feasible(standard_instance, np.random.default_rng(5))
    assert np.array_equal(one.ap, two.ap)
    assert np.array_equal(one.relay, two.relay)
    assert np.array_equal(one.gateway, two.gateway)
    assert np.array_equal(one.x, two.x)
    assert np.array_equal(one.links, two.links)
    assert np.array_equal(one.L, two.L)
    assert np.array_equal(one.f, two.f)


def test_construct_with_fixed_gateway_count(standard_instance, rng):
    sol = construct_feasible(standard_instance, rng, gateway_count=12)
    assert int(sol.gateway.sum()) == 12
    assert_feasible(sol, standard_instance)


def test_rebuild_pipeline_clears_stale_flows(standard_instance, rng):
    sol = construct_feasible(standard_instance, rng)
    dirty = sol.copy()
    with dense_links(dirty) as (_, f):
        f += 1.0
    rebuilt = rebuild_pipeline(dirty, standard_instance, np.random.default_rng(1))
    assert_feasible(rebuilt, standard_instance)


def test_construct_gives_up_when_hopeless():
    # demand exists but nothing can cover it, so access placement can't start
    inst = build_grid_instance(
        2, 2, n_dps=1, radio=RadioParams(radios=2, channels=2), seed=0,
        coverage_radius=1e-6,
    )
    with pytest.raises(ConstructionInfeasibleError):
        construct_feasible(inst, np.random.default_rng(0), max_retries=5)


def test_construct_retries_past_backbone_failure():
    # two sites can never give a node two backbone neighbors, so every
    # attempt fails in connect_backbone; the loop must spend its budget
    inst = make_line_instance(2)
    with pytest.raises(ConstructionInfeasibleError, match="in 3 attempts") as err:
        construct_feasible(inst, np.random.default_rng(0), max_retries=3)
    assert "degree 2" in str(err.value)
    # with no attempt at all there would be no last failure to report
    with pytest.raises(ValueError, match="max_retries must be >= 1"):
        construct_feasible(inst, np.random.default_rng(0), max_retries=0)


@settings(max_examples=200, deadline=None)
@given(st.one_of(planning_cases(), mixed_traffic_cases()))
def test_rebuild_pipeline_output_is_a_fixed_point(case):
    """Rebuilding a copy of any plan the pipeline returned (constructed or
    mutated) draws nothing and reproduces every array byte for byte; the
    unchanged-mutation shortcut in `mutate_solution` relies on this."""
    inst, gateway_count, seed = case
    rng = np.random.default_rng(seed)
    try:
        plan = construct_feasible(inst, rng, max_retries=20, gateway_count=gateway_count)
    except ConstructionInfeasibleError:
        assume(False)
    plans = [plan]
    for mut in (0.3, 0.6, 1.0):
        mutated = mopso.mutate_solution(
            plan, plan, inst, rng, mut, gateway_count, retries=4,
            outcomes=Outcomes(4),
        )
        if mutated is not plan:
            plans.append(mutated)
    for plan in plans:
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        again = rebuild_pipeline(plan.copy(), inst, rng, gateway_count)
        assert rng.bit_generator.state == state
        for name in PLAN_ARRAYS:
            want, got = getattr(plan, name), getattr(again, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


def test_pipeline_value_error_propagates(standard_instance, rng, monkeypatch):
    """A ValueError inside a step is a bug, not a failed attempt: neither
    retry loop swallows it."""
    plan = construct_feasible(standard_instance, rng)

    def broken(*args):
        raise ValueError("bug in a pipeline step")

    monkeypatch.setattr(construct, "place_relays", broken)
    with pytest.raises(ValueError, match="bug in a pipeline step"):
        construct_feasible(standard_instance, rng, max_retries=3)
    with pytest.raises(ValueError, match="bug in a pipeline step"):
        mopso.mutate_solution(plan, plan, standard_instance, rng, mut=1.0,
                              outcomes=Outcomes(8))


def test_gateway_budget_is_retried(standard_instance, rng):
    """Asking for more gateways than installed nodes fails each attempt with
    GatewayBudgetError, which both retry loops treat as a failed attempt."""
    plan = construct_feasible(standard_instance, rng)
    too_many = standard_instance.num_sites + 1
    with pytest.raises(ConstructionInfeasibleError, match="in 3 attempts") as err:
        construct_feasible(standard_instance, rng, max_retries=3,
                           gateway_count=too_many)
    assert "exceeds" in str(err.value)
    out = mopso.mutate_solution(
        plan, plan, standard_instance, rng, mut=1.0, gateway_count=too_many,
        retries=3, outcomes=Outcomes(8),
    )
    assert out is plan


def test_failed_check_stops_construction(verify2x3_instance, monkeypatch):
    """A built plan that breaks a constraint is a program fault: it raises
    CheckFailed at once instead of being drawn again."""
    routed = []
    real = construct.route_flows

    def overloaded(solution, instance):
        plan, traces = real(solution, instance)
        live = int(np.flatnonzero(plan.L == 1)[0])
        cap = row_capacities(instance, plan.links[live:live + 1])[0]
        plan.f[live] = cap + 1.0
        routed.append(plan)
        return plan, traces

    monkeypatch.setattr(construct, "route_flows", overloaded)
    with pytest.raises(CheckFailed, match="C10"):
        construct_feasible(verify2x3_instance, np.random.default_rng(0))
    assert len(routed) == 1


def test_attempt_failures_are_candidate_rejections():
    for cls in (BackboneError, ChannelAssignmentError, GatewayBudgetError,
                RoutingInfeasibleError):
        assert issubclass(cls, CandidateRejected), cls
    # a failed check and the instance-level verdict are not one more
    # retryable attempt
    assert not issubclass(CheckFailed, CandidateRejected)
    assert not issubclass(ConstructionInfeasibleError, CandidateRejected)


def test_memo_keeps_no_routing_failure(monkeypatch):
    # the square's demand site 0 reaches gateway 3 only over links of
    # capacity 1, short of its 2 Mb/s
    inst = make_square_instance(
        capacity_overrides=tuple(
            (u, v, k, 1.0) for u, v in ((0, 1), (0, 2)) for k in (0, 1)
        )
    )
    partial = Solution.empty(inst)
    partial.ap[0] = partial.x[0, 0] = 1
    partial.relay[3] = partial.gateway[3] = 1
    outcomes = Outcomes(2)
    routed = []
    real = construct.route_flows

    def route(*args):
        routed.append(args[0])
        return real(*args)

    monkeypatch.setattr(construct, "route_flows", route)
    message = "site 0: every path within 3 hops blocked by link capacity"
    for _ in range(2):
        with pytest.raises(RoutingInfeasibleError, match=message):
            rebuild_pipeline(partial.copy(), inst, np.random.default_rng(0),
                             None, outcomes)
        assert len(outcomes) == 0
    assert len(routed) == 2
