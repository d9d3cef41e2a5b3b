import numpy as np
import pytest

from conftest import assert_feasible, make_line_instance, make_square_instance
from meshplan.construct import (
    ChannelAssignmentError,
    ConstructionInfeasibleError,
    assign_channels,
    connect_backbone,
    construct_feasible,
    place_access_points,
    place_relays,
    rebuild_pipeline,
    select_gateways,
)
from meshplan.instance import (
    PlanningInstance,
    RadioParams,
    build_grid_instance,
    coverage_matrix,
    grid_neighbors,
)
from meshplan.model import Solution


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
    once = connect_backbone(sol, standard_instance)
    twice = connect_backbone(once, standard_instance)
    assert np.array_equal(once.z, twice.z)


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
    with pytest.raises(ConstructionInfeasibleError):
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
    with pytest.raises(ValueError):
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
    incident = linked.L.sum(axis=(1, 2)) + linked.L.sum(axis=(0, 2))
    assert incident.max() <= standard_instance.R
    assert incident[np.flatnonzero(linked.z)].min() >= 2
    # no channel repeats among links meeting at a node
    per_node_channel = linked.L.sum(axis=1) + linked.L.sum(axis=0)
    assert per_node_channel.max() <= 1
    # deterministic: same input, same links
    again = assign_channels(sol, standard_instance)
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
    assert np.array_equal(one.L, two.L)
    assert np.array_equal(one.f, two.f)


def test_construct_with_fixed_gateway_count(standard_instance, rng):
    sol = construct_feasible(standard_instance, rng, gateway_count=12)
    assert int(sol.gateway.sum()) == 12
    assert_feasible(sol, standard_instance)


def test_rebuild_pipeline_clears_stale_flows(standard_instance, rng):
    sol = construct_feasible(standard_instance, rng)
    dirty = sol.copy()
    dirty.f += 1.0
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
