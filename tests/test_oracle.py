import dataclasses
import json
import math
from itertools import combinations, islice, product, zip_longest

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURES,
    assert_feasible,
    assert_same_plan,
    make_line_instance,
    make_square_instance,
)
from meshplan import oracle
from meshplan.cli import main
from meshplan.instance import (
    PlanningInstance,
    RadioParams,
    build_grid_instance,
    connectivity_matrix,
    coverage_matrix,
    default_gateway_count,
    load_instance,
    save_instance,
)
from meshplan.kernels import pareto_mask
from meshplan.model import (
    CheckFailed,
    ConstraintCheck,
    ConstraintReport,
    Solution,
    evaluate,
)
from meshplan.oracle import (
    GuardError,
    enumerate_feasible,
    true_pareto_front,
    verify_archive,
)

SQRT2 = math.sqrt(2.0)


def every_labeling(instance):
    """The instance with a no-op capacity override on link (0, 1, 0).

    Any override makes the oracle enumerate every channel assignment instead
    of one per set of linked pairs, so this copy takes the full path.
    """
    return dataclasses.replace(
        instance, capacity_overrides=((0, 1, 0, instance.C_max),)
    )


@pytest.fixture(scope="module")
def one_dp_instance():
    # a single demand point pinned to site 0; tiny enough to enumerate raw
    return make_square_instance(dp_sites=(0,), traffic=2.0, C_max=4.0, M=8.0)


def test_toy_enumeration_census(toy_instance):
    solutions = list(enumerate_feasible(toy_instance))
    assert len(solutions) == 6
    for sol, vec in solutions:
        assert_feasible(sol, toy_instance)
        assert vec.shape == (4,)
    distinct = {tuple(v) for _, v in solutions}
    assert distinct == {
        (6.0, -4.0, -4.0, 2.0),
        (6.0, -4.0, -0.0, 2.0),
        (6.0, -4.0, -0.0, 2 * SQRT2),
    }
    full = list(enumerate_feasible(every_labeling(toy_instance)))
    assert len(full) == 12
    assert {tuple(v) for _, v in full} == distinct


def test_no_fitting_demand_point_leaves_the_empty_plan(tmp_path, capsys):
    # every demand point asks 5.0, above C_max 4.0, so no site can serve one
    data = json.loads((FIXTURES / "toy2x2_instance.json").read_text())
    for dp in data["demand_points"]:
        dp["traffic"] = 5.0
    path = tmp_path / "overloaded.json"
    path.write_text(json.dumps(data))
    instance = load_instance(path)
    plans = list(enumerate_feasible(instance))
    assert len(plans) == 1
    assert not plans[0][0].z.any() and not plans[0][0].x.any()
    # the maximized zeros are -0.0, which == treats as 0
    assert true_pareto_front(instance, "lglb") == [(0, 0, 0, 0)]
    assert true_pareto_front(instance, "cov") == [(0, 0)]
    code = main(["verify", "--instance", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert ("no demand point is both covered by a site and within the site "
            "capacity") in capsys.readouterr().err


def test_no_feasible_plan_leaves_the_front_empty(tmp_path, capsys):
    # two sites can never give a node two backbone neighbors
    instance = make_line_instance(2)
    assert true_pareto_front(instance) == []
    path = tmp_path / "line2.json"
    save_instance(instance, path)
    code = main(["verify", "--instance", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "no feasible solution in 500 attempts" in err
    assert "cannot give every installed node degree 2" in err


def test_toy_front_single_point(toy_instance):
    front = true_pareto_front(toy_instance)
    assert front == [(6.0, -4.0, -4.0, 2.0)]


def test_toy_front_per_variant(toy_instance):
    assert true_pareto_front(toy_instance, variant="cov") == [(6.0, -4.0)]
    assert true_pareto_front(toy_instance, variant="llb") == [(6.0, -4.0, -4.0)]
    assert true_pareto_front(toy_instance, variant="glb") == [(6.0, -4.0, 2.0)]


def test_committed_front_still_true(toy_instance):
    stored = json.loads((FIXTURES / "toy2x2_front.json").read_text())
    assert stored["instance_hash"] == toy_instance.content_hash()
    assert stored["variant"] == "lglb"
    live = true_pareto_front(toy_instance)
    assert [tuple(v) for v in stored["front"]] == live


def test_policy_enumeration_counts(one_dp_instance):
    policy = list(enumerate_feasible(one_dp_instance))
    assert len(policy) == 4
    assert true_pareto_front(one_dp_instance) == [
        (5.0, -1.0, -4.0, SQRT2)
    ]
    full = every_labeling(one_dp_instance)
    assert len(list(enumerate_feasible(full))) == 8
    assert true_pareto_front(full) == [(5.0, -1.0, -4.0, SQRT2)]


def test_raw_enumeration_is_superset(one_dp_instance):
    raw = list(enumerate_feasible(one_dp_instance, policy_matched=False))
    assert len(raw) == 497
    full = every_labeling(one_dp_instance)
    assert len(list(enumerate_feasible(full, policy_matched=False))) == 993
    policy_vecs = {
        tuple(v) for _, v in enumerate_feasible(one_dp_instance)
    }
    raw_vecs = {tuple(v) for _, v in raw}
    assert policy_vecs <= raw_vecs
    # without the builder's conventions the empty plan and coverage-less
    # installations become admissible, widening the front
    front = true_pareto_front(one_dp_instance, policy_matched=False)
    assert (0.0, -0.0, -0.0, 0.0) in front
    assert (5.0, -1.0, -4.0, SQRT2) in front
    assert len(front) == 3


def test_benchmark_instance_routes_one_labeling_per_pair_set(
    verify2x3_instance, monkeypatch
):
    # the verify2x3 benchmark instance: 120 candidates with one channel
    # assignment per set of linked pairs, 7,920 with every labeling
    inst = verify2x3_instance
    calls = 0
    route_flows = oracle.route_flows

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return route_flows(*args, **kwargs)

    monkeypatch.setattr(oracle, "route_flows", counted)
    front = [(8.0, -6.0, -6.0, 2.449489742783178)]
    assert true_pareto_front(inst) == front
    assert calls == 120
    calls = 0
    assert true_pareto_front(every_labeling(inst)) == front
    assert calls == 7_920


def test_two_point_front_on_2x3_seed_5():
    """The verify2x3 build at instance seed 5 has a two-point lglb front."""
    inst = build_grid_instance(
        2, 3, 6, RadioParams(radios=2, channels=3, capacity=8.0), 5,
        coverage_radius=0.8,
    )
    lglb = [(6.0, -6.0, -8.0, 2.581988897471611),
            (8.0, -6.0, -6.0, 2.449489742783178)]
    assert true_pareto_front(inst) == lglb
    assert true_pareto_front(inst, "cov") == [(6.0, -6.0)]
    full = every_labeling(inst)
    every = [(sol, tuple(vec)) for sol, vec in enumerate_feasible(full)]
    assert _front(vec for _, vec in every) == lglb
    assert _front(evaluate(sol, full, "cov") for sol, _ in every) == [(6.0, -6.0)]


def _front(vectors):
    ordered = sorted({tuple(float(x) for x in v) for v in vectors})
    if not ordered:
        return []
    mask = pareto_mask(np.array(ordered, dtype=np.float64))
    return [v for v, keep in zip(ordered, mask) if keep]


@st.composite
def tiny_instances(draw):
    # 2x3 only at K = 2: at K = 3 its full path runs up to ~200,000
    # candidates; the benchmark-instance test above covers one such case.
    # The 1x3 row gets a backbone range of 2 so its sites form a triangle,
    # which needs three channels.
    rows, cols, K = draw(st.sampled_from(
        [(2, 2, 2), (2, 2, 3), (1, 3, 3), (2, 3, 2)]
    ))
    n_dps = draw(st.integers(2, 5))
    coord = st.tuples(
        st.floats(0.0, cols - 1.0), st.floats(0.0, rows - 1.0)
    )
    dps = draw(st.lists(coord, min_size=n_dps, max_size=n_dps))
    return PlanningInstance(
        rows=rows,
        cols=cols,
        spacing=1.0,
        sites=np.array(
            [(c, r) for r in range(rows) for c in range(cols)], dtype=np.float64
        ),
        dp_positions=np.array(dps, dtype=np.float64),
        dp_traffic=np.full(n_dps, 2.0),
        coverage_radius=draw(st.sampled_from([0.8, 1.0])),
        backbone_range=2.0 if rows == 1 else 1.0,
        R=2,
        K=K,
        C_max=draw(st.sampled_from([6.0, 8.0, 10.0])),
        A=3,
        M=1000.0,
        seed=0,
    )


def _class_key(sol):
    """Roles, assignment and linked site pairs: all but the channels."""
    pairs = frozenset((min(j, l), max(j, l)) for j, l, _ in sol.link_list())
    return (sol.ap.tobytes(), sol.relay.tobytes(), sol.gateway.tobytes(),
            sol.x.tobytes(), pairs)


def _assert_one_plan_per_class(inst, policy_matched):
    """The reduced path yields one plan per class of the full path, and
    every full-path plan has its class's vector; so both fronts agree."""
    reduced = {}
    for sol, vec in enumerate_feasible(inst, policy_matched=policy_matched):
        assert_feasible(sol, inst)
        key = _class_key(sol)
        assert key not in reduced
        reduced[key] = tuple(vec)
    # stream the full path: the raw space runs to tens of thousands of plans
    full = every_labeling(inst)
    keys, lglb, cov = set(), set(), set()
    for sol, vec in enumerate_feasible(full, policy_matched=policy_matched):
        key = _class_key(sol)
        assert reduced[key] == tuple(vec)
        keys.add(key)
        lglb.add(tuple(vec))
        cov.add(tuple(evaluate(sol, full, "cov")))
    assert keys == reduced.keys()
    assert true_pareto_front(inst, policy_matched=policy_matched) == _front(lglb)
    assert true_pareto_front(
        inst, "cov", policy_matched=policy_matched
    ) == _front(cov)


@settings(max_examples=20, deadline=None)
@given(tiny_instances())
def test_one_labeling_per_class_is_exact(inst):
    # a class is every plan with the same roles, assignment and linked
    # pairs, whatever the channels on them
    _assert_one_plan_per_class(inst, policy_matched=True)
    # the raw space only on 2x2 draws with 2 DPs at K = 2: with 5 DPs, or
    # at K = 3, its full path runs 15-25 s; the next test covers K = 3
    if inst.num_sites == 4 and inst.num_dps == 2 and inst.K == 2:
        _assert_one_plan_per_class(inst, policy_matched=False)


def test_one_labeling_per_class_is_exact_on_a_three_channel_cycle():
    # the 4-cycle at K = 3 has 18 channel assignments in three relabeling
    # classes, all on one pair set; one DP sits on each of two sites
    inst = make_square_instance(dp_sites=(0, 3), K=3)
    _assert_one_plan_per_class(inst, policy_matched=True)
    _assert_one_plan_per_class(inst, policy_matched=False)


def _degree_two_reference(nodes, b):
    return all(sum(1 for u in nodes if u != v and b[v, u]) >= 2 for v in nodes)


def _valid_installed_reference(nodes, b):
    """Minimum degree 2, then connectivity by depth-first search over b."""
    if not nodes:
        return True
    if not _degree_two_reference(nodes, b):
        return False
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        v = stack.pop()
        for u in nodes:
            if u not in seen and b[v, u]:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(nodes)


@st.composite
def symmetric_01(draw):
    """A symmetric 0/1 matrix with a zero diagonal on at most 6 nodes."""
    n = draw(st.integers(1, oracle.GUARD_SITES))
    m = n * (n - 1) // 2
    b = np.zeros((n, n), dtype=np.uint8)
    b[np.triu_indices(n, 1)] = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return b | b.T


@settings(max_examples=200, deadline=None)
@given(symmetric_01())
def test_installed_set_checks_match_dfs_reference(b):
    n = len(b)
    for r in range(n + 1):
        for nodes in combinations(range(n), r):
            assert oracle._min_degree_two(nodes, b) == _degree_two_reference(nodes, b)
            assert oracle._valid_installed(nodes, b) == _valid_installed_reference(
                nodes, b
            )


def _edge_configs_reference(nodes, b, R, K):
    """Every channelled link set on `nodes` over b, by brute force.

    One channel per linked pair, channels distinct at each node and 2 to R
    links per node. Returns the first such link set of each set of linked
    pairs, in `product` order, and every such link set.
    """
    edges = [(u, v) for u, v in combinations(nodes, 2) if b[u, v]]
    valid = []
    for chans in product(range(-1, K), repeat=len(edges)):  # -1: no link
        links = [(u, v, k) for (u, v), k in zip(edges, chans) if k >= 0]
        at = [[k for u, v, k in links if node in (u, v)] for node in nodes]
        if all(2 <= len(ks) <= R and len(set(ks)) == len(ks) for ks in at):
            valid.append(links)
    firsts = {}
    for links in valid:
        firsts.setdefault(_pairs(links), links)
    return list(firsts.values()), valid


def _pairs(links):
    return tuple((u, v) for u, v, _ in links)


def _degree_two_graphs(max_nodes):
    """Every symmetric 0/1 matrix on at most max_nodes nodes in which each
    node has two neighbors (the enumerator never asks for links on other
    sets), listed rather than filtered from random draws, which hypothesis's
    health check refuses when too few pass."""
    graphs = []
    for n in range(1, max_nodes + 1):
        for bits in product((0, 1), repeat=n * (n - 1) // 2):
            b = np.zeros((n, n), dtype=np.uint8)
            b[np.triu_indices(n, 1)] = bits
            b |= b.T
            if oracle._min_degree_two(tuple(range(n)), b):
                graphs.append(b)
    return graphs


DEGREE_TWO_GRAPHS = _degree_two_graphs(4)


@st.composite
def edge_config_cases(draw):
    """Radio limits and a connectivity matrix on at most 4 nodes, each with
    two neighbors."""
    b = draw(st.sampled_from(DEGREE_TWO_GRAPHS))
    radios = draw(st.integers(2, 3))
    inst = make_line_instance(len(b), R=radios, K=draw(st.integers(radios, 3)))
    return inst, b


def complete_graph_case():
    """K4 with R=3 and K=3, where a node can reach its last edge with no
    link yet, so that edge can take no channel."""
    inst = make_line_instance(4, R=3, K=3, backbone_range=5.0)
    return inst, connectivity_matrix(inst)


@settings(max_examples=200, deadline=None)
@given(edge_config_cases())
@example(complete_graph_case())
def test_edge_configs_match_brute_force(case):
    inst, b = case
    nodes = tuple(range(len(b)))
    got = list(oracle._edge_configs(nodes, b, inst))
    # the recursion's order (skip an edge, then ascending k) and product's
    # are both lexicographic, so the same link set comes first
    firsts, valid = _edge_configs_reference(nodes, b, inst.R, inst.K)
    assert got == firsts
    assert {_pairs(links) for links in got} == {_pairs(links) for links in valid}


def test_enumeration_includes_only_feasible(one_dp_instance):
    for sol, vec in enumerate_feasible(one_dp_instance, policy_matched=False):
        assert_feasible(sol, one_dp_instance)


def test_a_failing_witness_check_raises(toy_instance, tmp_path, monkeypatch):
    """A witness that fails the check is a program fault: the front raises
    CheckFailed, and so does verify, instead of exiting 2."""

    def failing(solution, instance):
        return ConstraintReport([ConstraintCheck("C1", False, [(0,)])])

    monkeypatch.setattr(oracle, "check_constraints", failing)
    with pytest.raises(CheckFailed, match="constraint check failed: C1$"):
        true_pareto_front(toy_instance)
    argv = ["verify", "--instance", str(FIXTURES / "toy2x2_instance.json"),
            "--out", str(tmp_path / "out")]
    with pytest.raises(CheckFailed, match="constraint check failed: C1$"):
        main(argv)


@pytest.mark.parametrize("name, variant", [
    ("toy", "lglb"), ("toy", "cov"), ("verify2x3", "lglb"),
])
def test_one_check_per_front_vector(
    name, variant, toy_instance, verify2x3_instance, monkeypatch
):
    inst = {"toy": toy_instance, "verify2x3": verify2x3_instance}[name]
    checked = []
    check = oracle.check_constraints

    def recording(solution, instance):
        checked.append(solution)
        return check(solution, instance)

    monkeypatch.setattr(oracle, "check_constraints", recording)
    front = true_pareto_front(inst, variant)
    assert front
    assert [tuple(evaluate(sol, inst, variant)) for sol in checked] == front


def _assemble_reference(instance, choice, aps, installed, gateways, links):
    """One plan built from zeros per gateway subset, as the enumerators did
    before they set gateways on copies of one plan per link set."""
    sol = Solution.empty(instance)
    for j in aps:
        sol.ap[j] = 1
    for j in installed:
        if not sol.ap[j]:
            sol.relay[j] = 1
    for j in gateways:
        sol.gateway[j] = 1
    for i, j in enumerate(choice):
        if j >= 0:
            sol.x[i, j] = 1
    sol.set_links((u, v, k, 1, 0.0) for u, v, k in links)
    for u, v, k in links:
        sol.w[u, k] = 1
        sol.w[v, k] = 1
    return sol


def _policy_candidates_reference(instance, a, b):
    sites = instance.num_sites
    for choice, loads in oracle._assignments(instance, a, range(sites), True):
        aps = tuple(sorted({int(j) for j in choice if j >= 0}))
        if not aps:
            yield _assemble_reference(instance, choice, (), (), (), ())
            continue
        budget = default_gateway_count(float(loads.sum()), instance.C_max)
        others = [j for j in range(sites) if j not in aps]
        for r in range(len(others) + 1):
            for extra in combinations(others, r):
                installed = tuple(sorted(aps + extra))
                if budget > len(installed):
                    continue
                if not oracle._valid_installed(installed, b):
                    continue
                for links in oracle._edge_configs(installed, b, instance):
                    for gws in combinations(installed, budget):
                        yield _assemble_reference(
                            instance, choice, aps, installed, gws, links
                        )


def _raw_candidates_reference(instance, a, b):
    sites = instance.num_sites
    for roles in product((0, 1, 2), repeat=sites):
        installed = tuple(j for j in range(sites) if roles[j] > 0)
        aps = tuple(j for j in range(sites) if roles[j] == 1)
        if not oracle._min_degree_two(installed, b):
            continue
        for choice, _ in oracle._assignments(instance, a, installed, False):
            for links in oracle._edge_configs(installed, b, instance):
                for gcount in range(len(installed) + 1):
                    for gws in combinations(installed, gcount):
                        yield _assemble_reference(
                            instance, choice, aps, installed, gws, links
                        )


@pytest.mark.parametrize("name, policy_matched", [
    ("toy", True), ("toy", False), ("toy_every_labeling", True),
    ("toy_every_labeling", False), ("verify2x3", True),
])
def test_enumerators_match_the_per_candidate_reference(
    name, policy_matched, toy_instance, verify2x3_instance
):
    inst = {
        "toy": toy_instance,
        "toy_every_labeling": every_labeling(toy_instance),
        "verify2x3": verify2x3_instance,
    }[name]
    a, b = coverage_matrix(inst), connectivity_matrix(inst)
    if policy_matched:
        got = oracle._policy_candidates(inst, a, b)
        want = _policy_candidates_reference(inst, a, b)
    else:
        got = oracle._raw_candidates(inst, a, b)
        want = _raw_candidates_reference(inst, a, b)
    count = 0
    for g, w in zip_longest(got, want):
        assert g is not None and w is not None, count
        assert_same_plan(g, w)
        count += 1
    assert count > 0


#: Spaces with more candidates are drawn again, to keep the test short.
SPACE_LIMIT = 1_500


@st.composite
def oracle_spaces(draw):
    """An instance within the guard and whether to enumerate the policy
    space (2x2 or 2x3, 1-4 DPs) or the raw one (2x2, 1-2 DPs); random
    matrices, mixed traffic and capacity overrides in some draws."""
    policy_matched = draw(st.booleans())
    rows, cols = draw(st.sampled_from([(2, 2), (2, 3)])) if policy_matched else (2, 2)
    # three radios only on the 2x2 policy space: elsewhere they give
    # thousands of link sets
    radios = draw(st.integers(2, 3)) if policy_matched and cols == 2 else 2
    inst = build_grid_instance(
        rows, cols, n_dps=draw(st.integers(1, 4 if policy_matched else 2)),
        radio=RadioParams(
            radios=radios, channels=draw(st.integers(radios, 3)),
            capacity=draw(st.sampled_from([4.0, 6.0, 8.0])),
        ),
        seed=draw(st.integers(0, 999)),
        coverage_radius=draw(st.sampled_from([0.8, 1.0])),
        random_matrix_density=draw(st.sampled_from([None, 0.5, 0.75, 1.0])),
    )
    traffic = np.array(draw(st.lists(
        st.sampled_from([1.0, 2.0, 3.0]),
        min_size=inst.num_dps, max_size=inst.num_dps,
    )))
    pairs = list(combinations(range(inst.num_sites), 2))
    overrides = draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.integers(0, inst.K - 1),
                  st.sampled_from([1.0, 2.0, 3.0])),
        max_size=2,
    ))
    inst = dataclasses.replace(
        inst, dp_traffic=traffic, M=inst.num_dps * float(traffic.max()),
        capacity_overrides=tuple((j, l, k, cap) for (j, l), k, cap in overrides),
    )
    return inst, policy_matched


@settings(max_examples=30, deadline=None)
@given(oracle_spaces())
def test_every_candidate_that_routes_passes_the_check(case):
    """The premise of checking only the front's witnesses: the enumerators
    build every candidate to meet C1-C9 and C14 and routing gives C10-C13,
    so the check never rejects a candidate that routes."""
    inst, policy_matched = case
    a, b = coverage_matrix(inst), connectivity_matrix(inst)
    space = oracle._policy_candidates if policy_matched else oracle._raw_candidates
    assume(sum(1 for _ in islice(space(inst, a, b), SPACE_LIMIT + 1)) <= SPACE_LIMIT)
    for sol, _ in enumerate_feasible(inst, policy_matched=policy_matched):
        assert_feasible(sol, inst)


def test_guard_refuses_large_instances():
    big = build_grid_instance(3, 3, n_dps=4, radio=RadioParams(), seed=0)
    with pytest.raises(GuardError):
        list(enumerate_feasible(big))
    many_dps = build_grid_instance(
        2, 3, n_dps=9, radio=RadioParams(radios=2, channels=3), seed=0
    )
    with pytest.raises(GuardError):
        list(enumerate_feasible(many_dps))


def test_front_is_mutually_nondominated(toy_instance):
    from meshplan.model import dominates

    front = true_pareto_front(toy_instance, variant="lglb")
    for u in front:
        for v in front:
            if u != v:
                assert not dominates(np.array(u), np.array(v))
    assert front == sorted(front)


def test_verify_archive_gradings():
    truth = [(2.0, -4.0), (3.0, -6.0)]
    exact = verify_archive([(2.0, -4.0), (3.0, -6.0)], truth)
    assert exact["on_front_fraction"] == 1.0
    assert exact["front_coverage_fraction"] == 1.0
    assert exact["violations"] == []

    partial = verify_archive([(2.0, -4.0)], truth)
    assert partial["on_front_fraction"] == 1.0
    assert partial["front_coverage_fraction"] == 0.5

    dominated = verify_archive([(2.0, -4.0), (4.0, -6.0)], truth)
    assert dominated["on_front_fraction"] == 0.5
    assert dominated["violations"] == [(4.0, -6.0)]

    empty = verify_archive([], truth)
    assert empty["on_front_fraction"] == 1.0
    assert empty["front_coverage_fraction"] == 0.0


def test_verify_archive_dimension_mismatch():
    with pytest.raises(ValueError):
        verify_archive([(1.0, 2.0)], [(1.0, 2.0, 3.0)])


def test_verify_archive_accepts_archive_object(toy_instance):
    from meshplan.mopso import MopsoConfig, run

    result = run(toy_instance, MopsoConfig(swarm_size=8, gmax=6, seed=1))
    report = verify_archive(
        result.archive.objectives_matrix(), true_pareto_front(toy_instance)
    )
    assert report["on_front_fraction"] == 1.0
    assert report["front_coverage_fraction"] == 1.0
