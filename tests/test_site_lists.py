"""The construction steps that read per-instance site lists give the same
plans, draws and failures as the matrix-indexing versions they replaced.

Each `*_matrix` function below is the earlier implementation, kept here as
the reference: it re-derives everything from the coverage and connectivity
matrices on every call. The backbone reference also keeps the earlier graph
walks, `components` and `shortest_join`, so that it shares no walk with
`connect_backbone`.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_plan,
    make_line_instance,
    mixed_traffic_cases,
    planning_cases,
)
from meshplan.construct import (
    BackboneError,
    ChannelAssignmentError,
    assign_channels,
    connect_backbone,
    place_access_points,
    place_relays,
)
from meshplan.instance import (
    RadioParams,
    build_grid_instance,
    connectivity_matrix,
    coverage_matrix,
)
from meshplan.model import FEAS_TOL, Solution
from meshplan.mopso import MopsoConfig, run


def place_access_points_matrix(partial, instance, rng):
    covers = coverage_matrix(instance) == 1
    traffic = instance.dp_traffic
    traffic_list = traffic.tolist()
    loads = partial.site_loads(instance)
    unassigned = partial.x.sum(axis=1) == 0
    remaining = np.where(partial.ap == 1, instance.C_max - loads, instance.C_max)
    fits = covers & unassigned[:, None] & (
        traffic[:, None] <= remaining[None, :] + FEAS_TOL
    )
    while True:
        candidates = np.flatnonzero(fits.any(axis=0))
        if len(candidates) == 0:
            break
        pick = int(candidates[rng.integers(len(candidates))])
        partial.relay[pick] = 0
        partial.ap[pick] = 1
        load = float(loads[pick])
        budget = instance.C_max - load
        assigned = []
        for i in np.flatnonzero(fits[:, pick]).tolist():
            if traffic_list[i] <= budget + FEAS_TOL:
                assigned.append(i)
                budget -= traffic_list[i]
                load += traffic_list[i]
        partial.x[assigned, pick] = 1
        loads[pick] = load
        unassigned[assigned] = False
        fits[assigned, :] = False
        fits[:, pick] = covers[:, pick] & unassigned & (
            traffic <= instance.C_max - load + FEAS_TOL
        )
    return partial


def components(z, nbrs):
    """Every installed component, each sorted, in smallest-member order."""
    seen = set()
    comps = []
    for start in range(len(z)):
        if not z[start] or start in seen:
            continue
        comp = [start]
        seen.add(start)
        for u in comp:  # breadth-first: comp grows while it is walked
            for v in nbrs[u]:
                if z[v] and v not in seen:
                    seen.add(v)
                    comp.append(v)
        comps.append(sorted(comp))
    return comps


def shortest_join(sources, targets, nbrs):
    """BFS over all sites from sources; path to the nearest target node."""
    parent = [-2] * len(nbrs)
    for v in sources:
        parent[v] = -1
    queue = list(sources)
    for u in queue:  # the queue grows while it is walked
        if u in targets:
            path = [u]
            while parent[path[-1]] != -1:
                path.append(parent[path[-1]])
            return path[::-1]
        for v in nbrs[u]:
            if parent[v] == -2:
                parent[v] = u
                queue.append(v)
    raise BackboneError("backbone graph is not connectable")


def connect_backbone_matrix(partial, instance):
    b = connectivity_matrix(instance)
    z = partial.z.tolist()
    if not any(z):
        return partial
    nbrs = [[] for _ in z]
    for u, v in zip(*(axis.tolist() for axis in np.nonzero(b))):
        nbrs[u].append(v)

    def install_relay(v):
        partial.relay[v] = 1
        z[v] = 1

    while True:
        comps = components(z, nbrs)
        if len(comps) <= 1:
            break
        comps.sort(key=lambda c: c[0])
        rest = set()
        for comp in comps[1:]:
            rest.update(comp)
        for v in shortest_join(comps[0], rest, nbrs):
            if not z[v]:
                install_relay(v)
    while True:
        deficient = [
            v for v in range(len(z))
            if z[v] == 1 and sum(z[nb] for nb in nbrs[v]) < 2
        ]
        if not deficient:
            break
        progressed = False
        for v in deficient:
            need = 2 - sum(z[nb] for nb in nbrs[v])
            for nb in nbrs[v]:
                if need <= 0:
                    break
                if not z[nb]:
                    install_relay(nb)
                    need -= 1
                    progressed = True
        if not progressed:
            raise BackboneError(
                "connectivity graph cannot give every installed node degree 2"
            )
    return partial


def assign_channels_matrix(partial, instance):
    b = connectivity_matrix(instance)
    installed = np.flatnonzero(partial.z == 1)
    sites = installed.tolist()
    rows, cols = np.nonzero(b[installed[:, None], installed])
    degree = {j: 0 for j in sites}
    used = {j: set() for j in sites}
    heads, tails, chans = [], [], []
    for p, q in zip(rows.tolist(), cols.tolist()):
        if q <= p:
            continue
        j, l = sites[p], sites[q]
        if degree[j] >= instance.R or degree[l] >= instance.R:
            continue
        for k in range(instance.K):
            if k in used[j] or k in used[l]:
                continue
            heads.append(j)
            tails.append(l)
            chans.append(k)
            degree[j] += 1
            degree[l] += 1
            used[j].add(k)
            used[l].add(k)
            break
    partial.set_links((j, l, k, 1, 0.0) for j, l, k in zip(heads, tails, chans))
    partial.w[heads, chans] = 1
    partial.w[tails, chans] = 1
    lonely = [j for j in degree if degree[j] < 2]
    if lonely:
        raise ChannelAssignmentError(
            f"nodes left with fewer than two links: {lonely}"
        )
    return partial


def outcome(step, plan, instance):
    """The plan a step made, or the class and message of its failure."""
    try:
        return step(plan, instance), None
    except (BackboneError, ChannelAssignmentError) as exc:
        return plan, (type(exc), str(exc))


def assert_same_outcome(step, reference, plan, instance):
    """Both steps leave equal plans and fail alike, if at all; returns the
    reference's plan."""
    got, got_error = outcome(step, plan.copy(), instance)
    want, want_error = outcome(reference, plan.copy(), instance)
    assert got_error == want_error
    assert_same_plan(got, want)
    return want


@st.composite
def partial_plans(draw):
    """An instance, a partial plan to place access points into, and a seed.

    The plan starts as a full placement, whose APs are often at capacity.
    Then each AP is kept, dropped with its DPs, or demoted to a relay or to
    nothing while its DPs stay assigned; random sites gain relays and random
    DPs lose their assignment, leaving APs below capacity.
    """
    inst, _, seed = draw(st.one_of(mixed_traffic_cases(), planning_cases()))
    s, n = inst.num_sites, inst.num_dps
    plan = place_access_points_matrix(
        Solution.empty(inst), inst, np.random.default_rng(seed)
    )
    aps = np.flatnonzero(plan.ap).tolist()
    fates = draw(st.lists(st.sampled_from(["keep", "drop", "relay", "bare"]),
                          min_size=len(aps), max_size=len(aps)))
    for j, fate in zip(aps, fates):
        if fate != "keep":
            plan.ap[j] = 0
        if fate == "drop":
            plan.x[:, j] = 0
        if fate == "relay":
            plan.relay[j] = 1
    for j in draw(st.lists(st.integers(0, s - 1), max_size=s)):
        if not plan.ap[j]:
            plan.relay[j] = 1
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        plan.x[i] = 0
    return inst, plan, draw(st.integers(0, 999))


def non_ap_site_case():
    """Two DPs assigned to a site that is no AP: its column admits the third
    at C_max, but a pick's budget starts from its 40 Mb/s load, so the pick
    assigns nothing."""
    inst = make_line_instance(2, dp_sites=(0, 0, 0), traffic=20.0)
    plan = Solution.empty(inst)
    plan.x[0, 0] = plan.x[1, 0] = 1
    return inst, plan, 0


@settings(max_examples=300, deadline=None)
@given(partial_plans())
@example(non_ap_site_case())
def test_place_access_points_matches_matrix_version(case):
    """Same roles, assignments and draws as the matrix version."""
    inst, plan, seed = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = place_access_points(plan.copy(), inst, rng)
    want = place_access_points_matrix(plan.copy(), inst, ref_rng)
    assert_same_plan(got, want, ("ap", "relay", "x"))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def sparse_case(rows, cols, instance_seed, seed):
    """One DP on a grid with random matrices at density 0.5."""
    inst = build_grid_instance(rows, cols, n_dps=1, radio=RadioParams(),
                               seed=instance_seed, random_matrix_density=0.5)
    return inst, None, seed


@settings(max_examples=200, deadline=None)
@given(planning_cases(), st.booleans(), st.lists(st.integers(0, 15), max_size=16))
# a node left short of neighbors while later nodes still get relays
@example(sparse_case(2, 2, 1, 0), False, [])
# a join whose path depends on the order its sources are walked in
@example(sparse_case(4, 2, 7, 1), True, [])
def test_backbone_and_channels_match_matrix_versions(case, neighborhoods, extra):
    """Same relays, link table, channels and failure messages as the matrix
    versions."""
    inst, _, seed = case
    plan = place_access_points(
        Solution.empty(inst), inst, np.random.default_rng(seed)
    )
    # without their relay neighborhoods, APs often lie in separate components
    if neighborhoods:
        place_relays(plan, inst)
    # relays at random sites, so backbone repair meets other shapes
    for j in extra:
        if j < inst.num_sites and not plan.ap[j]:
            plan.relay[j] = 1
    linked = assert_same_outcome(
        connect_backbone, connect_backbone_matrix, plan, inst
    )
    # the unrepaired plan leaves nodes under-linked more often
    for backbone in (linked, plan):
        assert_same_outcome(assign_channels, assign_channels_matrix, backbone, inst)


def test_site_lists_unchanged_by_a_run():
    """The cached lists still match the matrices after a whole search has
    read them."""
    for density in (None, 0.5):
        inst = build_grid_instance(4, 4, n_dps=40, radio=RadioParams(), seed=3,
                                   random_matrix_density=density)
        run(inst, MopsoConfig(swarm_size=6, gmax=4, seed=1))
        a, b = coverage_matrix(inst), connectivity_matrix(inst)
        n, s = a.shape
        assert inst._cache["site_lists"] == (
            tuple(tuple(i for i in range(n) if a[i, j]) for j in range(s)),
            tuple(tuple(j for j in range(s) if a[i, j]) for i in range(n)),
            tuple(tuple(v for v in range(s) if b[u, v]) for u in range(s)),
        )
