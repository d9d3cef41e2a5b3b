"""Exhaustive ground truth on tiny instances.

Enumerates every feasible deployment a search run could represent, computes
the true Pareto front, and grades an archive against it. Candidates are
built to meet C1-C9 and C14 and routing gives C10-C13, so none is re-checked;
only one witness plan per front vector is. The default space
mirrors the construction pipeline's policies (maximal assignments hosted on
access points, demand-driven gateway budget, connected installed set); the
raw constraint space, which additionally admits empty and partially assigned
deployments, is available for diagnostics via policy_matched=False.

When every link has capacity C_max, the channels on a set of linked site
pairs change neither routing nor any objective, so each space is enumerated
with one channel assignment per set of linked pairs (see `_edge_configs`);
an instance with capacity overrides gets every assignment.

A hard combinatorial guard refuses instances beyond 6 sites, 8 demand
points, or 3 channels.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from .flow import route_flows
from .instance import (
    PlanningInstance,
    connectivity_matrix,
    coverage_matrix,
    default_gateway_count,
)
from .kernels import UNREACHABLE, bfs_hops, pareto_mask
from .model import (
    CandidateRejected,
    FEAS_TOL,
    Solution,
    check_constraints,
    dominates,
    evaluate,
    parse_variant,
)

GUARD_SITES = 6
GUARD_DPS = 8
GUARD_CHANNELS = 3


class GuardError(Exception):
    """Instance too large for exhaustive enumeration."""


def _check_guard(instance: PlanningInstance) -> None:
    if (
        instance.num_sites > GUARD_SITES
        or instance.num_dps > GUARD_DPS
        or instance.K > GUARD_CHANNELS
    ):
        raise GuardError(
            "enumeration refused: exhaustive search is limited to "
            f"{GUARD_SITES} sites, {GUARD_DPS} demand points and "
            f"{GUARD_CHANNELS} channels; this instance has "
            f"{instance.num_sites} sites, {instance.num_dps} demand points, "
            f"{instance.K} channels"
        )


def _assignments(instance: PlanningInstance, a: np.ndarray, hosts, maximal: bool):
    """All DP->host assignments within per-site capacity and coverage.

    Yields (choice, loads) where choice[i] is the host site or -1. With
    `maximal`, only assignments where no unassigned DP fits on a host that
    covers it, matching the construction loop's stopping rule.
    """
    n = instance.num_dps
    traffic = instance.dp_traffic
    c_max = instance.C_max
    choice = np.full(n, -1, dtype=np.int64)
    loads = np.zeros(instance.num_sites, dtype=np.float64)

    def fits(i, j):
        return a[i, j] and loads[j] + traffic[i] <= c_max + FEAS_TOL

    def rec(i):
        if i == n:
            if maximal and any(
                choice[i2] < 0 and fits(i2, j) for i2 in range(n) for j in hosts
            ):
                return
            yield choice.copy(), loads.copy()
            return
        yield from rec(i + 1)
        for j in hosts:
            if fits(i, j):
                choice[i] = j
                loads[j] += traffic[i]
                yield from rec(i + 1)
                loads[j] -= traffic[i]
                choice[i] = -1

    yield from rec(0)


def _min_degree_two(nodes: tuple, b: np.ndarray) -> bool:
    """Every node of `nodes` links to at least two others over b."""
    return all(sum(1 for u in nodes if u != v and b[v, u]) >= 2 for v in nodes)


def _valid_installed(nodes: tuple, b: np.ndarray) -> bool:
    """Connected with minimum degree 2 over the connectivity graph."""
    if not nodes:
        return True
    if not _min_degree_two(nodes, b):
        return False
    graph = [np.flatnonzero(row).tolist() for row in b[np.ix_(nodes, nodes)]]
    return UNREACHABLE not in bfs_hops(graph, len(nodes), 0)


def _edge_configs(nodes: tuple, b: np.ndarray, instance: PlanningInstance):
    """Channelized link sets on `nodes` meeting radio and degree limits.

    Yields lists of (u, v, k): at most R links and unique channels per node,
    and at least two links per node; each node needs two neighbours over b.

    One channel assignment per set of linked pairs is yielded: the first
    the recursion reaches (skip an edge, then ascending k). `top` counts the
    channels picked so far and prunes to the labelings whose channels first
    appear, in edge order, as 0, 1, 2, ..., which include that first one.
    This is exact when every link has capacity C_max, because then every
    assignment of the same pairs gives a plan with the same routing and
    objective vector, and it routes exactly when the kept one does:
    - each yielded link set puts one channel on each linked pair;
    - `route_flows` reads a pair's only row through `lowest_row`, at
      capacity C_max whatever its `k`, so the flows, paths and F are the
      same;
    - no objective of `evaluate` reads `w`, and the link residual reads
      `k` only for that same capacity;
    - the kept assignment comes first, so each vector's witness in
      `true_pareto_front` is unchanged.
    Capacity overrides make capacity depend on `k`, so an instance with any
    override gets every assignment.
    """
    R, K = instance.R, instance.K
    relabel = not instance.capacity_overrides
    edges = [
        (u, v)
        for ui, u in enumerate(nodes)
        for v in nodes[ui + 1:]
        if b[u, v]
    ]
    last_edge = {v: -1 for v in nodes}
    for e, (u, v) in enumerate(edges):
        last_edge[u] = e
        last_edge[v] = e
    degree = {v: 0 for v in nodes}
    used = {v: set() for v in nodes}
    picked: list = []
    seen = set()

    def rec(e, top):
        if e == len(edges):
            pairs = tuple((u, v) for u, v, _ in picked)
            if not relabel or pairs not in seen:
                seen.add(pairs)
                yield list(picked)
            return
        u, v = edges[e]
        if not (
            (last_edge[u] == e and degree[u] < 2)
            or (last_edge[v] == e and degree[v] < 2)
        ):
            yield from rec(e + 1, top)
        if degree[u] < R and degree[v] < R:
            for k in range(min(K, top + 1) if relabel else K):
                if k in used[u] or k in used[v]:
                    continue
                if last_edge[u] == e and degree[u] + 1 < 2:
                    continue
                if last_edge[v] == e and degree[v] + 1 < 2:
                    continue
                degree[u] += 1
                degree[v] += 1
                used[u].add(k)
                used[v].add(k)
                picked.append((u, v, k))
                yield from rec(e + 1, max(top, k + 1))
                picked.pop()
                used[v].discard(k)
                used[u].discard(k)
                degree[v] -= 1
                degree[u] -= 1

    yield from rec(0, 0)


def _assemble(instance: PlanningInstance, choice, aps, installed, links) -> Solution:
    """The plan with no gateway; the enumerators set gateways on copies."""
    sol = Solution.empty(instance)
    sol.ap[list(aps)] = 1
    sol.relay[[j for j in installed if j not in aps]] = 1
    hosted = np.flatnonzero(choice >= 0)
    sol.x[hosted, choice[hosted]] = 1
    sol.set_links((u, v, k, 1, 0.0) for u, v, k in links)
    for u, v, k in links:
        sol.w[[u, v], k] = 1
    return sol


def enumerate_feasible(
    instance: PlanningInstance,
    variant: str = "lglb",
    policy_matched: bool = True,
    coverage_mode: str = "assigned",
):
    """Yield every feasible (solution, objective vector), exhaustively.

    A candidate that routes is feasible by construction and is yielded
    unchecked; `true_pareto_front` checks the plans that witness its front.

    Yields one channel assignment per set of linked pairs, which routes and
    scores as every other assignment of those pairs does; an instance with
    capacity overrides yields every assignment.
    """
    _check_guard(instance)
    variant = parse_variant(variant)
    candidates = _policy_candidates if policy_matched else _raw_candidates
    a = coverage_matrix(instance)
    b = connectivity_matrix(instance)
    for sol in candidates(instance, a, b):
        try:
            routed, _ = route_flows(sol, instance)
        except CandidateRejected:
            continue
        yield routed, evaluate(routed, instance, variant, coverage_mode)


def _policy_candidates(instance: PlanningInstance, a, b):
    sites = instance.num_sites
    for choice, loads in _assignments(instance, a, range(sites), maximal=True):
        aps = tuple(sorted({int(j) for j in choice if j >= 0}))
        if not aps:
            yield _assemble(instance, choice, (), (), ())
            continue
        budget = default_gateway_count(float(loads.sum()), instance.C_max)
        others = [j for j in range(sites) if j not in aps]
        for r in range(len(others) + 1):
            for extra in combinations(others, r):
                installed = tuple(sorted(aps + extra))
                if budget > len(installed):
                    continue
                if not _valid_installed(installed, b):
                    continue
                for links in _edge_configs(installed, b, instance):
                    plan = _assemble(instance, choice, aps, installed, links)
                    for gws in combinations(installed, budget):
                        sol = plan.copy()
                        sol.gateway[list(gws)] = 1
                        yield sol


def _raw_candidates(instance: PlanningInstance, a, b):
    """Unrestricted constraint space: every role map, assignment, link set."""
    sites = instance.num_sites
    for roles in product((0, 1, 2), repeat=sites):
        installed = tuple(j for j in range(sites) if roles[j] > 0)
        aps = tuple(j for j in range(sites) if roles[j] == 1)
        if not _min_degree_two(installed, b):
            continue
        for choice, _loads in _assignments(instance, a, installed, maximal=False):
            for links in _edge_configs(installed, b, instance):
                plan = _assemble(instance, choice, aps, installed, links)
                for gcount in range(len(installed) + 1):
                    for gws in combinations(installed, gcount):
                        sol = plan.copy()
                        sol.gateway[list(gws)] = 1
                        yield sol


def true_pareto_front(
    instance: PlanningInstance,
    variant: str = "lglb",
    policy_matched: bool = True,
    coverage_mode: str = "assigned",
) -> list:
    """Deduplicated non-dominated objective vectors, sorted lexicographically.

    Built from one channel assignment per set of linked pairs (every
    assignment under capacity overrides); the channels never change an
    objective vector, so the front is that of the full space.

    Each vector's first enumerated plan is its witness; each front vector's
    witness must pass `check_constraints`, else CheckFailed (a program
    fault). A front vector with a feasible witness is on the feasible front.
    """
    witnesses = {}
    for plan, vec in enumerate_feasible(
        instance, variant, policy_matched, coverage_mode
    ):
        witnesses.setdefault(tuple(float(x) for x in vec), plan)
    ordered = sorted(witnesses)
    mask = pareto_mask(np.array(ordered, dtype=np.float64))
    front = [ordered[i] for i in range(len(ordered)) if mask[i]]
    for vec in front:
        check_constraints(witnesses[vec], instance).require()
    return front


def verify_archive(archive, truth) -> dict:
    """Grade an archive's objective rows against the true front.

    on_front_fraction: archive points not dominated by any truth point.
    front_coverage_fraction: truth points matched exactly by the archive.
    violations: the dominated archive points.
    """
    arch = [tuple(float(x) for x in row) for row in archive]
    tru = [tuple(float(x) for x in row) for row in truth]
    dims = {len(v) for v in arch} | {len(v) for v in tru}
    if len(dims) > 1:
        raise ValueError(
            f"archive and truth vectors disagree on objective count: {sorted(dims)}"
        )
    violations = [
        v
        for v in arch
        if any(dominates(np.array(t), np.array(v)) for t in tru)
    ]
    on_front = 1.0 if not arch else 1.0 - len(violations) / len(arch)
    arch_set = set(arch)
    matched = sum(1 for t in tru if t in arch_set)
    coverage = 1.0 if not tru else matched / len(tru)
    return {
        "on_front_fraction": on_front,
        "front_coverage_fraction": coverage,
        "violations": violations,
    }
