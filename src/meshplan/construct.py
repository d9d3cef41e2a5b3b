"""Feasible-solution construction: the randomized placement pipeline.

Steps mirror the planner's generation loop: cover demand with access points,
bed them into relay neighborhoods, stitch the backbone together, flag
gateways, color links with channels, then route. Any channelization or
routing dead end throws the attempt away and the pipeline retries with fresh
randomness.
"""

from __future__ import annotations

import numpy as np

from .flow import RoutingInfeasibleError, route_flows
from .instance import (
    CORNER,
    EDGE,
    PlanningInstance,
    classify_site,
    connectivity_matrix,
    coverage_matrix,
    default_gateway_count,
    grid_neighbors,
)
from .model import FEAS_TOL, Solution, check_constraints

RELAY_TARGET = {CORNER: 2, EDGE: 3}


class ChannelAssignmentError(Exception):
    """Greedy channel assignment left an installed node under-linked."""


class ConstructionInfeasibleError(Exception):
    """No feasible solution produced within the retry budget."""


#: Failures of one rebuild attempt; every retry loop discards the attempt
#: and draws again. ValueError covers an unreachable gateway count.
REBUILD_FAILURES = (
    ChannelAssignmentError,
    ConstructionInfeasibleError,
    RoutingInfeasibleError,
    ValueError,
)


def place_access_points(
    partial: Solution, instance: PlanningInstance, rng: np.random.Generator
) -> Solution:
    """Install APs until no unassigned demand point can be accommodated.

    Each round picks a uniformly random site that could still accept at least
    one unassigned covered DP (existing APs with spare capacity qualify;
    relay sites convert to APs) and assigns covered DPs in increasing index
    order while capacity lasts. DPs whose covering sites are all full or
    nonexistent stay unassigned.
    """
    a = coverage_matrix(instance)
    traffic = instance.dp_traffic
    loads = partial.site_loads(instance)
    unassigned = partial.x.sum(axis=1) == 0
    while True:
        remaining = np.where(
            partial.ap == 1, instance.C_max - loads, instance.C_max
        )
        fits = (a == 1) & unassigned[:, None] & (
            traffic[:, None] <= remaining[None, :] + FEAS_TOL
        )
        candidates = np.flatnonzero(fits.any(axis=0))
        if len(candidates) == 0:
            break
        pick = int(candidates[rng.integers(len(candidates))])
        partial.relay[pick] = 0
        partial.ap[pick] = 1
        budget = instance.C_max - loads[pick]
        for i in np.flatnonzero(fits[:, pick]):
            if traffic[i] <= budget + FEAS_TOL:
                partial.x[i, pick] = 1
                budget -= traffic[i]
                loads[pick] += traffic[i]
                unassigned[i] = False
    return partial


def place_relays(partial: Solution, instance: PlanningInstance) -> Solution:
    """Surround each AP with installed neighbors: 2, 3 or 4 by grid position.

    Neighbors are probed north, east, south, west; sites already installed
    count toward the target.
    """
    for ap in np.flatnonzero(partial.ap == 1):
        target = RELAY_TARGET.get(classify_site(instance, int(ap)), 4)
        neighbors = grid_neighbors(instance, int(ap))
        target = min(target, len(neighbors))
        installed = sum(1 for nb in neighbors if partial.z[nb])
        for nb in neighbors:
            if installed >= target:
                break
            if not partial.z[nb]:
                partial.relay[nb] = 1
                installed += 1
    return partial


def _components(installed: np.ndarray, b: np.ndarray) -> list[list[int]]:
    nodes = [int(v) for v in np.flatnonzero(installed)]
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            u = queue.pop(0)
            for v in np.flatnonzero(b[u]):
                v = int(v)
                if installed[v] and v not in seen:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def _shortest_join(sources: list[int], targets: set[int], b: np.ndarray) -> list[int]:
    """BFS over all sites from sources; path to the nearest target node."""
    n = b.shape[0]
    parent = np.full(n, -2, dtype=np.int64)
    queue = list(sources)
    for v in sources:
        parent[v] = -1
    while queue:
        u = queue.pop(0)
        if u in targets:
            path = [u]
            while parent[path[-1]] != -1:
                path.append(int(parent[path[-1]]))
            return path[::-1]
        for v in np.flatnonzero(b[u]):
            v = int(v)
            if parent[v] == -2:
                parent[v] = u
                queue.append(v)
    raise ConstructionInfeasibleError("backbone graph is not connectable")


def connect_backbone(partial: Solution, instance: PlanningInstance) -> Solution:
    """Join installed components with relay chains and lift degrees to 2.

    Components merge in increasing smallest-member order along shortest
    connectivity-graph paths; afterwards every installed node gets relays on
    spare neighbors until it has at least two installed neighbors. Leaves
    already-valid solutions untouched.
    """
    b = connectivity_matrix(instance)
    if partial.z.sum() == 0:
        return partial
    while True:
        comps = _components(partial.z, b)
        if len(comps) <= 1:
            break
        comps.sort(key=lambda c: c[0])
        rest = set()
        for comp in comps[1:]:
            rest.update(comp)
        path = _shortest_join(comps[0], rest, b)
        for v in path:
            if not partial.z[v]:
                partial.relay[v] = 1
    while True:
        degrees = (b * partial.z[None, :])[partial.z == 1].sum(axis=1)
        deficient = np.flatnonzero(partial.z == 1)[degrees < 2]
        if len(deficient) == 0:
            break
        progressed = False
        for v in deficient:
            need = 2 - int((b[v] * partial.z).sum())
            for nb in np.flatnonzero(b[v]):
                if need <= 0:
                    break
                if not partial.z[nb]:
                    partial.relay[nb] = 1
                    need -= 1
                    progressed = True
        if not progressed:
            raise ConstructionInfeasibleError(
                "connectivity graph cannot give every installed node degree 2"
            )
    return partial


def select_gateways(
    partial: Solution,
    instance: PlanningInstance,
    rng: np.random.Generator,
    count: int | None = None,
) -> Solution:
    """Flag uniformly random installed nodes until `count` gateways exist.

    Default count is the demand budget max(1, ceil(assigned / C_max)).
    Existing flags are kept and count toward the target.
    """
    if count is None:
        count = default_gateway_count(
            float(partial.site_loads(instance).sum()), instance.C_max
        )
    if count < 1:
        raise ValueError("gateway count must be >= 1")
    installed = np.flatnonzero(partial.z == 1)
    if count > len(installed):
        raise ValueError(
            f"gateway count {count} exceeds {len(installed)} installed nodes"
        )
    missing = count - int(partial.gateway.sum())
    if missing > 0:
        unflagged = installed[partial.gateway[installed] == 0]
        chosen = rng.choice(unflagged, size=missing, replace=False)
        partial.gateway[chosen] = 1
    return partial


def assign_channels(partial: Solution, instance: PlanningInstance) -> Solution:
    """First-fit channel sweep over candidate links in increasing (j, l).

    A link is added when both endpoints have radio budget left and share an
    unused channel (lowest wins); the result is a proper edge coloring.
    Raises ChannelAssignmentError if an installed node ends under-linked.
    """
    b = connectivity_matrix(instance)
    installed = np.flatnonzero(partial.z == 1)
    degree = {int(j): 0 for j in installed}
    used = {int(j): set() for j in installed}
    for ji, j in enumerate(installed):
        for l in installed[ji + 1:]:
            j, l = int(j), int(l)
            if not b[j, l]:
                continue
            if degree[j] >= instance.R or degree[l] >= instance.R:
                continue
            for k in range(instance.K):
                if k in used[j] or k in used[l]:
                    continue
                partial.L[j, l, k] = 1
                partial.w[j, k] = 1
                partial.w[l, k] = 1
                degree[j] += 1
                degree[l] += 1
                used[j].add(k)
                used[l].add(k)
                break
    lonely = [j for j in degree if degree[j] < 2]
    if lonely:
        raise ChannelAssignmentError(
            f"nodes left with fewer than two links: {lonely}"
        )
    return partial


def rebuild_pipeline(
    partial: Solution,
    instance: PlanningInstance,
    rng: np.random.Generator,
    gateway_count: int | None = None,
) -> Solution:
    """Re-run placement steps on a partial (roles and assignments kept)."""
    partial.w[:] = 0
    partial.L[:] = 0
    partial.f[:] = 0.0
    partial.F[:] = 0.0
    place_access_points(partial, instance, rng)
    place_relays(partial, instance)
    connect_backbone(partial, instance)
    select_gateways(partial, instance, rng, gateway_count)
    assign_channels(partial, instance)
    routed, _ = route_flows(partial, instance)
    return routed


def construct_feasible(
    instance: PlanningInstance,
    rng: np.random.Generator,
    max_retries: int = 500,
    gateway_count: int | None = None,
) -> Solution:
    """Build a solution passing every constraint, retrying with fresh draws."""
    if max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    last = "no attempt made"
    for _ in range(max_retries):
        partial = Solution.empty(instance)
        try:
            candidate = rebuild_pipeline(partial, instance, rng, gateway_count)
        except REBUILD_FAILURES as exc:
            last = str(exc)
            continue
        report = check_constraints(candidate, instance)
        if report.feasible:
            return candidate
        failed = ", ".join(c.id for c in report.failed())
        last = f"constraint check failed: {failed}"
    raise ConstructionInfeasibleError(
        f"no feasible solution in {max_retries} attempts (last: {last})"
    )
