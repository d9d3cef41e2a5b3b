"""Feasible-solution construction: the randomized placement pipeline.

Steps mirror the planner's generation loop: cover demand with access points,
bed them into relay neighborhoods, stitch the backbone together, flag
gateways, color links with channels, then route. A step that reaches a
dead end raises a `CandidateRejected` subclass; the attempt is thrown away
and the caller retries with fresh randomness.
"""

from __future__ import annotations

import numpy as np

from .flow import route_flows
from .instance import (
    PlanningInstance,
    connectivity_matrix,
    coverage_matrix,
    default_gateway_count,
    grid_neighbors,
)
from .model import CandidateRejected, FEAS_TOL, Solution, check_constraints


class BackboneError(CandidateRejected):
    """No relay chain joins the installed nodes or gives each two neighbors."""


class ChannelAssignmentError(CandidateRejected):
    """Greedy channel assignment left an installed node under-linked."""


class GatewayBudgetError(CandidateRejected):
    """More gateways requested than the plan has installed nodes."""


class ConstructionInfeasibleError(Exception):
    """The instance gets no plan: refused up front, or every attempt failed."""


def _nonzero_rows(matrix: np.ndarray) -> tuple:
    """Ascending column indices of each row's nonzero entries, as tuples."""
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in matrix)


def site_lists(instance: PlanningInstance) -> tuple:
    """(DPs covered by each site, sites covering each DP, neighbors of each site).

    Ascending tuples read from the matrices, built on first use and kept
    beside them in the instance's cache; no caller changes them.
    """
    if "site_lists" not in instance._cache:
        a = coverage_matrix(instance)
        instance._cache["site_lists"] = tuple(
            map(_nonzero_rows, (a.T, a, connectivity_matrix(instance)))
        )
    return instance._cache["site_lists"]


def place_access_points(
    partial: Solution, instance: PlanningInstance, rng: np.random.Generator
) -> Solution:
    """Install APs until no unassigned demand point can be accommodated.

    Each round picks a uniformly random site that could still accept at least
    one unassigned covered DP (existing APs with spare capacity qualify;
    relay sites convert to APs) and assigns covered DPs in increasing index
    order while capacity lasts. DPs whose covering sites are all full or
    nonexistent stay unassigned.

    A DP fits a site it covers while unassigned and within the site's
    `limit`: C_max - load for an AP and C_max otherwise at the start,
    C_max - load once picked. `count` holds the fitting DPs per site; a
    round changes it only for the DPs it assigns and the picked site.
    """
    dps_of, sites_of, _ = site_lists(instance)
    traffic = instance.dp_traffic.tolist()
    c_max = instance.C_max
    loads = partial.site_loads(instance).tolist()
    free = partial.x.sum(axis=1) == 0
    unassigned = free.tolist()
    limit = [
        (c_max - load if ap == 1 else c_max) + FEAS_TOL
        for ap, load in zip(partial.ap.tolist(), loads)
    ]
    count = [0] * len(limit)
    for i in np.flatnonzero(free).tolist():
        for j in sites_of[i]:
            count[j] += traffic[i] <= limit[j]
    picks, rows, cols = [], [], []
    while True:
        candidates = [j for j, fit in enumerate(count) if fit]
        if not candidates:
            break
        pick = candidates[rng.integers(len(candidates))]
        picks.append(pick)
        load = loads[pick]
        budget = c_max - load
        taken = []
        for i in dps_of[pick]:  # within the budget is within limit[pick]
            t = traffic[i]
            if unassigned[i] and t <= budget + FEAS_TOL:
                unassigned[i] = False
                taken.append(i)
                budget -= t
                load += t
                for j in sites_of[i]:
                    count[j] -= t <= limit[j]
        loads[pick] = load
        lim = limit[pick] = c_max - load + FEAS_TOL
        count[pick] = sum(unassigned[i] and traffic[i] <= lim for i in dps_of[pick])
        rows += taken
        cols += [pick] * len(taken)
    partial.relay[picks] = 0
    partial.ap[picks] = 1
    partial.x[rows, cols] = 1
    return partial


def place_relays(partial: Solution, instance: PlanningInstance) -> Solution:
    """Install every grid neighbor of every AP as a relay, unless installed.

    That is 2, 3 or 4 installed neighbors by grid position (corner, edge,
    interior).
    """
    z = partial.z.tolist()
    for ap in np.flatnonzero(partial.ap == 1).tolist():
        for nb in grid_neighbors(instance, ap):
            if not z[nb]:
                partial.relay[nb] = 1
                z[nb] = 1
    return partial


def _walk(sources: list[int], nbrs: tuple, keep: list) -> dict[int, int]:
    """Parents of a breadth-first walk from `sources` through `keep` sites.

    Keys are the reached sites in discovery order; sources map to -1.
    """
    parent = dict.fromkeys(sources, -1)
    queue = list(parent)
    for u in queue:  # the queue grows while it is walked
        for v in nbrs[u]:
            if keep[v] and v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def connect_backbone(partial: Solution, instance: PlanningInstance) -> Solution:
    """Join installed components with relay chains and lift degrees to 2.

    The component of the smallest installed node joins the nearest other
    installed node along a shortest connectivity-graph path, until it holds
    every installed node. Then each installed node short of two installed
    neighbors gets relays on its first spare neighbors, pass after pass.
    Leaves already-valid solutions untouched.
    """
    z = partial.z.tolist()
    nbrs = site_lists(instance)[2]
    while 1 in z:
        comp = _walk([z.index(1)], nbrs, z)
        if len(comp) == z.count(1):
            break
        parent = _walk(sorted(comp), nbrs, [1] * len(z))
        target = next((v for v in parent if z[v] and v not in comp), None)
        if target is None:
            raise BackboneError("backbone graph is not connectable")
        v = parent[target]
        while v not in comp:
            partial.relay[v] = z[v] = 1
            v = parent[v]
    last = None
    while True:
        deficient = [
            v for v in range(len(z))
            if z[v] == 1 and sum(z[nb] for nb in nbrs[v]) < 2
        ]
        if not deficient:
            return partial
        if deficient == last:  # the last pass left each without spare neighbors
            raise BackboneError(
                "connectivity graph cannot give every installed node degree 2"
            )
        last = deficient
        for v in deficient:
            need = max(0, 2 - sum(z[nb] for nb in nbrs[v]))
            for nb in [nb for nb in nbrs[v] if not z[nb]][:need]:
                partial.relay[nb] = z[nb] = 1


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
        raise GatewayBudgetError(
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
    R, K = instance.R, instance.K
    nbrs = site_lists(instance)[2]
    z = (partial.z == 1).tolist()
    sites = [j for j, on in enumerate(z) if on]
    degree = [0] * len(z)
    used = [0] * len(z)  # bit k set: channel k taken at the site
    heads, tails, chans = [], [], []
    # Connected installed pairs in increasing (j, l) order, j < l.
    for j in sites:
        for l in nbrs[j]:
            if l <= j or not z[l] or degree[j] >= R or degree[l] >= R:
                continue
            taken = used[j] | used[l]
            k = (~taken & (taken + 1)).bit_length() - 1  # lowest free at both
            if k < K:
                heads.append(j)
                tails.append(l)
                chans.append(k)
                degree[j] += 1
                degree[l] += 1
                used[j] |= 1 << k
                used[l] |= 1 << k
    partial.set_links((j, l, k, 1, 0.0) for j, l, k in zip(heads, tails, chans))
    partial.w[heads, chans] = 1
    partial.w[tails, chans] = 1
    lonely = [j for j in sites if degree[j] < 2]
    if lonely:
        raise ChannelAssignmentError(
            f"nodes left with fewer than two links: {lonely}"
        )
    return partial


def placement_key(partial: Solution) -> bytes:
    """The placement that fixes everything the rebuild does after gateways.

    The raw bytes of ap, relay and gateway, then x packed to one bit per
    entry. Packing is exact because x is 0/1 in every placement: particles
    pass C15, mutation writes only 0 and `place_access_points` only 1. The
    array shapes are fixed by the instance, so within one run equal keys
    mean equal arrays.
    """
    return b"".join((
        partial.ap.tobytes(), partial.relay.tobytes(),
        partial.gateway.tobytes(), np.packbits(partial.x).tobytes(),
    ))


class Outcomes(dict):
    """Checked plans of one run by `placement_key`, at most `capacity`.

    Each plan has passed `check_constraints` and is read-only. Storing into
    a full memo drops the oldest entry (insertion order).
    """

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def lookup(self, partial: Solution) -> Solution | None:
        return self.get(placement_key(partial))

    def store(self, plan: Solution) -> None:
        if len(self) >= self.capacity:
            del self[next(iter(self))]
        self[placement_key(plan)] = plan.freeze()


def rebuild_pipeline(
    partial: Solution,
    instance: PlanningInstance,
    rng: np.random.Generator,
    gateway_count: int | None = None,
    outcomes: Outcomes | None = None,
) -> Solution:
    """Re-run placement steps on a partial (roles and assignments kept).

    Only ap, relay, gateway and x are read. A plan this returned is a fixed
    point: rebuilding a copy draws nothing from `rng` and reproduces every
    array byte for byte: no step finds a demand point to place, a component
    to join, a node short of neighbors or a gateway missing.

    `outcomes` is only read. The steps after `select_gateways` draw nothing
    and read only the placement (`placement_key`), so when it holds a plan
    for this placement, that plan object is exactly what they would give and
    is returned without running them. Otherwise channel assignment and
    routing run. A step that fails raises a `CandidateRejected` subclass.
    """
    partial.w[:] = 0
    place_access_points(partial, instance, rng)
    place_relays(partial, instance)
    connect_backbone(partial, instance)
    select_gateways(partial, instance, rng, gateway_count)
    if outcomes is not None:
        stored = outcomes.lookup(partial)
        if stored is not None:
            return stored
    assign_channels(partial, instance)
    routed, _ = route_flows(partial, instance)
    return routed


def construct_feasible(
    instance: PlanningInstance,
    rng: np.random.Generator,
    max_retries: int = 500,
    gateway_count: int | None = None,
) -> Solution:
    """Build a solution passing every constraint, retrying with fresh draws.

    A rejected attempt is drawn again. ConstructionInfeasibleError means the
    instance gets no plan: after `max_retries` rejections, or up front for a
    hopeless instance. With R < 2 a node may carry at most R links (C3), but
    each installed node needs two (C14). Where no demand point is both
    covered by a site and within the site capacity, `place_access_points`
    installs nothing, so every attempt would fail at gateway selection.
    """
    if max_retries < 1:
        raise ValueError("max_retries must be >= 1")
    if instance.R < 2:
        raise ConstructionInfeasibleError(
            f"a node may carry at most R={instance.R} link (C3), but every "
            "installed node needs two (C14)"
        )
    covered = coverage_matrix(instance).any(axis=1)
    fits = instance.dp_traffic <= instance.C_max + FEAS_TOL
    if not (covered & fits).any():
        raise ConstructionInfeasibleError(
            "no demand point is both covered by a site and within the site "
            f"capacity {instance.C_max:g} ({int(covered.sum())} of "
            f"{instance.num_dps} covered, {int(fits.sum())} within capacity)"
        )
    for _ in range(max_retries):
        try:
            candidate = rebuild_pipeline(
                Solution.empty(instance), instance, rng, gateway_count
            )
            check_constraints(candidate, instance).require()
            return candidate
        except CandidateRejected as exc:
            last = str(exc)
    raise ConstructionInfeasibleError(
        f"no feasible solution in {max_retries} attempts (last: {last})"
    )
