"""Flow routing of demand to gateways over established links.

Routing policy: sites are processed in increasing index order; each site's
whole assigned demand follows one path to its nearest gateway (ties: lowest
gateway index, then lexicographically smallest path). If a path would overrun
a link capacity, up to 8 alternatives per gateway (MAX_PATH_TRIES) are
probed by removing the first offending edge and re-searching; remaining
gateways are tried in hop order. Paths longer than the hop bound are
rejected outright.
"""

from __future__ import annotations

import numpy as np

from .instance import PlanningInstance, row_capacities
from .kernels import UNREACHABLE, adjacency_csr, bfs_hops, bfs_hops_multi
from .model import CandidateRejected, FEAS_TOL, Solution

#: Paths probed per gateway before routing moves on to the next gateway.
MAX_PATH_TRIES = 8


class RoutingInfeasibleError(CandidateRejected):
    """Some demand site cannot reach any gateway within hop and capacity limits."""

    def __init__(self, site: int, reason: str):
        super().__init__(f"site {site}: {reason}")
        self.site = site


def _lex_shortest_path(graph, dist_from_gw, site, gateway):
    """Walk downhill from site to gateway, smallest neighbour index first.

    Each step visits a node one hop closer to the gateway than the last, so
    a hop-bounded dist_from_gw suffices; a node with no such neighbour
    raises StopIteration.
    """
    path = [site]
    cur = site
    while cur != gateway:
        want = dist_from_gw[cur] - 1
        cur = next(v for v in graph[cur] if dist_from_gw[v] == want)
        path.append(cur)
    return path


def route_flows(
    solution: Solution, instance: PlanningInstance
) -> tuple[Solution, list]:
    """Route every site's assigned demand to a gateway; returns (solution, traces),
    one {"site", "gateway", "path", "demand"} record per routed site.

    The returned solution carries fresh flows and F, with each established
    link stored in the direction its flow travels (idle links keep the
    low-to-high canonical direction). Raises RoutingInfeasibleError when some
    demand site has no admissible path.
    """
    s, A = instance.num_sites, instance.A
    out = solution.copy()
    loads = out.site_loads(instance)

    # Link rows, keyed by undirected (u, v, k) with u < v (a link stored in
    # both directions is one row): a capacity, a sender (None while idle) and
    # a flow per key; pair_rows maps a site pair to its keys, lowest k first.
    live = out.links[out.L == 1]
    cap = {}
    for (j, l, k), c in zip(live.tolist(), row_capacities(instance, live)):
        cap[(j, l, k) if j < l else (l, j, k)] = c
    sender = dict.fromkeys(cap)
    flow = dict.fromkeys(cap, 0.0)
    pair_rows: dict[tuple[int, int], list] = {}
    for key in sorted(cap):
        pair_rows.setdefault(key[:2], []).append(key)

    graph = adjacency_csr(s, [u for u, _ in pair_rows], [v for _, v in pair_rows])
    demand_sites = np.flatnonzero(loads > FEAS_TOL).tolist()
    gateways = np.flatnonzero(out.gateway == 1).tolist()
    throughput = [0.0] * s
    traces: list[dict] = []

    if demand_sites and not gateways:
        raise RoutingInfeasibleError(demand_sites[0], "no gateway selected")

    hops = dict(zip(gateways, bfs_hops_multi(graph, A, gateways)))

    def lowest_row(u: int, v: int, demand: float):
        """Key of the lowest channel on link u-v that can carry demand u->v."""
        for key in pair_rows[(u, v) if u < v else (v, u)]:
            if sender[key] in (None, u) and flow[key] + demand <= cap[key] + FEAS_TOL:
                return key
        return None

    def route_to(site: int, gw: int, demand: float):
        """Commit demand on a path from site to gw, or None if all are blocked.
        Each blocked try removes its first full site pair u-v from a copy of
        `graph`, replacing rows u and v rather than editing the shared ones."""
        dist, cut = hops[gw], graph
        for _ in range(MAX_PATH_TRIES):
            if dist[site] == UNREACHABLE:
                return None
            path = _lex_shortest_path(cut, dist, site, gw)
            picks = []
            for u, v in zip(path, path[1:]):
                key = lowest_row(u, v, demand)
                if key is None:
                    break
                picks.append((u, key))
            else:
                for u, key in picks:
                    sender[key] = u
                    flow[key] += demand
                return path
            if cut is graph:
                cut = list(graph)
            cut[u] = [w for w in cut[u] if w != v]
            cut[v] = [w for w in cut[v] if w != u]
            dist = bfs_hops(cut, A, gw)
        return None

    for site in demand_sites:
        demand = float(loads[site])
        # Hop rows are bounded at A: farther gateways read UNREACHABLE.
        order = sorted(
            (hops[gw][site], gw) for gw in gateways if hops[gw][site] != UNREACHABLE
        )
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

    # One row per link, stored in its flow direction.
    out.set_links(
        (v, u, k, 1, f) if sender[u, v, k] == v else (u, v, k, 1, f)
        for (u, v, k), f in flow.items()
    )
    out.F = np.array(throughput, dtype=np.float64)
    return out, traces
