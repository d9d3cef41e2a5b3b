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

import json
from dataclasses import dataclass

import numpy as np

from .instance import PlanningInstance, row_capacities
from .kernels import UNREACHABLE, adjacency_csr, bfs_hops, bfs_hops_multi
from .model import FEAS_TOL, Solution

#: Paths probed per gateway before routing moves on to the next gateway.
MAX_PATH_TRIES = 8


class RoutingInfeasibleError(Exception):
    """Some demand site cannot reach any gateway within hop and capacity limits.

    `args` is `(site, reason)`.
    """

    def __init__(self, site: int, reason: str):
        super().__init__(site, reason)
        self.site = site

    def __str__(self) -> str:
        return f"site {self.site}: {self.args[1]}"


@dataclass
class RoutingTrace:
    """One routed demand: the site, its gateway, and the path walked."""

    site: int
    gateway: int
    path: list
    demand: float

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "gateway": self.gateway,
            "path": [int(v) for v in self.path],
            "demand": self.demand,
        }


def traces_to_json(traces: list, indent: int = 2) -> str:
    return json.dumps([t.to_dict() for t in traces], indent=indent, sort_keys=True)


def _lex_shortest_path(indptr, indices, dist_from_gw, site, gateway):
    """Walk downhill from site to gateway, smallest neighbor index first.

    Every argument is a Python list; each step visits a node one hop closer
    to the gateway than the last, so a hop-bounded dist_from_gw suffices.
    """
    path = [site]
    cur = site
    while cur != gateway:
        want = dist_from_gw[cur] - 1
        for v in indices[indptr[cur]:indptr[cur + 1]]:
            if dist_from_gw[v] == want:
                break
        path.append(v)
        cur = v
    return path


def route_flows(
    solution: Solution, instance: PlanningInstance
) -> tuple[Solution, list]:
    """Route every site's assigned demand to a gateway; returns (solution, traces).

    The returned solution carries fresh flows and F, with each established
    link stored in the direction its flow travels (idle links keep the
    low-to-high canonical direction). Raises RoutingInfeasibleError when some
    demand site has no admissible path.
    """
    s = instance.num_sites
    A = instance.A
    out = solution.copy()
    loads = out.site_loads(instance)

    # Undirected link inventory: (u, v) with u < v -> sorted channel list, and
    # the capacity of each (u, v, k) (capacities are symmetric in u and v).
    live = out.links[out.L == 1]
    js, ls, ks = live.T.tolist()
    link_caps = row_capacities(instance, live)
    channels: dict[tuple[int, int], list[int]] = {}
    cap: dict[tuple[int, int, int], float] = {}
    for j, l, k, c in zip(js, ls, ks, link_caps):
        u, v = (j, l) if j < l else (l, j)
        channels.setdefault((u, v), []).append(k)
        cap[(u, v, k)] = c
    for key in channels:
        channels[key].sort()

    indptr, indices = adjacency_csr(s, js, ls)

    demand_sites = np.flatnonzero(loads > FEAS_TOL).tolist()
    gateways = np.flatnonzero(out.gateway == 1).tolist()
    flow_dir: dict[tuple[int, int, int], tuple[int, int]] = {}
    flow_amt: dict[tuple[int, int, int], float] = {}
    throughput = [0.0] * s
    traces: list[RoutingTrace] = []

    if demand_sites and not gateways:
        raise RoutingInfeasibleError(demand_sites[0], "no gateway selected")

    gw_hops = bfs_hops_multi(indptr, indices, gateways, s, A)

    def admissible_channel(u: int, v: int, demand: float):
        """Lowest channel on link u-v that can carry demand in direction u->v."""
        lo, hi = (u, v) if u < v else (v, u)
        for k in channels[(lo, hi)]:
            key = (lo, hi, k)
            direction = flow_dir.get(key)
            if direction is not None and direction != (u, v):
                continue
            if flow_amt.get(key, 0.0) + demand <= cap[key] + FEAS_TOL:
                return k
        return None

    def try_commit(path, demand):
        """Check every step of the path; commit if clean, else return bad edge."""
        picks = []
        for u, v in zip(path, path[1:]):
            k = admissible_channel(u, v, demand)
            if k is None:
                return (u, v)
            picks.append((u, v, k))
        for u, v, k in picks:
            key = (min(u, v), max(u, v), k)
            flow_dir[key] = (u, v)
            flow_amt[key] = flow_amt.get(key, 0.0) + demand
        return None

    for site in demand_sites:
        demand = float(loads[site])
        # Hop rows are bounded at A: farther gateways read UNREACHABLE.
        order = sorted(
            (row[site], gw)
            for row, gw in zip(gw_hops, gateways)
            if row[site] != UNREACHABLE
        )
        if not order:
            raise RoutingInfeasibleError(site, f"no gateway within {A} hops")
        routed = False
        for base_hops, gw in order:
            if base_hops == 0:
                throughput[site] += demand
                traces.append(RoutingTrace(site, gw, [site], demand))
                routed = True
                break
            dropped = set()
            cur_indptr, cur_indices = indptr, indices
            dist = gw_hops[gateways.index(gw)]
            for _ in range(MAX_PATH_TRIES):
                if dist[site] == UNREACHABLE:
                    break
                path = _lex_shortest_path(cur_indptr, cur_indices, dist, site, gw)
                bad = try_commit(path, demand)
                if bad is None:
                    throughput[gw] += demand
                    traces.append(RoutingTrace(site, gw, path, demand))
                    routed = True
                    break
                dropped.add((min(bad), max(bad)))
                live = [pair for pair in channels if pair not in dropped]
                cur_indptr, cur_indices = adjacency_csr(
                    s, [u for u, _ in live], [v for _, v in live]
                )
                dist = bfs_hops(cur_indptr, cur_indices, gw, s, A)
            if routed:
                break
        if not routed:
            raise RoutingInfeasibleError(
                site, f"every path within {A} hops blocked by link capacity"
            )

    # Re-emit links and flows with final directions.
    rows = []
    for (u, v), link_channels in channels.items():
        for k in link_channels:
            key = (u, v, k)
            a, b = flow_dir.get(key, (u, v))
            rows.append((a, b, k, 1, flow_amt.get(key, 0.0)))
    out.set_links(rows)
    out.F = np.array(throughput, dtype=np.float64)
    return out, traces
