"""Solution encoding, objective evaluation, dominance, and the constraint checker.

The checker is written directly against the constraint definitions (vectorized
numpy over the raw arrays) and shares no logic with the construction pipeline,
so the two can disagree only through a bug in one of them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .instance import (
    PlanningInstance,
    connectivity_matrix,
    coverage_matrix,
    row_capacities,
)
from .kernels import UNREACHABLE, adjacency_csr, bfs_hops_multi

FEAS_TOL = 1e-9
SOLUTION_FORMAT_VERSION = 1

COST = "cost"
COVERAGE = "coverage"
LINK = "link"
GATEWAY = "gateway"

#: Objective subsets per model variant, in canonical order.
VARIANTS = {
    "cov": (COST, COVERAGE),
    "llb": (COST, COVERAGE, LINK),
    "glb": (COST, COVERAGE, GATEWAY),
    "lglb": (COST, COVERAGE, LINK, GATEWAY),
}

#: What the coverage objective counts: assigned DPs, or (DP, relay) cover pairs.
COVERAGE_MODES = ("assigned", "literal")


class SolutionFormatError(ValueError):
    """Malformed or inconsistent solution file."""


class CandidateRejected(Exception):
    """A candidate plan failed a rebuild step or routing.

    Retry loops catch only this and draw again; any other exception is a bug.
    """


class CheckFailed(Exception):
    """The plan breaks a constraint: for a pipeline plan, a program fault."""


def parse_variant(name: str) -> str:
    key = name.strip().lower()
    if key not in VARIANTS:
        raise ValueError(f"unknown model variant: {name!r} (choose from {sorted(VARIANTS)})")
    return key


def _where(mask: np.ndarray) -> list:
    """Indices of the True entries as int tuples, in C order."""
    if not mask.any():
        return []
    return [tuple(row) for row in np.argwhere(mask).tolist()]


def _rows(links: np.ndarray, mask: np.ndarray) -> list:
    """(j, l, k) of the masked link-table rows as int tuples, ascending."""
    return [tuple(row) for row in links[mask].tolist()]


@dataclass
class Solution:
    """One deployment plan: roles, DP assignment, channels, links, flows.

    ap/relay/gateway are 0/1 site vectors (a site is at most one of AP and
    relay; the gateway flag sits on installed sites). x assigns DPs to sites,
    w marks active channels per site, F is gateway throughput.

    Links and flows form one table: `links` holds unique (j, l, k) rows in
    ascending order, and `L` and `f` hold each row's link indicator and link
    flow. Every (j, l, k) without a row has L = f = 0. An established link
    is stored once, in its flow direction.
    """

    ap: np.ndarray        # (s,) uint8
    relay: np.ndarray     # (s,) uint8
    gateway: np.ndarray   # (s,) uint8
    x: np.ndarray         # (n, s) uint8
    w: np.ndarray         # (s, K) uint8
    links: np.ndarray     # (m, 3) int64
    L: np.ndarray         # (m,) uint8
    f: np.ndarray         # (m,) float64
    F: np.ndarray         # (s,) float64

    @classmethod
    def zeros(cls, s: int, n: int, K: int) -> "Solution":
        """The all-zero plan over s sites, n demand points and K channels."""
        return cls(
            ap=np.zeros(s, dtype=np.uint8),
            relay=np.zeros(s, dtype=np.uint8),
            gateway=np.zeros(s, dtype=np.uint8),
            x=np.zeros((n, s), dtype=np.uint8),
            w=np.zeros((s, K), dtype=np.uint8),
            links=np.zeros((0, 3), dtype=np.int64),
            L=np.zeros(0, dtype=np.uint8),
            f=np.zeros(0, dtype=np.float64),
            F=np.zeros(s, dtype=np.float64),
        )

    @classmethod
    def empty(cls, instance: PlanningInstance) -> "Solution":
        return cls.zeros(instance.num_sites, instance.num_dps, instance.K)

    @property
    def z(self) -> np.ndarray:
        """Installed-site indicator: a site is deployed iff it is an AP or relay."""
        return self.ap | self.relay

    @property
    def num_sites(self) -> int:
        return len(self.ap)

    def copy(self) -> "Solution":
        return Solution(
            ap=self.ap.copy(), relay=self.relay.copy(), gateway=self.gateway.copy(),
            x=self.x.copy(), w=self.w.copy(), links=self.links.copy(),
            L=self.L.copy(), f=self.f.copy(), F=self.F.copy(),
        )

    def freeze(self) -> "Solution":
        """Make every array read-only, for a plan several holders share.

        A write then raises ValueError; `copy` gives writable arrays.
        """
        for spec in fields(self):
            getattr(self, spec.name).flags.writeable = False
        return self

    def set_links(self, rows) -> None:
        """Replace the table with (j, l, k, L, f) rows of ints j, l, k.

        This is `L[j, l, k], f[j, l, k] = L, f` on zeroed (s, s, K) tensors,
        kept as the canonical table: one row per key (the last row given for
        a key wins), ascending, dropped when both values are 0. Raises
        ValueError for a key outside the solution.
        """
        s, K = self.num_sites, self.w.shape[1]
        cells = {}
        for j, l, k, L, f in rows:
            if not (0 <= j < s and 0 <= l < s and 0 <= k < K):
                raise ValueError(f"link {(j, l, k)} outside {s} sites and {K} channels")
            cells[j, l, k] = L, f
        keys = sorted(key for key, (L, f) in cells.items() if L or f)
        self.links = np.array(keys, dtype=np.int64).reshape(-1, 3)
        self.L = np.array([cells[key][0] for key in keys], dtype=np.uint8)
        self.f = np.array([cells[key][1] for key in keys], dtype=np.float64)

    def site_loads(self, instance: PlanningInstance) -> np.ndarray:
        """Assigned access traffic per site."""
        return instance.dp_traffic @ self.x

    def link_list(self) -> list[tuple[int, int, int]]:
        """Established links as stored (j, l, k), ascending."""
        return _rows(self.links, self.L == 1)


def evaluate_cost(solution: Solution) -> float:
    """Deployed node count; a gateway flag adds one on top of its node."""
    return float(
        int(solution.ap.sum()) + int(solution.relay.sum()) + int(solution.gateway.sum())
    )


def evaluate_coverage(
    solution: Solution, instance: PlanningInstance, mode: str = "assigned"
) -> float:
    if mode == "assigned":
        return float(solution.x.sum())
    if mode == "literal":
        a = coverage_matrix(instance)
        return float((a * solution.relay[None, :]).sum())
    raise ValueError(f"unknown coverage mode: {mode!r}")


def evaluate_link_balance(solution: Solution, instance: PlanningInstance) -> float:
    """Smallest residual capacity over established links; 0 when there are none."""
    live = solution.L == 1
    if not live.any():
        return 0.0
    caps = np.array(row_capacities(instance, solution.links[live]))
    return float((caps - solution.f[live]).min())


def evaluate_gateway_balance(solution: Solution) -> float:
    """sqrt(sum F^2 / sum F): lower when throughput splits evenly; 0 when idle."""
    total = float(solution.F.sum())
    if total <= 0.0:
        return 0.0
    return math.sqrt(float((solution.F ** 2).sum()) / total)


#: Per objective, in stats.csv column order: its sign in the minimized
#: vector (-1 for a maximized quantity), its stats.csv column, and its
#: natural-orientation value from (solution, instance, coverage_mode).
OBJECTIVES = {
    COST: (1, "min_cost", lambda sol, *_: evaluate_cost(sol)),
    COVERAGE: (-1, "max_coverage", evaluate_coverage),
    LINK: (-1, "max_link_residual", lambda sol, inst, _: evaluate_link_balance(sol, inst)),
    GATEWAY: (1, "min_gateway_balance", lambda sol, *_: evaluate_gateway_balance(sol)),
}


def evaluate(
    solution: Solution,
    instance: PlanningInstance,
    variant: str = "lglb",
    coverage_mode: str = "assigned",
) -> np.ndarray:
    """Objective vector for the variant, minimization-oriented.

    Maximized quantities enter negated (their `OBJECTIVES` sign is -1), so
    dominance is uniformly "less or equal everywhere, less somewhere".
    """
    values = []
    for name in VARIANTS[parse_variant(variant)]:
        sign, _, value = OBJECTIVES[name]
        values.append(sign * value(solution, instance, coverage_mode))
    return np.array(values, dtype=np.float64)


def dominates(u: np.ndarray, v: np.ndarray) -> bool:
    """Strict Pareto dominance for minimization vectors of equal length."""
    if len(u) != len(v):
        raise ValueError("objective vectors have different lengths")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return bool(np.all(u <= v) and np.any(u < v))


def solution_metrics(solution: Solution, instance: PlanningInstance) -> dict:
    """All reporting quantities in their natural orientation."""
    return {
        "aps": int(solution.ap.sum()),
        "relays": int(solution.relay.sum()),
        "gateways": int(solution.gateway.sum()),
        "total": int(evaluate_cost(solution)),
        "coverage": float(evaluate_coverage(solution, instance)),
        "link_residual": float(evaluate_link_balance(solution, instance)),
        "gateway_balance": float(evaluate_gateway_balance(solution)),
    }


@dataclass
class ConstraintCheck:
    id: str
    satisfied: bool
    violations: list


@dataclass
class ConstraintReport:
    checks: list = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return all(c.satisfied for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if not c.satisfied]

    def require(self) -> None:
        """Raise CheckFailed naming the failed constraints, if any."""
        if not self.feasible:
            failed = ", ".join(c.id for c in self.failed())
            raise CheckFailed(f"constraint check failed: {failed}")


def check_constraints(
    solution: Solution, instance: PlanningInstance
) -> ConstraintReport:
    """All fifteen feasibility checks with concrete violating indices.

    Capacity, flow and throughput comparisons allow FEAS_TOL of rounding.
    """
    a = coverage_matrix(instance)
    b = connectivity_matrix(instance)
    s, K = instance.num_sites, instance.K
    z = solution.z
    x = solution.x
    w = solution.w
    links, L, f = solution.links, solution.L, solution.f
    j, l, k = links.T
    F = solution.F
    loads = solution.site_loads(instance)
    report = ConstraintReport()

    def add(cid, bad):
        report.checks.append(ConstraintCheck(cid, len(bad) == 0, bad))

    # C1: each DP assigned to at most one site
    add("C1", _where(x.sum(axis=1) > 1))

    # C2: assignment only to covering installed sites
    add("C2", _where(x > a * z[None, :]))

    # C3: links incident to a node, counted once per endpoint, fit the radio budget
    out_per_channel = np.bincount(j * K + k, L, s * K).reshape(s, K)
    per_channel = out_per_channel + np.bincount(l * K + k, L, s * K).reshape(s, K)
    incident = per_channel.sum(axis=1)
    add("C3", _where(incident > instance.R))

    # C4: channels per site pair. A pair has at most K rows, one per channel,
    # so only a link value above 1 can lift its sum past K.
    big = L > 1
    bad = []
    if big.any():  # rows are sorted, so each pair is one run
        pairs, first = np.unique(j * s + l, return_index=True)
        over = pairs[np.add.reduceat(L.astype(np.int64), first) > instance.K]
        bad = [divmod(p, s) for p in over.tolist()]
    add("C4", bad)

    # C5: one outgoing link per node per channel
    add("C5", _where(out_per_channel > 1))

    # C6: per node and channel, incoming plus outgoing at most one
    add("C6", _where(per_channel > 1))

    # C7: links need range and the channel active at both endpoints
    rhs = b[j, l] * (w[j, k] + w[l, k])
    add("C7", _rows(links, 2 * L.astype(np.int64) > rhs))

    # C8: active channels bounded by installed radios
    add("C8", _where(w.sum(axis=1) > instance.R * z))

    # C9: access capacity
    add("C9", _where(loads > instance.C_max + FEAS_TOL))

    # C10: flow only on established links, within capacity
    caps = np.array(row_capacities(instance, links))
    add("C10", _rows(links, f > L * caps + FEAS_TOL))

    # C11: demand plus inflow minus outflow equals throughput at every node
    residual = loads + np.bincount(l, f, s) - np.bincount(j, f, s) - F
    add("C11", _where(np.abs(residual) > FEAS_TOL))

    # C12: every demand site within A established-link hops of a gateway
    # (with no gateway at all, every demand site fails)
    graph = adjacency_csr(s, j[L != 0].tolist(), l[L != 0].tolist())
    gateways = np.flatnonzero(solution.gateway == 1).tolist()
    hops = bfs_hops_multi(graph, instance.A, gateways)
    bad = [
        (site,) for site in np.flatnonzero(loads > FEAS_TOL).tolist()
        if all(row[site] == UNREACHABLE for row in hops)
    ]
    add("C12", bad)

    # C13: throughput only at gateway-flagged sites
    add("C13", _where(F > instance.M * solution.gateway + FEAS_TOL))

    # C14: every installed node sits on at least two links
    add("C14", _where((z == 1) & (incident < 2)))

    # C15: variable domains; one scan tells whether any 0/1 array breaks
    binary = (("ap", solution.ap), ("relay", solution.relay),
              ("gateway", solution.gateway), ("x", x), ("w", w))
    bad = []
    if np.concatenate([arr for _, arr in binary], axis=None).max() > 1:
        for name, arr in binary:
            bad.extend((name, *idx) for idx in _where(arr > 1))
    bad.extend(("L", *idx) for idx in _rows(links, big))
    bad.extend(("f", *idx) for idx in _rows(links, f < -FEAS_TOL))
    bad.extend(("F", *idx) for idx in _where(F < -FEAS_TOL))
    add("C15", bad)

    return report


def solution_to_dict(solution: Solution) -> dict:
    s = solution.num_sites
    n, _ = solution.x.shape
    K = solution.w.shape[1]
    flowing = solution.f > 0
    return {
        "version": SOLUTION_FORMAT_VERSION,
        "sites": s,
        "demand_points": n,
        "channels": K,
        "z": [int(j) for j in np.flatnonzero(solution.z)],
        "ap": [int(j) for j in np.flatnonzero(solution.ap)],
        "relay": [int(j) for j in np.flatnonzero(solution.relay)],
        "gateway": [int(j) for j in np.flatnonzero(solution.gateway)],
        "x": np.argwhere(solution.x == 1).tolist(),
        "w": np.argwhere(solution.w == 1).tolist(),
        "links": [list(link) for link in solution.link_list()],
        "flows": [
            [*link, value]
            for link, value in zip(
                solution.links[flowing].tolist(), solution.f[flowing].tolist()
            )
        ],
        "F": [[int(j), float(v)] for j, v in enumerate(solution.F) if v > 0],
    }


def _index(idx, bounds: tuple, what: str) -> tuple:
    """idx as a tuple of ints, each within [0, bound) for its position."""
    idx = tuple(map(operator.index, idx))
    if len(idx) != len(bounds) or not all(0 <= v < b for v, b in zip(idx, bounds)):
        raise SolutionFormatError(f"{what} index out of range: {list(idx)}")
    return idx


def solution_from_dict(data: dict) -> Solution:
    try:
        version = data["version"]
        if version != SOLUTION_FORMAT_VERSION:
            raise SolutionFormatError(f"unsupported solution format version: {version!r}")
        s = int(data["sites"])
        n = int(data["demand_points"])
        K = int(data["channels"])
        sol = Solution.zeros(s, n, K)
        for name in ("ap", "relay", "gateway"):
            for j in data[name]:
                getattr(sol, name)[_index([j], (s,), name)] = 1
        for i, j in data["x"]:
            sol.x[_index((i, j), (n, s), "x")] = 1
        for j, k in data["w"]:
            sol.w[_index((j, k), (s, K), "w")] = 1
        links = {_index(key, (s, s, K), "links") for key in data["links"]}
        flows = {_index(key, (s, s, K), "flows"): float(v) for *key, v in data["flows"]}
        sol.set_links(
            (*key, int(key in links), flows.get(key, 0.0)) for key in links | set(flows)
        )
        for j, value in data["F"]:
            sol.F[_index([j], (s,), "F")] = value
        installed = sorted(data["z"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        if isinstance(exc, SolutionFormatError):
            raise
        raise SolutionFormatError(f"malformed solution data: {exc}") from exc
    if installed != [int(v) for v in np.flatnonzero(sol.z)]:
        raise SolutionFormatError("installed-site list disagrees with roles")
    if np.any(sol.ap & sol.relay):
        raise SolutionFormatError("a site cannot be both access point and relay")
    if np.any(sol.gateway > sol.z):
        raise SolutionFormatError("gateway flag on a site that is not installed")
    return sol
