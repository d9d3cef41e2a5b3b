"""Multi-objective particle swarm search over feasible deployments.

The loop follows the planner's published shape: a swarm of feasible
solutions, per-generation mutation (random AP removal and gateway flag
moves) followed by reconstruction, and an external Pareto archive pruned by
crowding distance. There is no velocity model; exploration comes entirely
from the randomized rebuild. An optional recombination step (crossing a
particle with an archive leader's AP set) is available behind a flag.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .construct import REBUILD_FAILURES, construct_feasible, rebuild_pipeline
from .instance import PlanningInstance
from .kernels import crowding_distance_kernel
from .model import (
    GATEWAY,
    LINK,
    Solution,
    VARIANTS,
    check_constraints,
    dominates,
    evaluate,
    parse_variant,
)

#: Archive prefix eligible as recombination leaders after the crowding sort.
LEADER_POOL = 5

STATS_COLUMNS = (
    "generation",
    "archive_size",
    "min_cost",
    "max_coverage",
    "max_link_residual",
    "min_gateway_balance",
)


@dataclass
class MopsoConfig:
    """Search parameters; defaults follow the planner's reference setup."""

    swarm_size: int = 50
    gmax: int = 100
    mut: float = 0.1
    archive_capacity: int = 100
    seed: int = 0
    variant: str = "lglb"
    coverage_mode: str = "assigned"
    gateway_count: int | None = None
    max_retries: int = 500
    mutation_retries: int = 8
    workers: int = 1
    recombine: bool = False

    def validate(self) -> None:
        if self.swarm_size < 1:
            raise ValueError("swarm_size must be >= 1")
        if self.gmax < 1:
            raise ValueError("gmax must be >= 1")
        if not 0.0 <= self.mut <= 1.0:
            raise ValueError("mutation probability must lie in [0, 1]")
        if self.archive_capacity < 1:
            raise ValueError("archive_capacity must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.coverage_mode not in ("assigned", "literal"):
            raise ValueError(f"unknown coverage mode: {self.coverage_mode!r}")
        if self.gateway_count is not None and self.gateway_count < 1:
            raise ValueError("gateway count must be >= 1")
        if self.max_retries < 1 or self.mutation_retries < 1:
            raise ValueError("retry budgets must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        parse_variant(self.variant)


@dataclass
class Particle:
    """A particle's current solution and its objective vector."""

    current: Solution
    objectives: np.ndarray


@dataclass
class ArchiveEntry:
    solution: Solution
    objectives: np.ndarray
    seq: int


class ParetoArchive:
    """Bounded nondominated set with crowding-distance pruning.

    Entries keep discovery order; a duplicate objective vector is rejected,
    a dominated candidate is rejected, and an accepted candidate evicts the
    entries it dominates. Over capacity, the entry with the smallest
    crowding distance goes (ties evict the later entry).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("archive capacity must be >= 1")
        self.capacity = capacity
        self.entries: list[ArchiveEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def objectives_matrix(self) -> np.ndarray:
        if not self.entries:
            return np.zeros((0, 0), dtype=np.float64)
        return np.vstack([e.objectives for e in self.entries])

    def crowding_distances(self) -> np.ndarray:
        return crowding_distance(self.objectives_matrix())

    def update(self, solution: Solution, objectives: np.ndarray, seq: int) -> bool:
        vec = np.asarray(objectives, dtype=np.float64)
        for entry in self.entries:
            if np.array_equal(entry.objectives, vec):
                return False
        for entry in self.entries:
            if dominates(entry.objectives, vec):
                return False
        self.entries = [
            e for e in self.entries if not dominates(vec, e.objectives)
        ]
        self.entries.append(ArchiveEntry(solution, vec, seq))
        if len(self.entries) > self.capacity:
            cds = self.crowding_distances()
            evict = len(cds) - 1 - int(np.argmin(cds[::-1]))
            del self.entries[evict]
        return True

    def sort_by_crowding(self) -> None:
        """Reorder entries by descending crowding distance (stable)."""
        if len(self.entries) < 2:
            return
        cds = self.crowding_distances()
        order = np.argsort(-cds, kind="stable")
        self.entries = [self.entries[i] for i in order]


def crowding_distance(values) -> np.ndarray:
    """Per-row crowding distance of an (m, d) objective matrix.

    Boundary points of every objective get infinity; interior points sum the
    normalized gap between their neighbors along each objective.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D objective matrix")
    if arr.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    return crowding_distance_kernel(arr)


def cheapest_solution(archive: ParetoArchive) -> Solution:
    """Archive entry with minimum cost; ties by coverage, then entry order."""
    if not archive.entries:
        raise ValueError("archive is empty")
    best = archive.entries[0]
    for entry in archive.entries[1:]:
        if (entry.objectives[0], entry.objectives[1]) < (
            best.objectives[0], best.objectives[1]
        ):
            best = entry
    return best.solution


def mutate_solution(
    base: Solution,
    fallback: Solution,
    instance: PlanningInstance,
    rng: np.random.Generator,
    mut: float,
    gateway_count: int | None = None,
    retries: int = 8,
) -> Solution:
    """Randomly drop APs and move gateway flags, then rebuild and re-route.

    Each attempt perturbs a fresh copy of `base` and replays the placement
    pipeline on the survivors; an attempt that fails channelization, routing
    or the constraint check is discarded. After `retries` failures the
    unmutated `fallback` is returned.
    """
    for _ in range(retries):
        work = base.copy()
        aps = np.flatnonzero(work.ap == 1)
        draws = rng.random(len(aps))
        for site, draw in zip(aps, draws):
            if draw < mut:
                work.ap[site] = 0
                work.x[:, site] = 0
                work.gateway[site] = 0
        flagged = np.flatnonzero(work.gateway == 1)
        moves = rng.random(len(flagged))
        targets = np.flatnonzero(work.z == 1)
        for site, draw in zip(flagged, moves):
            if draw < mut and len(targets) > 0:
                work.gateway[site] = 0
                work.gateway[targets[rng.integers(len(targets))]] = 1
        try:
            rebuilt = rebuild_pipeline(work, instance, rng, gateway_count)
        except REBUILD_FAILURES:
            continue
        if check_constraints(rebuilt, instance).feasible:
            return rebuilt
    return fallback


def _recombine(
    base: Solution,
    leaders: list[Solution],
    instance: PlanningInstance,
    rng: np.random.Generator,
) -> Solution:
    """Cross the particle's AP set with a random archive leader's."""
    leader = leaders[rng.integers(len(leaders))]
    child = Solution.empty(instance)
    both = base.ap & leader.ap
    only = (base.ap | leader.ap) & (1 - both)
    keep = (rng.random(instance.num_sites) < 0.5).astype(np.uint8)
    child.ap = both | (only & keep)
    child.relay = base.relay & (1 - child.ap)
    child.gateway = base.gateway & child.z
    return child


@dataclass
class MopsoResult:
    """Everything a run produces: front, per-generation stats, incumbent.

    `incumbent` is the feasible candidate with lexicographically least
    (cost, -coverage) over every evaluation in discovery order, which makes
    cross-variant comparisons independent of archive tie-breaking.
    """

    archive: ParetoArchive
    particles: list[Particle]
    stats: list[dict]
    incumbent: Solution
    incumbent_objectives: np.ndarray
    evaluations: int
    config: MopsoConfig


def _generation_stats(generation: int, archive: ParetoArchive, names) -> dict:
    m = archive.objectives_matrix()
    row = {
        "generation": generation,
        "archive_size": len(archive),
        "min_cost": float(m[:, 0].min()),
        "max_coverage": float(-m[:, 1].min()),
        "max_link_residual": None,
        "min_gateway_balance": None,
    }
    if LINK in names:
        row["max_link_residual"] = float(-m[:, names.index(LINK)].min())
    if GATEWAY in names:
        row["min_gateway_balance"] = float(m[:, names.index(GATEWAY)].min())
    return row


def stats_to_csv(stats: list[dict]) -> str:
    """Fixed-column CSV text; absent objectives render as empty fields."""
    lines = [",".join(STATS_COLUMNS)]
    for row in stats:
        cells = []
        for col in STATS_COLUMNS:
            value = row[col]
            if value is None:
                cells.append("")
            elif isinstance(value, int):
                cells.append(str(value))
            else:
                cells.append(f"{value:.10g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run(instance: PlanningInstance, config: MopsoConfig) -> MopsoResult:
    """Full search: seeded construction, then gmax-1 mutation generations.

    Deterministic for a given (instance, config): every particle draws from
    its own per-generation stream, so results do not depend on worker count.
    """
    config.validate()
    names = VARIANTS[parse_variant(config.variant)]
    archive = ParetoArchive(config.archive_capacity)
    particles: list[Particle] = []
    stats: list[dict] = []
    seq = 0
    incumbent: Solution | None = None
    incumbent_vec: np.ndarray | None = None
    incumbent_key = None

    def admit(solution: Solution, vec: np.ndarray) -> None:
        nonlocal seq, incumbent, incumbent_vec, incumbent_key
        archive.update(solution, vec, seq)
        key = (float(vec[0]), float(vec[1]))
        if incumbent_key is None or key < incumbent_key:
            incumbent, incumbent_vec, incumbent_key = solution, vec, key
        seq += 1

    for i in range(config.swarm_size):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1, i]))
        sol = construct_feasible(
            instance, rng, config.max_retries, config.gateway_count
        )
        vec = evaluate(sol, instance, config.variant, config.coverage_mode)
        particles.append(Particle(sol, vec))
        admit(sol, vec)
    stats.append(_generation_stats(1, archive, names))

    for g in range(2, config.gmax + 1):
        archive.sort_by_crowding()
        leaders = (
            [e.solution for e in archive.entries[:LEADER_POOL]]
            if config.recombine
            else None
        )

        def step(i: int, g: int = g) -> tuple[Solution, np.ndarray]:
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, g, i])
            )
            base = particles[i].current
            if leaders:
                base = _recombine(base, leaders, instance, rng)
            mutated = mutate_solution(
                base,
                particles[i].current,
                instance,
                rng,
                config.mut,
                config.gateway_count,
                config.mutation_retries,
            )
            return mutated, evaluate(
                mutated, instance, config.variant, config.coverage_mode
            )

        if config.workers > 1:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                results = list(pool.map(step, range(config.swarm_size)))
        else:
            results = [step(i) for i in range(config.swarm_size)]

        for i, (mutated, vec) in enumerate(results):
            particles[i].current = mutated
            particles[i].objectives = vec
            admit(mutated, vec)
        stats.append(_generation_stats(g, archive, names))

    return MopsoResult(
        archive=archive,
        particles=particles,
        stats=stats,
        incumbent=incumbent,
        incumbent_objectives=incumbent_vec,
        evaluations=seq,
        config=config,
    )
