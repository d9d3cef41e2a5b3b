"""Multi-objective particle swarm search over feasible deployments.

The loop follows the planner's published shape: a swarm of feasible
solutions, per-generation mutation (random AP removal and gateway flag
moves) followed by reconstruction, and an external Pareto archive pruned by
crowding distance. There is no velocity model; exploration comes entirely
from the randomized rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import (
    Outcomes,
    construct_feasible,
    placement_key,
    rebuild_pipeline,
)
from .instance import PlanningInstance
from .kernels import crowding_distance_kernel
from .model import (
    COVERAGE_MODES,
    CandidateRejected,
    OBJECTIVES,
    Solution,
    VARIANTS,
    check_constraints,
    evaluate,
    parse_variant,
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
        if self.coverage_mode not in COVERAGE_MODES:
            raise ValueError(f"unknown coverage mode: {self.coverage_mode!r}")
        if self.gateway_count is not None and self.gateway_count < 1:
            raise ValueError("gateway count must be >= 1")
        parse_variant(self.variant)


@dataclass
class ArchiveEntry:
    solution: Solution
    objectives: np.ndarray
    seq: int


class ParetoArchive:
    """Bounded nondominated set with crowding-distance pruning.

    Entries keep discovery order. A candidate is rejected when some entry is
    no worse in every objective: that entry equals it or dominates it. An
    accepted candidate evicts the entries it dominates. Over capacity, the
    entry with the smallest crowding distance goes (ties evict the later
    entry).
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
        return crowding_distance_kernel(self.objectives_matrix())

    def update(self, solution: Solution, objectives: np.ndarray, seq: int) -> bool:
        vec = np.asarray(objectives, dtype=np.float64)
        if self.entries:
            m = self.objectives_matrix()
            if (m <= vec).all(1).any():
                return False
            # no entry equals vec now, so one that vec is <= in every
            # objective is one that vec dominates
            beaten = (vec <= m).all(1)
            self.entries = [e for e, out in zip(self.entries, beaten) if not out]
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


def mutate_solution(
    base: Solution,
    fallback: Solution,
    instance: PlanningInstance,
    rng: np.random.Generator,
    mut: float,
    gateway_count: int | None = None,
    retries: int = 8,
    *,
    outcomes: Outcomes,
) -> Solution:
    """Randomly drop APs and move gateway flags, then rebuild and re-route.

    Each attempt perturbs a fresh copy of `base` and replays the placement
    pipeline on the survivors; an attempt rejected by a rebuild step,
    routing or the constraint check is discarded. After `retries` rejections
    the unmutated `fallback` is returned.

    `fallback` must be a feasible `rebuild_pipeline` output, as every
    particle's plan is: an attempt with its `placement_key` returns it
    without the rebuild and check, which would reproduce it.

    `outcomes` holds plans that passed the check. A rebuilt plan that passes
    is stored there, so `rebuild_pipeline` returns it for the same placement
    later, and that plan object is returned again without the check.
    """
    unchanged = placement_key(fallback)
    for _ in range(retries):
        work = base.copy()
        aps = np.flatnonzero(work.ap == 1)
        drop = aps[rng.random(len(aps)) < mut]
        work.ap[drop] = 0
        work.x[:, drop] = 0
        work.gateway[drop] = 0
        flagged = np.flatnonzero(work.gateway == 1)
        moves = rng.random(len(flagged))
        targets = np.flatnonzero(work.z == 1)
        for site, draw in zip(flagged, moves):
            if draw < mut and len(targets) > 0:
                work.gateway[site] = 0
                work.gateway[targets[rng.integers(len(targets))]] = 1
        if placement_key(work) == unchanged:
            return fallback
        try:
            rebuilt = rebuild_pipeline(work, instance, rng, gateway_count, outcomes)
            # Nothing is stored since the rebuild's own lookup, so this
            # finds `rebuilt` exactly when the rebuild returned a stored plan.
            if outcomes.lookup(rebuilt) is not rebuilt:
                check_constraints(rebuilt, instance).require()
                outcomes.store(rebuilt)
        except CandidateRejected:
            continue
        return rebuilt
    return fallback


@dataclass
class MopsoResult:
    """Everything a run produces: front, per-generation stats, incumbent.

    `incumbent` is the feasible candidate with lexicographically least
    (cost, -coverage) over every evaluation in discovery order, which makes
    cross-variant comparisons independent of archive tie-breaking.
    """

    archive: ParetoArchive
    stats: list[dict]
    incumbent: Solution
    incumbent_objectives: np.ndarray
    evaluations: int
    config: MopsoConfig


def _generation_stats(generation: int, archive: ParetoArchive, names) -> dict:
    """One stats.csv row; its key order is the file's column order."""
    m = archive.objectives_matrix()
    row = {"generation": generation, "archive_size": len(archive)}
    for name, (sign, column, _) in OBJECTIVES.items():
        row[column] = float(sign * m[:, names.index(name)].min()) if name in names else None
    return row


def format_cell(value) -> str:
    """One CSV or report cell: ints exact, other numbers `.10g`, None empty."""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


def stats_to_csv(stats: list[dict]) -> str:
    """CSV text with the first row's keys as header; absent objectives
    render as empty fields."""
    lines = [",".join(stats[0])]
    lines += [",".join(map(format_cell, row.values())) for row in stats]
    return "\n".join(lines) + "\n"


def run(instance: PlanningInstance, config: MopsoConfig) -> MopsoResult:
    """Full search: seeded construction, then gmax-1 mutation generations.

    Deterministic for a given (instance, config): particle i of generation g
    draws only from its own stream (seed, g, i). A step reads only its own
    particle, and each candidate is offered to the archive as soon as it is
    evaluated, in particle order.

    The run keeps one `Outcomes` memo of checked plans for its mutations,
    bounded by `archive_capacity` (no more plans than the archive may keep),
    and it reuses a particle's objective vector when mutation returns that
    particle's plan object. Neither changes a result: both skip only work
    that is a pure function of inputs already judged.
    """
    config.validate()
    names = VARIANTS[parse_variant(config.variant)]
    archive = ParetoArchive(config.archive_capacity)
    outcomes = Outcomes(config.archive_capacity)
    particles: list[Solution | None] = [None] * config.swarm_size
    vectors: list[np.ndarray | None] = [None] * config.swarm_size
    stats: list[dict] = []
    seq = 0
    incumbent: Solution | None = None
    incumbent_vec: np.ndarray | None = None
    incumbent_key = None

    for g in range(1, config.gmax + 1):
        if g > 1:
            # sets archive.json's entry order and the eviction tie-break
            archive.sort_by_crowding()
        for i in range(config.swarm_size):
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, g, i]))
            if g == 1:
                sol = construct_feasible(
                    instance, rng, gateway_count=config.gateway_count
                )
            else:
                sol = mutate_solution(
                    particles[i], particles[i], instance, rng, config.mut,
                    config.gateway_count, outcomes=outcomes,
                )
            if sol is not particles[i]:
                particles[i] = sol
                vectors[i] = evaluate(
                    sol, instance, config.variant, config.coverage_mode
                )
            vec = vectors[i]
            archive.update(sol, vec, seq)
            seq += 1
            key = (float(vec[0]), float(vec[1]))
            if incumbent_key is None or key < incumbent_key:
                incumbent, incumbent_vec, incumbent_key = sol, vec, key
        stats.append(_generation_stats(g, archive, names))

    return MopsoResult(
        archive=archive,
        stats=stats,
        incumbent=incumbent,
        incumbent_objectives=incumbent_vec,
        evaluations=seq,
        config=config,
    )
