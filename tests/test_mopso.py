import csv
import io

import numpy as np
import pytest

from conftest import assert_feasible, make_line_instance
from meshplan.model import Solution, check_constraints, dominates, evaluate
from meshplan.mopso import (
    MopsoConfig,
    ParetoArchive,
    cheapest_solution,
    crowding_distance,
    mutate_solution,
    run,
    stats_to_csv,
)


def _entry_sol(instance_like=4):
    # archive stores whole solutions; a stub with distinct ap vectors suffices
    sol = Solution(
        ap=np.zeros(instance_like, dtype=np.uint8),
        relay=np.zeros(instance_like, dtype=np.uint8),
        gateway=np.zeros(instance_like, dtype=np.uint8),
        x=np.zeros((1, instance_like), dtype=np.uint8),
        w=np.zeros((instance_like, 2), dtype=np.uint8),
        L=np.zeros((instance_like, instance_like, 2), dtype=np.uint8),
        f=np.zeros((instance_like, instance_like, 2), dtype=np.float64),
        F=np.zeros(instance_like, dtype=np.float64),
    )
    return sol


def test_crowding_distance_square_corners():
    values = np.array([[0.0, 1.0], [1.0, 0.0]])
    cd = crowding_distance(values)
    assert np.all(np.isinf(cd))


def test_crowding_distance_middle_point():
    values = np.array([[0.0, 4.0], [1.0, 2.0], [4.0, 0.0]])
    cd = crowding_distance(values)
    assert cd[0] == np.inf and cd[2] == np.inf
    assert cd[1] == pytest.approx(1.0 + 1.0)


def test_crowding_distance_empty():
    assert crowding_distance(np.empty((0, 2))).shape == (0,)


def test_archive_rejects_duplicates_and_dominated():
    archive = ParetoArchive(capacity=10)
    a = _entry_sol()
    assert archive.update(a, np.array([2.0, -3.0]), seq=0)
    assert not archive.update(a.copy(), np.array([2.0, -3.0]), seq=1)
    assert not archive.update(a.copy(), np.array([3.0, -3.0]), seq=2)
    assert len(archive) == 1


def test_archive_evicts_newly_dominated():
    archive = ParetoArchive(capacity=10)
    archive.update(_entry_sol(), np.array([2.0, -3.0]), seq=0)
    archive.update(_entry_sol(), np.array([3.0, -5.0]), seq=1)
    assert archive.update(_entry_sol(), np.array([2.0, -5.0]), seq=2)
    vecs = [tuple(e.objectives) for e in archive.entries]
    assert vecs == [(2.0, -5.0)]


def test_archive_capacity_evicts_least_crowded():
    archive = ParetoArchive(capacity=3)
    # a 2-D staircase: all mutually non-dominated
    points = [(1.0, -1.0), (2.0, -2.0), (3.0, -3.0), (4.0, -4.0)]
    for i, vec in enumerate(points):
        archive.update(_entry_sol(), np.array(vec), seq=i)
    assert len(archive) == 3
    kept = {tuple(e.objectives) for e in archive.entries}
    # boundary points have infinite distance, so an interior one leaves
    assert (1.0, -1.0) in kept and (4.0, -4.0) in kept


def test_archive_sort_by_crowding_descending():
    archive = ParetoArchive(capacity=10)
    points = [(1.0, -1.0), (2.0, -2.0), (2.5, -2.4), (4.0, -4.0)]
    for i, vec in enumerate(points):
        archive.update(_entry_sol(), np.array(vec), seq=i)
    archive.sort_by_crowding()
    cds = archive.crowding_distances()
    assert all(cds[i] >= cds[i + 1] for i in range(len(cds) - 1))


def test_cheapest_solution_lexicographic():
    archive = ParetoArchive(capacity=10)
    points = [(3.0, -9.0, 0.0), (2.0, -4.0, 0.0), (2.0, -6.0, 5.0)]
    for i, vec in enumerate(points):
        sol = _entry_sol()
        sol.ap[0] = i
        assert archive.update(sol, np.array(vec), seq=i)
    best = cheapest_solution(archive)
    # cost 2 beats cost 3; coverage 6 beats 4 at equal cost
    assert best.ap[0] == 2


def test_cheapest_solution_empty_archive():
    with pytest.raises(ValueError):
        cheapest_solution(ParetoArchive(capacity=4))


def test_mutation_zero_rate_keeps_feasibility(standard_instance, rng):
    from meshplan.construct import construct_feasible

    base = construct_feasible(standard_instance, rng)
    out = mutate_solution(
        base, base, standard_instance, np.random.default_rng(0), mut=0.0
    )
    assert_feasible(out, standard_instance)
    assert np.array_equal(out.ap, base.ap)
    assert np.array_equal(out.gateway, base.gateway)


def test_mutation_full_rate_changes_plan(standard_instance, rng):
    from meshplan.construct import construct_feasible

    base = construct_feasible(standard_instance, rng)
    out = mutate_solution(
        base, base, standard_instance, np.random.default_rng(0), mut=1.0
    )
    feas = check_constraints(out, standard_instance).feasible
    assert feas
    # either mutation succeeded with a different plan or fell back to base
    assert not np.array_equal(out.ap, base.ap) or out is base


def test_mutation_falls_back_past_backbone_failure():
    # every rebuild on two sites fails in connect_backbone
    inst = make_line_instance(2)
    base = Solution.empty(inst)
    base.ap[0] = 1
    out = mutate_solution(
        base, base, inst, np.random.default_rng(0), mut=0.0, retries=2
    )
    assert out is base


def test_config_validation():
    MopsoConfig().validate()
    with pytest.raises(ValueError):
        MopsoConfig(swarm_size=0).validate()
    with pytest.raises(ValueError):
        MopsoConfig(gmax=0).validate()
    with pytest.raises(ValueError):
        MopsoConfig(mut=1.5).validate()
    with pytest.raises(ValueError):
        MopsoConfig(variant="bogus").validate()
    with pytest.raises(ValueError):
        MopsoConfig(workers=0).validate()
    with pytest.raises(ValueError):
        MopsoConfig(archive_capacity=0).validate()


def _small_run(instance, **overrides):
    config = MopsoConfig(swarm_size=6, gmax=5, mut=0.2, seed=3, **overrides)
    return run(instance, config)


def test_run_archive_sound(standard_instance):
    result = _small_run(standard_instance)
    assert result.evaluations == 6 * 5
    vecs = [e.objectives for e in result.archive.entries]
    for i, u in enumerate(vecs):
        assert check_constraints(
            result.archive.entries[i].solution, standard_instance
        ).feasible
        for j, v in enumerate(vecs):
            if i != j:
                assert not dominates(u, v)


def test_run_incumbent_tracks_cheapest(standard_instance):
    result = _small_run(standard_instance)
    assert_feasible(result.incumbent, standard_instance)
    vec = evaluate(result.incumbent, standard_instance, "lglb")
    assert vec[0] == result.incumbent_objectives[0]
    best_cost = min(e.objectives[0] for e in result.archive.entries)
    assert result.incumbent_objectives[0] <= best_cost


def test_run_serial_equals_parallel(standard_instance):
    serial = _small_run(standard_instance, workers=1)
    parallel = _small_run(standard_instance, workers=4)
    assert np.array_equal(
        serial.archive.objectives_matrix(), parallel.archive.objectives_matrix()
    )
    assert np.array_equal(serial.incumbent.ap, parallel.incumbent.ap)
    assert np.array_equal(serial.incumbent.L, parallel.incumbent.L)
    assert serial.stats == parallel.stats


def test_run_reproducible(standard_instance):
    one = _small_run(standard_instance)
    two = _small_run(standard_instance)
    assert np.array_equal(
        one.archive.objectives_matrix(), two.archive.objectives_matrix()
    )
    assert one.stats == two.stats


def test_run_variant_shapes(standard_instance):
    cov = _small_run(standard_instance, variant="cov")
    assert cov.archive.objectives_matrix().shape[1] == 2
    glb = _small_run(standard_instance, variant="glb")
    assert glb.archive.objectives_matrix().shape[1] == 3


def test_recombination_stays_sound(standard_instance):
    result = _small_run(standard_instance, recombine=True)
    for entry in result.archive.entries:
        assert check_constraints(entry.solution, standard_instance).feasible


def test_stats_csv_schema(standard_instance):
    result = _small_run(standard_instance, variant="cov")
    text = stats_to_csv(result.stats)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [
        "generation", "archive_size", "min_cost", "max_coverage",
        "max_link_residual", "min_gateway_balance",
    ]
    assert len(rows) == 1 + 5
    for row in rows[1:]:
        assert row[2] != "" and row[3] != ""
        # objectives outside the active variant stay blank
        assert row[4] == "" and row[5] == ""
    assert text.endswith("\n")
