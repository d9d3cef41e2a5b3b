import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    PLAN_ARRAYS,
    assert_feasible,
    make_line_instance,
    make_verify2x3_instance,
    planning_cases,
)
from meshplan import construct, mopso
from meshplan.construct import (
    BackboneError,
    ConstructionInfeasibleError,
    Outcomes,
    construct_feasible,
)
from meshplan.model import (
    CheckFailed,
    ConstraintCheck,
    ConstraintReport,
    Solution,
    check_constraints,
    dominates,
    evaluate,
    evaluate_cost,
    evaluate_coverage,
    evaluate_gateway_balance,
    evaluate_link_balance,
)
from meshplan.mopso import (
    MopsoConfig,
    ParetoArchive,
    format_cell,
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
        links=np.zeros((0, 3), dtype=np.int64),
        L=np.zeros(0, dtype=np.uint8),
        f=np.zeros(0, dtype=np.float64),
        F=np.zeros(instance_like, dtype=np.float64),
    )
    return sol


def _archive_of(points):
    archive = ParetoArchive(capacity=10)
    for i, vec in enumerate(points):
        assert archive.update(_entry_sol(), np.array(vec), seq=i)
    return archive


def test_crowding_distance_square_corners():
    cd = _archive_of([(0.0, 1.0), (1.0, 0.0)]).crowding_distances()
    assert np.all(np.isinf(cd))


def test_crowding_distance_middle_point():
    cd = _archive_of([(0.0, 4.0), (1.0, 2.0), (4.0, 0.0)]).crowding_distances()
    assert cd[0] == np.inf and cd[2] == np.inf
    assert cd[1] == pytest.approx(1.0 + 1.0)


def test_crowding_distance_empty():
    assert ParetoArchive(capacity=4).crowding_distances().shape == (0,)


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


class ThreePassArchive(ParetoArchive):
    """The admission rule as three passes over the entries (duplicates,
    dominating entries, then the entries the candidate dominates): the
    reference `ParetoArchive.update` must match."""

    def update(self, solution, objectives, seq):
        vec = np.asarray(objectives, dtype=np.float64)
        if any(np.array_equal(e.objectives, vec) for e in self.entries):
            return False
        if any(dominates(e.objectives, vec) for e in self.entries):
            return False
        self.entries = [e for e in self.entries if not dominates(vec, e.objectives)]
        self.entries.append(mopso.ArchiveEntry(solution, vec, seq))
        if len(self.entries) > self.capacity:
            cds = self.crowding_distances()
            del self.entries[len(cds) - 1 - int(np.argmin(cds[::-1]))]
        return True


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 4).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, 3), min_size=k, max_size=k), max_size=40,
    )),
    st.integers(1, 6),
)
def test_archive_update_matches_three_pass_reference(vectors, capacity):
    """Small integer objectives make duplicates, ties and crowding evictions
    common."""
    archive, reference = ParetoArchive(capacity), ThreePassArchive(capacity)
    for seq, vec in enumerate(vectors):
        vec = np.array(vec, dtype=np.float64)
        sol = _entry_sol()
        assert archive.update(sol, vec, seq) == reference.update(sol, vec, seq)
    assert [(e.objectives.tolist(), e.seq) for e in archive.entries] == [
        (e.objectives.tolist(), e.seq) for e in reference.entries
    ]


def test_archive_sort_by_crowding_descending():
    archive = ParetoArchive(capacity=10)
    points = [(1.0, -1.0), (2.0, -2.0), (2.5, -2.4), (4.0, -4.0)]
    for i, vec in enumerate(points):
        archive.update(_entry_sol(), np.array(vec), seq=i)
    archive.sort_by_crowding()
    cds = archive.crowding_distances()
    assert all(cds[i] >= cds[i + 1] for i in range(len(cds) - 1))


def test_mutation_zero_rate_keeps_feasibility(standard_instance, rng):
    from meshplan.construct import construct_feasible

    base = construct_feasible(standard_instance, rng)
    out = mutate_solution(
        base, base, standard_instance, np.random.default_rng(0), mut=0.0,
        outcomes=Outcomes(8),
    )
    assert_feasible(out, standard_instance)
    assert np.array_equal(out.ap, base.ap)
    assert np.array_equal(out.gateway, base.gateway)


def test_mutation_full_rate_changes_plan(standard_instance, rng):
    from meshplan.construct import construct_feasible

    base = construct_feasible(standard_instance, rng)
    out = mutate_solution(
        base, base, standard_instance, np.random.default_rng(0), mut=1.0,
        outcomes=Outcomes(8),
    )
    feas = check_constraints(out, standard_instance).feasible
    assert feas
    # either mutation succeeded with a different plan or fell back to base
    assert not np.array_equal(out.ap, base.ap) or out is base


def test_mutation_falls_back_past_backbone_failure(monkeypatch):
    # every rebuild on two sites fails in connect_backbone
    inst = make_line_instance(2)
    base = Solution.empty(inst)
    base.ap[0] = 1
    base.x[0, 0] = 1
    fallback = Solution.empty(inst)
    real_rebuild = mopso.rebuild_pipeline
    failures = []

    def rebuild(*args):
        try:
            return real_rebuild(*args)
        except BackboneError as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(mopso, "rebuild_pipeline", rebuild)
    out = mutate_solution(
        base, fallback, inst, np.random.default_rng(0), mut=0.0, retries=3,
        outcomes=Outcomes(8),
    )
    assert out is fallback
    assert len(failures) == 3
    assert all("degree 2" in str(exc) for exc in failures)


def test_mutation_unchanged_plan_returns_parent(standard_instance, rng, monkeypatch):
    # a pipeline output rebuilds to itself, so an unchanged draw skips the rebuild
    plan = construct_feasible(standard_instance, rng)

    def rebuild(*args):
        raise AssertionError("an unchanged plan was rebuilt")

    monkeypatch.setattr(mopso, "rebuild_pipeline", rebuild)
    out = mutate_solution(
        plan, plan, standard_instance, np.random.default_rng(0), mut=0.0,
        outcomes=Outcomes(8),
    )
    assert out is plan


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
        MopsoConfig(archive_capacity=0).validate()
    with pytest.raises(ValueError, match="archive capacity must be >= 1"):
        ParetoArchive(capacity=0)
    with pytest.raises(ValueError):
        MopsoConfig(coverage_mode="bogus").validate()
    with pytest.raises(ValueError):
        MopsoConfig(gateway_count=0).validate()
    with pytest.raises(ValueError):
        MopsoConfig(seed=-1).validate()
    with pytest.raises(ValueError):
        MopsoConfig(mut=-0.1).validate()


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


def test_stats_csv_schema(standard_instance):
    present = {
        "cov": {"min_cost", "max_coverage"},
        "llb": {"min_cost", "max_coverage", "max_link_residual"},
        "glb": {"min_cost", "max_coverage", "min_gateway_balance"},
    }
    for variant, columns in present.items():
        result = _small_run(standard_instance, variant=variant)
        text = stats_to_csv(result.stats)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "generation", "archive_size", "min_cost", "max_coverage",
            "max_link_residual", "min_gateway_balance",
        ]
        assert len(rows) == 1 + 5
        for row in rows[1:]:
            # objectives outside the active variant stay blank
            assert [cell != "" for cell in row[2:]] == [
                name in columns for name in rows[0][2:]
            ]
        # each present column is the best natural value over the final archive
        plans = [entry.solution for entry in result.archive.entries]
        best = {
            "min_cost": min(evaluate_cost(p) for p in plans),
            "max_coverage": max(evaluate_coverage(p, standard_instance) for p in plans),
            "max_link_residual": max(
                evaluate_link_balance(p, standard_instance) for p in plans
            ),
            "min_gateway_balance": min(evaluate_gateway_balance(p) for p in plans),
        }
        last = dict(zip(rows[0], rows[-1]))
        for name in columns:
            assert last[name] == format_cell(best[name]), (variant, name)
        assert text.endswith("\n")


def _same_plan(got, want):
    for name in PLAN_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def _run_recording_offers(instance, config):
    """run(instance, config) and the bytes of every candidate it offered to
    the archive: the nine plan arrays and the objective vector."""
    offers = []
    update = mopso.ParetoArchive.update

    def recording(archive, solution, objectives, seq):
        offers.append(tuple(
            getattr(solution, name).tobytes() for name in PLAN_ARRAYS
        ) + (objectives.tobytes(),))
        return update(archive, solution, objectives, seq)

    with mock.patch.object(mopso.ParetoArchive, "update", recording):
        return run(instance, config), offers


@settings(max_examples=40, deadline=None)
@given(planning_cases(), st.sampled_from([1, 3, 100]))
@example((make_verify2x3_instance(), None, 0), 100)
def test_outcome_memo_changes_no_result(case, capacity):
    """A run with the memo evaluates, byte for byte, the candidates of a run
    whose rebuilds never see it, and ends with the same archive, stats and
    incumbent. The benchmark instance repeats most of its placements, so it
    is always one of the examples."""
    inst, gateway_count, seed = case
    try:
        construct_feasible(inst, np.random.default_rng(seed), max_retries=20,
                           gateway_count=gateway_count)
    except ConstructionInfeasibleError:
        assume(False)
    config = dict(swarm_size=4, gmax=8, mut=0.4, archive_capacity=capacity,
                  seed=seed, gateway_count=gateway_count)
    try:
        memo, memo_offers = _run_recording_offers(inst, MopsoConfig(**config))
    except ConstructionInfeasibleError:
        assume(False)
    real = mopso.rebuild_pipeline
    with mock.patch.object(mopso, "rebuild_pipeline", lambda *args: real(*args[:4])):
        plain, plain_offers = _run_recording_offers(inst, MopsoConfig(**config))
    assert memo_offers == plain_offers
    assert memo.stats == plain.stats
    assert np.array_equal(
        memo.archive.objectives_matrix(), plain.archive.objectives_matrix()
    )
    assert [e.seq for e in memo.archive.entries] == [
        e.seq for e in plain.archive.entries
    ]
    for got, want in zip(memo.archive.entries, plain.archive.entries):
        _same_plan(got.solution, want.solution)
    _same_plan(memo.incumbent, plain.incumbent)
    assert np.array_equal(memo.incumbent_objectives, plain.incumbent_objectives)


def test_outcome_memo_holds_at_most_archive_capacity(verify2x3_instance):
    real = mopso.rebuild_pipeline
    sizes = []

    def rebuild(*args):
        try:
            return real(*args)
        finally:
            sizes.append(len(args[4]))

    with mock.patch.object(mopso, "rebuild_pipeline", rebuild):
        run(verify2x3_instance,
            MopsoConfig(swarm_size=10, gmax=20, archive_capacity=3, seed=0))
    assert max(sizes) == 3


def test_outcomes_drop_the_oldest_entry_first(verify2x3_instance):
    plans = []
    for gateway in range(3):  # three placements that differ in one flag
        plan = Solution.empty(verify2x3_instance)
        plan.gateway[gateway] = 1
        plans.append(plan)
    outcomes = Outcomes(2)
    for plan in plans:
        outcomes.store(plan)
    assert outcomes.lookup(plans[0]) is None
    assert all(outcomes.lookup(plan) is plan for plan in plans[1:])


def _memo_hit(instance, monkeypatch):
    """A plan stored by one mutation, then returned by a second one. Neither
    mutation runs the check."""
    plan = construct_feasible(instance, np.random.default_rng(0))
    empty = Solution.empty(instance)  # a fallback no attempt can equal
    outcomes = Outcomes(4)

    def forbidden(*args, **kwargs):
        raise AssertionError("a mutation checked its plan, or a stored "
                             "placement was routed again")

    monkeypatch.setattr(mopso, "check_constraints", forbidden)
    first = mutate_solution(plan, empty, instance, np.random.default_rng(1), 0.0,
                            outcomes=outcomes)
    assert first is not empty
    assert outcomes.lookup(plan) is first
    for name in ("assign_channels", "route_flows"):
        monkeypatch.setattr(construct, name, forbidden)
    second = mutate_solution(plan, empty, instance, np.random.default_rng(2), 0.0,
                             outcomes=outcomes)
    return plan, first, second


def test_memo_hit_skips_routing_and_the_check(verify2x3_instance, monkeypatch):
    plan, first, second = _memo_hit(verify2x3_instance, monkeypatch)
    assert second is first
    _same_plan(first, plan)  # a pipeline output rebuilds to itself


@pytest.mark.parametrize("k", [1, 3])
def test_failed_check_stops_the_run(verify2x3_instance, monkeypatch, k):
    """An emitted plan that breaks a constraint is a program fault: the run
    raises CheckFailed at the k-th check instead of going on."""
    calls = []

    def failing_kth(solution, instance):
        calls.append(solution)
        if len(calls) == k:
            return ConstraintReport([ConstraintCheck("C1", False, [(0,)])])
        return check_constraints(solution, instance)

    monkeypatch.setattr(mopso, "check_constraints", failing_kth)
    with pytest.raises(CheckFailed, match="constraint check failed: C1$"):
        run(verify2x3_instance, MopsoConfig(swarm_size=4, gmax=5, seed=0))
    assert len(calls) == k


@pytest.mark.parametrize("workload", ["verify2x3", "ref6x6"])
def test_emitted_plans_are_checked(workload, verify2x3_instance,
                                   standard_instance, monkeypatch):
    """Every plan a run can emit, the final archive and the incumbent, went
    through the check and passed it."""
    instance, config = {
        "verify2x3": (verify2x3_instance, MopsoConfig(swarm_size=6, gmax=10)),
        "ref6x6": (standard_instance, MopsoConfig(swarm_size=6, gmax=4)),
    }[workload]
    passed = []

    def recording(solution, instance):
        report = check_constraints(solution, instance)
        if report.feasible:
            passed.append(solution)
        return report

    monkeypatch.setattr(mopso, "check_constraints", recording)
    result = run(instance, config)
    emitted = [e.solution for e in result.archive.entries] + [result.incumbent]
    for plan in emitted:
        assert any(plan is seen for seen in passed)


def test_stored_plans_are_read_only(verify2x3_instance, monkeypatch):
    _, stored, _ = _memo_hit(verify2x3_instance, monkeypatch)
    for name in PLAN_ARRAYS:
        array = getattr(stored, name)
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert all(getattr(stored.copy(), name).flags.writeable for name in PLAN_ARRAYS)
