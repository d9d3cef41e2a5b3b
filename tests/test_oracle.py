import json
import math

import numpy as np
import pytest

from conftest import FIXTURES, assert_feasible, make_square_instance
from meshplan.instance import RadioParams, build_grid_instance
from meshplan.oracle import (
    EnumerationLimitError,
    GuardError,
    enumerate_feasible,
    true_pareto_front,
    verify_archive,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def one_dp_instance():
    # a single demand point pinned to site 0; tiny enough to enumerate raw
    return make_square_instance(dp_sites=(0,), traffic=2.0, C_max=4.0, M=8.0)


def test_toy_enumeration_census(toy_instance):
    solutions = list(enumerate_feasible(toy_instance))
    assert len(solutions) == 12
    for sol, vec in solutions:
        assert_feasible(sol, toy_instance)
        assert vec.shape == (4,)
    distinct = {tuple(v) for _, v in solutions}
    assert distinct == {
        (6.0, -4.0, -4.0, 2.0),
        (6.0, -4.0, -0.0, 2.0),
        (6.0, -4.0, -0.0, 2 * SQRT2),
    }


def test_toy_front_single_point(toy_instance):
    front = true_pareto_front(toy_instance)
    assert front == [(6.0, -4.0, -4.0, 2.0)]


def test_toy_front_per_variant(toy_instance):
    assert true_pareto_front(toy_instance, variant="cov") == [(6.0, -4.0)]
    assert true_pareto_front(toy_instance, variant="llb") == [(6.0, -4.0, -4.0)]
    assert true_pareto_front(toy_instance, variant="glb") == [(6.0, -4.0, 2.0)]


def test_committed_front_still_true(toy_instance):
    stored = json.loads((FIXTURES / "toy2x2_front.json").read_text())
    assert stored["instance_hash"] == toy_instance.content_hash()
    assert stored["variant"] == "lglb"
    live = true_pareto_front(toy_instance)
    assert [tuple(v) for v in stored["front"]] == live


def test_policy_enumeration_counts(one_dp_instance):
    policy = list(enumerate_feasible(one_dp_instance))
    assert len(policy) == 8
    assert true_pareto_front(one_dp_instance) == [
        (5.0, -1.0, -4.0, SQRT2)
    ]


def test_raw_enumeration_is_superset(one_dp_instance):
    raw = list(enumerate_feasible(one_dp_instance, policy_matched=False))
    assert len(raw) == 993
    policy_vecs = {
        tuple(v) for _, v in enumerate_feasible(one_dp_instance)
    }
    raw_vecs = {tuple(v) for _, v in raw}
    assert policy_vecs <= raw_vecs
    # without the builder's conventions the empty plan and coverage-less
    # installations become admissible, widening the front
    front = true_pareto_front(one_dp_instance, policy_matched=False)
    assert (0.0, -0.0, -0.0, 0.0) in front
    assert (5.0, -1.0, -4.0, SQRT2) in front
    assert len(front) == 3


def test_enumeration_includes_only_feasible(one_dp_instance):
    for sol, vec in enumerate_feasible(one_dp_instance, policy_matched=False):
        assert_feasible(sol, one_dp_instance)


def test_guard_refuses_large_instances():
    big = build_grid_instance(3, 3, n_dps=4, radio=RadioParams(), seed=0)
    with pytest.raises(GuardError):
        list(enumerate_feasible(big))
    many_dps = build_grid_instance(
        2, 3, n_dps=9, radio=RadioParams(radios=2, channels=3), seed=0
    )
    with pytest.raises(GuardError):
        list(enumerate_feasible(many_dps))


def test_enumeration_limit(toy_instance):
    with pytest.raises(EnumerationLimitError):
        list(enumerate_feasible(toy_instance, limit=3))


def test_front_is_mutually_nondominated(toy_instance):
    from meshplan.model import dominates

    front = true_pareto_front(toy_instance, variant="lglb")
    for u in front:
        for v in front:
            if u != v:
                assert not dominates(np.array(u), np.array(v))
    assert front == sorted(front)


def test_verify_archive_gradings():
    truth = [(2.0, -4.0), (3.0, -6.0)]
    exact = verify_archive([(2.0, -4.0), (3.0, -6.0)], truth)
    assert exact["on_front_fraction"] == 1.0
    assert exact["front_coverage_fraction"] == 1.0
    assert exact["violations"] == []

    partial = verify_archive([(2.0, -4.0)], truth)
    assert partial["on_front_fraction"] == 1.0
    assert partial["front_coverage_fraction"] == 0.5

    dominated = verify_archive([(2.0, -4.0), (4.0, -6.0)], truth)
    assert dominated["on_front_fraction"] == 0.5
    assert dominated["violations"] == [(4.0, -6.0)]

    empty = verify_archive([], truth)
    assert empty["on_front_fraction"] == 1.0
    assert empty["front_coverage_fraction"] == 0.0


def test_verify_archive_dimension_mismatch():
    with pytest.raises(ValueError):
        verify_archive([(1.0, 2.0)], [(1.0, 2.0, 3.0)])


def test_verify_archive_accepts_archive_object(toy_instance):
    from meshplan.mopso import MopsoConfig, run

    result = run(toy_instance, MopsoConfig(swarm_size=8, gmax=6, seed=1))
    report = verify_archive(
        result.archive.objectives_matrix(), true_pareto_front(toy_instance)
    )
    assert report["on_front_fraction"] == 1.0
    assert report["front_coverage_fraction"] == 1.0
