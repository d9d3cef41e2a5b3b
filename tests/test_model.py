import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings

from conftest import (
    PLAN_ARRAYS,
    dense_links,
    make_line_instance,
    make_square_instance,
    planning_cases,
)
from meshplan.construct import ConstructionInfeasibleError, construct_feasible
from meshplan.model import (
    FEAS_TOL,
    Solution,
    SolutionFormatError,
    VARIANTS,
    check_constraints,
    dominates,
    evaluate,
    evaluate_cost,
    evaluate_coverage,
    evaluate_gateway_balance,
    evaluate_link_balance,
    parse_variant,
    solution_from_dict,
    solution_metrics,
    solution_to_dict,
)


@pytest.fixture
def feasible(standard_instance, rng):
    return construct_feasible(standard_instance, rng)


def _failed_ids(solution, instance):
    return {c.id for c in check_constraints(solution, instance).failed()}


def test_gateway_balance_even_split():
    inst = make_square_instance()
    sol = Solution.empty(inst)
    sol.F[0] = 10.0
    sol.F[1] = 10.0
    assert evaluate_gateway_balance(sol) == pytest.approx(
        math.sqrt(10.0), abs=1e-12
    )


def test_gateway_balance_concentrated():
    inst = make_square_instance()
    sol = Solution.empty(inst)
    sol.F[0] = 20.0
    assert evaluate_gateway_balance(sol) == pytest.approx(
        math.sqrt(20.0), abs=1e-12
    )


def test_gateway_balance_idle_network():
    sol = Solution.empty(make_square_instance())
    assert evaluate_gateway_balance(sol) == 0.0


def test_cost_counts_roles_and_gateway_flags():
    inst = make_line_instance(6)
    sol = Solution.empty(inst)
    sol.ap[:3] = 1
    sol.relay[3:5] = 1
    sol.gateway[0] = 1
    assert evaluate_cost(sol) == 6.0


def test_coverage_modes_differ():
    inst = make_square_instance(dp_sites=(0, 1))
    sol = Solution.empty(inst)
    sol.ap[0] = 1
    sol.relay[1] = 1
    sol.x[0, 0] = 1
    assert evaluate_coverage(sol, inst, "assigned") == 1.0
    # literal form counts DP/site coverage pairs against relay flags only
    assert evaluate_coverage(sol, inst, "literal") == 1.0
    with pytest.raises(ValueError):
        evaluate_coverage(sol, inst, "bogus")


def test_link_balance_minimum_residual():
    inst = make_square_instance(capacity_overrides=((0, 1, 0, 10.0),))
    sol = Solution.empty(inst)
    with dense_links(sol) as (L, f):
        L[0, 1, 0] = 1
        L[1, 3, 1] = 1
        f[0, 1, 0] = 4.0
    assert evaluate_link_balance(sol, inst) == pytest.approx(6.0)
    assert evaluate_link_balance(Solution.empty(inst), inst) == 0.0


def test_evaluate_vector_layout_per_variant(feasible, standard_instance):
    # `feasible` has residual 0, which reads the same under either sign
    spare = construct_feasible(standard_instance, np.random.default_rng(2))
    assert evaluate_link_balance(spare, standard_instance) == 10.0
    for plan, mode in itertools.product((feasible, spare), ("assigned", "literal")):
        full = evaluate(plan, standard_instance, "lglb", mode)
        assert full.shape == (4,)
        assert full[0] == evaluate_cost(plan)
        assert full[1] == -evaluate_coverage(plan, standard_instance, mode)
        assert full[2] == -evaluate_link_balance(plan, standard_instance)
        assert full[3] == evaluate_gateway_balance(plan)
        assert np.array_equal(evaluate(plan, standard_instance, "cov", mode), full[:2])
        assert np.array_equal(evaluate(plan, standard_instance, "llb", mode), full[:3])
        glb = evaluate(plan, standard_instance, "glb", mode)
        assert np.array_equal(glb, full[[0, 1, 3]])


def test_parse_variant():
    assert parse_variant(" LGLB ") == "lglb"
    assert set(VARIANTS) == {"cov", "llb", "glb", "lglb"}
    with pytest.raises(ValueError):
        parse_variant("nope")


def test_dominates_strictness():
    assert dominates([1.0, 2.0], [2.0, 2.0])
    assert not dominates([1.0, 2.0], [1.0, 2.0])
    assert not dominates([1.0, 3.0], [2.0, 2.0])
    with pytest.raises(ValueError):
        dominates([1.0], [1.0, 2.0])


def test_dominates_matches_bruteforce(rng):
    for _ in range(200):
        u = rng.integers(0, 3, size=4).astype(float)
        v = rng.integers(0, 3, size=4).astype(float)
        expected = all(a <= b for a, b in zip(u, v)) and any(
            a < b for a, b in zip(u, v)
        )
        assert dominates(u, v) == expected
        assert not (dominates(u, v) and dominates(v, u))


def test_constructed_solution_passes_all_checks(feasible, standard_instance):
    report = check_constraints(feasible, standard_instance)
    assert report.feasible
    assert len(report.checks) == 15
    assert [c.id for c in report.checks] == [f"C{i}" for i in range(1, 16)]


def test_double_assignment_fails_c1(feasible, standard_instance):
    bad = feasible.copy()
    i = int(np.argmax(bad.x.sum(axis=1) == 1))
    j = int(np.argmax(bad.x[i]))
    other = [l for l in np.flatnonzero(bad.z) if l != j][0]
    bad.x[i, other] = 1
    assert "C1" in _failed_ids(bad, standard_instance)


def test_uncovered_assignment_fails_c2(standard_instance, feasible):
    from meshplan.instance import coverage_matrix

    bad = feasible.copy()
    a = coverage_matrix(standard_instance)
    j = int(np.argmax(a[0] == 0))
    bad.x[0, j] = 1
    assert "C2" in _failed_ids(bad, standard_instance)


def test_radio_budget_fails_c3(feasible, standard_instance):
    bad = feasible.copy()
    j = int(np.argmax(bad.z))
    with dense_links(bad) as (L, _):
        L[j, :, :] = 1
    assert "C3" in _failed_ids(bad, standard_instance)


def test_channel_reuse_fails_c5_and_c6(feasible, standard_instance):
    bad = feasible.copy()
    with dense_links(bad) as (L, _):
        L[0, 1, 0] = 1
        L[0, 2, 0] = 1
    ids = _failed_ids(bad, standard_instance)
    assert "C5" in ids
    worse = feasible.copy()
    with dense_links(worse) as (L, _):
        L[0, 1, 0] = 1
        L[2, 0, 0] = 1
    assert "C6" in _failed_ids(worse, standard_instance)


def test_link_without_range_fails_c7(feasible, standard_instance):
    bad = feasible.copy()
    with dense_links(bad) as (L, _):
        L[0, 35, 0] = 1
    assert "C7" in _failed_ids(bad, standard_instance)


def test_channel_budget_fails_c8(feasible, standard_instance):
    bad = feasible.copy()
    j = int(np.argmax(bad.z))
    bad.w[j, :4] = 1
    assert "C8" in _failed_ids(bad, standard_instance)


def test_access_overload_fails_c9():
    inst = make_square_instance(dp_sites=(0, 0), traffic=3.0, C_max=4.0)
    sol = Solution.empty(inst)
    sol.ap[0] = 1
    sol.x[0, 0] = 1
    sol.x[1, 0] = 1
    assert "C9" in _failed_ids(sol, inst)


def test_capacity_and_conservation_fail_c10_c11(feasible, standard_instance):
    bad = feasible.copy()
    j, l, k = bad.link_list()[0]
    with dense_links(bad) as (_, f):
        f[j, l, k] = standard_instance.C_max + 1.0
    ids = _failed_ids(bad, standard_instance)
    assert "C10" in ids and "C11" in ids


def test_hop_bound_fails_c12():
    inst = make_line_instance(6, dp_sites=(0,), A=3)
    sol = Solution.empty(inst)
    sol.ap[0] = 1
    sol.relay[1:] = 1
    sol.gateway[5] = 1
    sol.x[0, 0] = 1
    with dense_links(sol) as (L, _):
        for j in range(5):
            L[j, j + 1, j % 2] = 1
    assert "C12" in _failed_ids(sol, inst)


def _violations(solution, instance, cid):
    report = check_constraints(solution, instance)
    return next(c.violations for c in report.checks if c.id == cid)


def _line_backbone(n_sites=4, **overrides):
    """All sites installed relays; links j-(j+1) on channel j % 2, channels active."""
    inst = make_line_instance(n_sites, **overrides)
    sol = Solution.empty(inst)
    sol.relay[:] = 1
    with dense_links(sol) as (L, _):
        for j in range(n_sites - 1):
            L[j, j + 1, j % 2] = 1
    for j in range(n_sites - 1):
        sol.w[j, j % 2] = sol.w[j + 1, j % 2] = 1
    return inst, sol


def test_c7_violations_exact():
    inst, sol = _line_backbone()
    with dense_links(sol) as (L, _):
        L[0, 2, 0] = 1  # out of backbone range
        L[1, 2, 1] = 0
        L[2, 1, 1] = 1  # in range, channel 1 inactive at both ends
    sol.w[1, 1] = sol.w[2, 1] = 0
    assert _violations(sol, inst, "C7") == [(0, 2, 0), (2, 1, 1)]


def test_c10_c11_violations_exact():
    inst, sol = _line_backbone()
    with dense_links(sol) as (_, f):
        f[0, 1, 0] = inst.C_max + 1.0  # established link, over capacity
        f[3, 2, 0] = 1.0  # no link (3, 2, 0) established
    assert _violations(sol, inst, "C10") == [(0, 1, 0), (3, 2, 0)]
    assert _violations(sol, inst, "C11") == [(0,), (1,), (2,), (3,)]


def test_c10_tolerates_flow_within_tol_on_missing_link():
    inst, sol = _line_backbone()
    with dense_links(sol) as (_, f):
        f[3, 2, 0] = FEAS_TOL
    assert _violations(sol, inst, "C10") == []


@pytest.mark.parametrize("gateway", [1, 2, 3, 4, 5])
def test_c12_violations_exact_at_hop_bound(gateway):
    inst = make_line_instance(6, dp_sites=(0,), A=3)
    sol = Solution.empty(inst)
    sol.ap[0] = 1
    sol.relay[1:] = 1
    sol.gateway[gateway] = 1
    sol.x[0, 0] = 1
    with dense_links(sol) as (L, _):
        for j in range(5):
            L[j, j + 1, j % 2] = 1
    expected = [(0,)] if gateway > inst.A else []
    assert _violations(sol, inst, "C12") == expected


def test_c12_without_gateway_lists_every_demand_site():
    inst = make_line_instance(4, dp_sites=(0, 2))
    sol = Solution.empty(inst)
    sol.ap[[0, 2]] = 1
    sol.x[0, 0] = sol.x[1, 2] = 1
    assert _violations(sol, inst, "C12") == [(0,), (2,)]


def test_c15_violations_exact():
    inst, sol = _line_backbone()
    with dense_links(sol) as (L, f):
        L[1, 2, 1] = 2
        f[2, 3, 0] = -1.0
    sol.F[1] = -0.5
    assert _violations(sol, inst, "C15") == [
        ("L", 1, 2, 1), ("f", 2, 3, 0), ("F", 1),
    ]


def test_violation_indices_are_python_ints():
    inst, sol = _line_backbone()
    with dense_links(sol) as (L, f):
        L[0, 2, 0] = 1
        f[3, 2, 0] = 1.0
    for cid in ("C7", "C10", "C11"):
        for v in _violations(sol, inst, cid):
            assert all(type(i) is int for i in v)


def test_rogue_throughput_fails_c13(feasible, standard_instance):
    bad = feasible.copy()
    j = int(np.argmax(bad.gateway == 0))
    bad.F[j] = 1.0
    assert "C13" in _failed_ids(bad, standard_instance)


def test_lonely_node_fails_c14():
    inst = make_square_instance()
    sol = Solution.empty(inst)
    sol.relay[0] = 1
    assert "C14" in _failed_ids(sol, inst)


def test_domain_violations_fail_c15(feasible, standard_instance):
    bad = feasible.copy()
    bad.ap[0] = 2
    assert "C15" in _failed_ids(bad, standard_instance)
    neg = feasible.copy()
    with dense_links(neg) as (_, f):
        f[0, 1, 0] = -1.0
    assert "C15" in _failed_ids(neg, standard_instance)


def test_metrics_dict_keys(feasible, standard_instance):
    metrics = solution_metrics(feasible, standard_instance)
    assert set(metrics) == {
        "aps", "relays", "gateways", "total",
        "coverage", "link_residual", "gateway_balance",
    }
    assert metrics["total"] == metrics["aps"] + metrics["relays"] + metrics["gateways"]


def test_solution_round_trip(feasible, standard_instance):
    loaded = solution_from_dict(json.loads(json.dumps(solution_to_dict(feasible))))
    for name in ("ap", "relay", "gateway", "x", "w", "links", "L"):
        assert np.array_equal(getattr(loaded, name), getattr(feasible, name))
    assert np.allclose(loaded.f, feasible.f)
    assert np.allclose(loaded.F, feasible.F)
    assert check_constraints(loaded, standard_instance).feasible


@settings(max_examples=60, deadline=None)
@given(planning_cases())
def test_random_plans_round_trip_through_json(case):
    inst, gateway_count, seed = case
    try:
        plan = construct_feasible(
            inst, np.random.default_rng(seed), max_retries=20,
            gateway_count=gateway_count,
        )
    except ConstructionInfeasibleError:
        assume(False)
    loaded = solution_from_dict(json.loads(json.dumps(solution_to_dict(plan))))
    for name in PLAN_ARRAYS:
        want, got = getattr(plan, name), getattr(loaded, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


def test_solution_from_dict_rejects_bad_version(feasible):
    data = solution_to_dict(feasible)
    data["version"] = 0
    with pytest.raises(ValueError):
        solution_from_dict(data)


@pytest.mark.parametrize("key, entry", [
    ("links", [-1, 0, 0]),
    ("links", [0, 36, 0]),
    ("links", [0, 1, 11]),
    ("flows", [0, -1, 0, 1.0]),
    ("x", [-1, -1]),
    ("x", [0, 36]),
    ("w", [-1, 0]),
    ("w", [0, 11]),
    ("F", [-1, 1.0]),
    ("gateway", -1),
    ("ap", 36),
])
def test_solution_from_dict_rejects_out_of_range_indices(feasible, key, entry):
    data = solution_to_dict(feasible)
    data[key].append(entry)
    with pytest.raises(SolutionFormatError, match="out of range"):
        solution_from_dict(data)


def _gateway_off_network(data):
    # uninstall an access point, but keep a gateway flag on its site
    site = data["ap"][0]
    data["ap"].remove(site)
    data["z"].remove(site)
    data["gateway"].append(site)


@pytest.mark.parametrize("edit, message", [
    (lambda data: data["z"].pop(), "installed-site list disagrees with roles"),
    (lambda data: data["relay"].append(data["ap"][0]), "both access point and relay"),
    (_gateway_off_network, "gateway flag on a site that is not installed"),
], ids=["installed-list", "ap-and-relay", "gateway-not-installed"])
def test_solution_from_dict_rejects_inconsistent_roles(feasible, edit, message):
    data = solution_to_dict(feasible)
    edit(data)
    with pytest.raises(SolutionFormatError, match=message):
        solution_from_dict(data)


@pytest.mark.parametrize("z", [None, 5])
def test_solution_from_dict_rejects_malformed_installed_list(feasible, z):
    data = solution_to_dict(feasible)
    if z is None:
        del data["z"]
    else:
        data["z"] = z
    with pytest.raises(SolutionFormatError, match="malformed solution data"):
        solution_from_dict(data)
