"""The link table against dense (s, s, K) tensors.

`Solution` stores links and flows as a sorted table. These tests hold it to
the dense tensors it replaces: `set_links` must act like index assignment on
zeroed tensors, and `check_constraints` must report exactly the violations
of the dense checks below, which are the tensor form of C3-C7 and C10-C15
kept as the reference.

The table sums a node's flows in row order while the dense reference sums in
numpy's pairwise order, so with arbitrary floats the two C11 residuals can
differ in the last bits. The exact comparison therefore draws dyadic flows,
throughputs and traffic (multiples of 2**-30 below 2**11), whose sums are
exact in any order; a second test draws arbitrary flows and allows C11 to
differ only where a residual lies within summation rounding of the
tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, dense_links
from meshplan.instance import PlanningInstance, connectivity_matrix
from meshplan.kernels import UNREACHABLE
from meshplan.model import (
    FEAS_TOL,
    Solution,
    check_constraints,
    solution_from_dict,
    solution_to_dict,
)

TINY = 2.0 ** -30  # just under FEAS_TOL
SMALL = 2.0 ** -29  # just over FEAS_TOL
FLOWS = [-1.0, -SMALL, -TINY, TINY, SMALL, 0.5, 2.0, 4.0, 55.0, 1024.0]
THROUGHPUTS = [-0.5, -TINY, 0.0, TINY, 2.0, 6.0, 1025.0]
SHAPES = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (3, 2)]


def _where(mask):
    return [tuple(row) for row in np.argwhere(mask).tolist()]


def dense_capacities(instance):
    """(s, s, K) capacities: C_max, with each override in both directions."""
    s = instance.num_sites
    caps = np.full((s, s, instance.K), instance.C_max)
    for j, l, k, value in instance.capacity_overrides:
        caps[j, l, k] = caps[l, j, k] = value
    return caps


def dense_reference(sol, L, f, instance, tol=FEAS_TOL):
    """C3-C7 and C10-C15 over dense L and f tensors, id -> violations."""
    b = connectivity_matrix(instance)
    caps = dense_capacities(instance)
    z, w, F = sol.z, sol.w, sol.F
    loads = sol.site_loads(instance)
    out_per_channel = L.sum(axis=1)
    in_per_channel = L.sum(axis=0)
    incident = out_per_channel.sum(axis=1) + in_per_channel.sum(axis=1)
    found = {
        "C3": _where(incident > instance.R),
        "C4": _where(L.sum(axis=2) > instance.K),
        "C5": _where(out_per_channel > 1),
        "C6": _where(out_per_channel + in_per_channel > 1),
    }
    j, l, k = np.indices(L.shape)
    rhs = b[j, l] * (w[j, k] + w[l, k])
    found["C7"] = _where(2 * L.astype(np.int64) > rhs)
    found["C10"] = _where((f > tol) & (f > L * caps + tol))
    residual = loads + f.sum(axis=(0, 2)) - f.sum(axis=(1, 2)) - F
    found["C11"] = _where(np.abs(residual) > tol)
    demand_sites = np.flatnonzero(loads > tol)
    gateways = np.flatnonzero(sol.gateway == 1)
    bad = []
    if len(demand_sites) > 0:
        if len(gateways) == 0:
            bad = [(v,) for v in demand_sites.tolist()]
        else:
            adj = (L != 0).any(axis=2)
            adj = adj | adj.T
            hops = np.full((len(gateways), instance.num_sites), UNREACHABLE)
            hops[np.arange(len(gateways)), gateways] = 0
            frontier = hops == 0
            for depth in range(1, instance.A + 1):  # dense frontier expansion
                frontier = (frontier @ adj) & (hops == UNREACHABLE)
                hops[frontier] = depth
            near = (hops[:, demand_sites] != UNREACHABLE).any(axis=0)
            bad = [(v,) for v in demand_sites[~near].tolist()]
    found["C12"] = bad
    found["C13"] = _where(F > instance.M * sol.gateway + tol)
    found["C14"] = _where((z == 1) & (incident < 2))
    bad = []
    for name, arr in (
        ("ap", sol.ap), ("relay", sol.relay), ("gateway", sol.gateway),
        ("x", sol.x), ("w", w), ("L", L),
    ):
        bad.extend((name, *idx) for idx in _where(arr > 1))
    for name, arr in (("f", f), ("F", F)):
        bad.extend((name, *idx) for idx in _where(arr < -tol))
    found["C15"] = bad
    return found


def _grid(rows, cols, K, R, dp_sites, overrides):
    sites = np.array(
        [(float(c), float(r)) for r in range(rows) for c in range(cols)]
    )
    return PlanningInstance(
        rows=rows, cols=cols, spacing=1.0, sites=sites,
        dp_positions=np.array([sites[j] for j in dp_sites]).reshape(-1, 2),
        dp_traffic=np.full(len(dp_sites), 2.0),
        coverage_radius=0.3, backbone_range=1.0, R=R, K=K,
        C_max=54.0, A=2, M=1000.0, seed=0, capacity_overrides=overrides,
    )


def _keys(draw, s, K, size):
    key = st.tuples(
        st.integers(0, s - 1), st.integers(0, s - 1), st.integers(0, K - 1)
    )
    return draw(st.lists(key, max_size=size))


@st.composite
def perturbed_plans(draw, flows=st.sampled_from(FLOWS),
                    throughputs=st.sampled_from(THROUGHPUTS)):
    """A small instance and a plan with arbitrary links, flows, w and F."""
    rows, cols = draw(st.sampled_from(SHAPES))
    s = rows * cols
    K = draw(st.integers(1, 3))
    R = draw(st.integers(1, K))
    dp_sites = draw(st.lists(st.integers(0, s - 1), max_size=4))
    overrides = tuple(
        (j, l, k, draw(st.sampled_from([1.0, 4.0])))
        for j, l, k in _keys(draw, s, K, 2)
    )
    inst = _grid(rows, cols, K, R, dp_sites, overrides)
    sol = Solution.empty(inst)
    bits = st.integers(0, 1)
    for name in ("ap", "relay", "gateway"):
        getattr(sol, name)[:] = draw(st.lists(bits, min_size=s, max_size=s))
    for i in range(len(dp_sites)):
        sol.x[i, :] = draw(st.lists(bits, min_size=s, max_size=s))
    sol.w[:] = np.array(
        draw(st.lists(st.integers(0, 2), min_size=s * K, max_size=s * K))
    ).reshape(s, K)
    sol.F[:] = draw(st.lists(throughputs, min_size=s, max_size=s))
    L = np.zeros((s, s, K), dtype=np.uint8)
    f = np.zeros((s, s, K), dtype=np.float64)
    for key in _keys(draw, s, K, 12):
        L[key] = draw(st.integers(0, 2))
    for key in _keys(draw, s, K, 12):
        f[key] = draw(flows)
    with dense_links(sol) as (table_L, table_f):
        table_L[:] = L
        table_f[:] = f
    return inst, sol, L, f


def _assert_canonical(sol):
    codes = [tuple(row) for row in sol.links.tolist()]
    assert codes == sorted(set(codes))
    assert sol.links.dtype == np.int64 and sol.links.shape == (len(sol.L), 3)
    assert np.all((sol.L != 0) | (sol.f != 0))


@settings(max_examples=300, deadline=None)
@given(perturbed_plans())
def test_checks_match_dense_reference(case):
    inst, sol, L, f = case
    _assert_canonical(sol)
    table_L, table_f = dense(sol)
    assert np.array_equal(table_L, L) and np.array_equal(table_f, f)
    report = check_constraints(sol, inst)
    expected = dense_reference(sol, L, f, inst)
    for check in report.checks:
        if check.id in expected:
            assert check.violations == expected[check.id], check.id
            assert check.satisfied == (not expected[check.id])


@settings(max_examples=200, deadline=None)
@given(perturbed_plans(st.floats(-64.0, 64.0), st.floats(-64.0, 64.0)))
def test_c11_matches_dense_reference_up_to_rounding(case):
    """With any flows, C11 differs from the dense check only at residuals
    within summation rounding of the tolerance."""
    inst, sol, L, f = case
    loads = sol.site_loads(inst)
    residual = loads + f.sum(axis=(0, 2)) - f.sum(axis=(1, 2)) - sol.F
    magnitude = loads + np.abs(f).sum(axis=(0, 2)) + np.abs(f).sum(axis=(1, 2))
    magnitude += np.abs(sol.F)
    rounding = 64 * np.finfo(np.float64).eps * magnitude
    edge = set(np.flatnonzero(np.abs(np.abs(residual) - FEAS_TOL) <= rounding).tolist())
    report = check_constraints(sol, inst)
    got = {v for (v,) in next(c for c in report.checks if c.id == "C11").violations}
    expected = {v for (v,) in dense_reference(sol, L, f, inst)["C11"]}
    assert got ^ expected <= edge


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_set_links_is_dense_assignment(data):
    s = data.draw(st.integers(1, 5))
    K = data.draw(st.integers(1, 3))
    sol = Solution.empty(_grid(1, s, K, 1, (), ()))
    for _ in range(data.draw(st.integers(1, 4))):
        # each call replaces the table left by the one before
        L = np.zeros((s, s, K), dtype=np.uint8)
        f = np.zeros((s, s, K), dtype=np.float64)
        keys = _keys(data.draw, s, K, 6)
        L_values = [data.draw(st.integers(0, 2)) for _ in keys]
        f_values = [data.draw(st.sampled_from(FLOWS + [0.0])) for _ in keys]
        sol.set_links(
            (*key, lv, fv) for key, lv, fv in zip(keys, L_values, f_values)
        )
        for key, lv, fv in zip(keys, L_values, f_values):
            L[key], f[key] = lv, fv
        _assert_canonical(sol)
        table_L, table_f = dense(sol)
        assert np.array_equal(table_L, L) and np.array_equal(table_f, f)


def test_set_links_rejects_keys_outside_the_solution():
    sol = Solution.empty(_grid(1, 3, 2, 1, (), ()))
    for key in ((-1, 0, 0), (0, 3, 0), (0, 1, 2)):
        with pytest.raises(ValueError):
            sol.set_links([(*key, 1, 0.0)])


def test_solution_dict_round_trip_keeps_the_table():
    sol = Solution.empty(_grid(1, 3, 2, 2, (0,), ()))
    sol.ap[0] = sol.relay[1] = sol.relay[2] = sol.gateway[2] = 1
    sol.x[0, 0] = 1
    sol.w[:, 0] = 1
    sol.F[2] = 2.0
    # a flowing link, an idle link, and flow on a pair with no link
    sol.set_links([(1, 2, 0, 1, 2.0), (0, 1, 0, 1, 0.0), (2, 0, 1, 0, 1.5)])
    data = solution_to_dict(sol)
    loaded = solution_from_dict(data)
    assert loaded.links.tolist() == [[0, 1, 0], [1, 2, 0], [2, 0, 1]]
    assert loaded.L.tolist() == [1, 1, 0]
    assert loaded.f.tolist() == [0.0, 2.0, 1.5]
    assert solution_to_dict(loaded) == data
