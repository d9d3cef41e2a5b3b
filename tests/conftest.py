import dataclasses
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from meshplan.instance import (
    PlanningInstance,
    RadioParams,
    build_grid_instance,
    load_instance,
)
from meshplan.model import FEAS_TOL, Solution, check_constraints

FIXTURES = Path(__file__).parent / "fixtures"

#: Every array of a Solution, in field order.
PLAN_ARRAYS = ("ap", "relay", "gateway", "x", "w", "links", "L", "f", "F")


@pytest.fixture(scope="session")
def standard_instance():
    """The reference 6x6 scenario: 200 demand points at 2 Mb/s each."""
    return build_grid_instance(6, 6, n_dps=200, radio=RadioParams(), seed=0)


@pytest.fixture(scope="session")
def toy_instance():
    """The committed 4-site toy small enough for exhaustive enumeration."""
    return load_instance(FIXTURES / "toy2x2_instance.json")


def make_verify2x3_instance():
    """The instance of the verify2x3 benchmark workload."""
    return build_grid_instance(
        2, 3, 6, RadioParams(radios=2, channels=3, capacity=8.0), 4,
        coverage_radius=0.8,
    )


@pytest.fixture(scope="session")
def verify2x3_instance():
    return make_verify2x3_instance()


@st.composite
def planning_cases(draw):
    """A small grid instance, a gateway count (None: automatic) and a seed."""
    radios = draw(st.integers(2, 4))
    radio = RadioParams(
        radios=radios,
        channels=draw(st.integers(radios, 6)),
        capacity=draw(st.sampled_from([6.0, 12.0, 54.0])),
    )
    inst = build_grid_instance(
        draw(st.integers(2, 4)), draw(st.integers(2, 4)),
        n_dps=draw(st.integers(1, 30)), radio=radio, seed=draw(st.integers(0, 999)),
        random_matrix_density=draw(st.sampled_from([None, None, 0.5, 0.75, 1.0])),
    )
    return inst, draw(st.sampled_from([None, 1, 2, 3])), draw(st.integers(0, 999))


@st.composite
def mixed_traffic_cases(draw):
    """Like `planning_cases`, with each DP's traffic drawn from a few values.

    Grid instances give every DP the same traffic; access point placement
    counts, per site, the DPs whose own traffic still fits, so it needs
    instances where that differs from DP to DP. Some values exceed the
    smallest capacity, so some DPs fit no site.
    """
    inst, gateway_count, seed = draw(planning_cases())
    traffic = np.array(draw(st.lists(
        st.sampled_from([0.1, 0.7, 2.0, 4.5, 7.0]),
        min_size=inst.num_dps, max_size=inst.num_dps,
    )))
    inst = dataclasses.replace(
        inst, dp_traffic=traffic, M=inst.num_dps * float(traffic.max()),
    )
    return inst, gateway_count, seed


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_line_instance(n_sites: int, dp_sites=(0,), traffic=2.0, **overrides):
    """Sites in a row at unit spacing; one demand point on each listed site."""
    sites = np.array([(float(j), 0.0) for j in range(n_sites)])
    dp_positions = np.array([sites[j] for j in dp_sites], dtype=np.float64)
    params = dict(
        rows=1,
        cols=n_sites,
        spacing=1.0,
        sites=sites,
        dp_positions=dp_positions,
        dp_traffic=np.full(len(dp_sites), traffic),
        coverage_radius=0.3,
        backbone_range=1.0,
        R=2,
        K=2,
        C_max=54.0,
        A=3,
        M=1000.0,
        seed=0,
    )
    params.update(overrides)
    return PlanningInstance(**params)


def make_square_instance(dp_sites=(0,), traffic=2.0, **overrides):
    """A 2x2 unit square: backbone is the 4-cycle 0-1-3-2-0."""
    sites = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    dp_positions = np.array([sites[j] for j in dp_sites], dtype=np.float64)
    params = dict(
        rows=2,
        cols=2,
        spacing=1.0,
        sites=sites,
        dp_positions=dp_positions,
        dp_traffic=np.full(len(dp_sites), traffic),
        coverage_radius=0.3,
        backbone_range=1.0,
        R=2,
        K=2,
        C_max=54.0,
        A=3,
        M=1000.0,
        seed=0,
    )
    params.update(overrides)
    return PlanningInstance(**params)


def dense(solution: Solution):
    """The link table as (s, s, K) L and f tensors, for reading."""
    s, K = solution.num_sites, solution.w.shape[1]
    L = np.zeros((s, s, K), dtype=np.uint8)
    f = np.zeros((s, s, K), dtype=np.float64)
    L[tuple(solution.links.T)] = solution.L
    f[tuple(solution.links.T)] = solution.f
    return L, f


@contextmanager
def dense_links(solution: Solution):
    """Edit the link table through dense (s, s, K) L and f tensors.

    Poke the yielded tensors by (j, l, k) index; on exit the table is
    rebuilt from every nonzero entry.
    """
    L, f = dense(solution)
    yield L, f
    j, l, k = np.nonzero((L != 0) | (f != 0))
    solution.set_links(zip(j.tolist(), l.tolist(), k.tolist(),
                           L[j, l, k].tolist(), f[j, l, k].tolist()))


def assert_flow_conserved(solution: Solution, instance: PlanningInstance):
    """Canonical per-node balance and total-throughput identity, both at 1e-9."""
    loads = solution.site_loads(instance)
    _, f = dense(solution)
    inflow = f.sum(axis=(0, 2))
    outflow = f.sum(axis=(1, 2))
    residual = loads + inflow - outflow - solution.F
    assert np.abs(residual).max() <= FEAS_TOL
    assert abs(solution.F.sum() - loads.sum()) <= FEAS_TOL


def assert_same_plan(got, want, names=PLAN_ARRAYS):
    """The named arrays of two plans agree in dtype, shape and bytes."""
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def assert_feasible(solution: Solution, instance: PlanningInstance):
    report = check_constraints(solution, instance)
    assert report.feasible, [c.id for c in report.failed()]
    assert_flow_conserved(solution, instance)
