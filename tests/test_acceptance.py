"""End-to-end acceptance gate.

Each test covers one published acceptance criterion and finishes with a
single PASS line naming it, so a verbose run reads as a checklist. The
heavyweight runs live in module fixtures and are shared between criteria.
"""

import csv
import math
import time

import numpy as np
import pytest

from conftest import FIXTURES, dense
from meshplan.cli import main
from meshplan.construct import construct_feasible, place_relays
from meshplan.instance import RadioParams, build_grid_instance
from meshplan.model import (
    FEAS_TOL,
    Solution,
    check_constraints,
    dominates,
    evaluate_cost,
    evaluate_gateway_balance,
)
from meshplan.mopso import MopsoConfig, run
from meshplan.oracle import enumerate_feasible

TOY = str(FIXTURES / "toy2x2_instance.json")

# every feasible solution a fixture produces lands here for criterion 9
PRODUCED = []


@pytest.fixture(scope="module")
def standard():
    return build_grid_instance(6, 6, n_dps=200, radio=RadioParams(), seed=0)


@pytest.fixture(scope="module")
def constructions(standard):
    t0 = time.perf_counter()
    sols = [
        construct_feasible(standard, np.random.default_rng(seed))
        for seed in range(100)
    ]
    elapsed = time.perf_counter() - t0
    PRODUCED.extend((sol, standard) for sol in sols)
    return sols, elapsed


@pytest.fixture(scope="module")
def full_run(standard):
    config = MopsoConfig(swarm_size=50, gmax=100, mut=0.1, seed=0)
    t0 = time.perf_counter()
    result = run(standard, config)
    elapsed = time.perf_counter() - t0
    PRODUCED.extend((e.solution, standard) for e in result.archive.entries)
    PRODUCED.append((result.incumbent, standard))
    return result, elapsed


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _spearman_of_means(means):
    ranks = np.argsort(np.argsort(means))
    expected = np.arange(len(means))
    d2 = float(((ranks - expected) ** 2).sum())
    n = len(means)
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def test_criterion_01_construction_feasibility(standard, constructions):
    sols, elapsed = constructions
    reports = [check_constraints(sol, standard) for sol in sols]
    feasible = sum(1 for r in reports if r.feasible)
    assert feasible == 100, [
        c.id for r in reports for c in r.failed()
    ]
    assert elapsed < 30.0
    print(f"PASS criterion 1: 100/100 constructions feasible in {elapsed:.1f}s")


def test_criterion_02_archive_soundness(standard, full_run):
    result, elapsed = full_run
    assert elapsed < 120.0
    entries = result.archive.entries
    assert entries
    for entry in entries:
        assert check_constraints(entry.solution, standard).feasible
    vecs = [e.objectives for e in entries]
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            if i != j:
                assert not dominates(u, v)
    print(
        f"PASS criterion 2: {len(entries)} archived solutions feasible and "
        f"mutually non-dominated in {elapsed:.1f}s"
    )


def test_criterion_03_oracle_equivalence(tmp_path, capsys):
    for seed in range(5):
        t0 = time.perf_counter()
        code = main([
            "verify", "--instance", TOY, "--swarm", "20", "--gmax", "30",
            "--seed", str(seed), "--threshold", "0.8",
        ])
        elapsed = time.perf_counter() - t0
        printed = capsys.readouterr().out
        assert code == 0, printed
        assert "on_front_fraction: 1" in printed
        assert "verdict: pass" in printed
        assert elapsed < 60.0
    print("PASS criterion 3: verify passes on the toy fixture for seeds 0-4")


def test_criterion_04_relay_neighborhoods(standard):
    cases = {0: 2, 3: 3, 7: 4}
    for site, expected in cases.items():
        lone = Solution.empty(standard)
        lone.ap[site] = 1
        grown = place_relays(lone, standard)
        assert int(grown.relay.sum()) == expected, (site, expected)
    print("PASS criterion 4: lone-AP relay counts are 2/3/4 by grid position")


def test_criterion_05_grid_size_trend(tmp_path):
    out = tmp_path / "grid_sweep"
    code = main([
        "sweep", "--axis", "grid", "--values", "6x6,7x7,8x8,10x10",
        "--reps", "10", "--swarm", "10", "--gmax", "10",
        "--gateways", "20", "--seed", "100", "--out", str(out),
    ])
    assert code == 0
    rows = _read_rows(out / "sweep.csv")
    means = []
    for label in ("6x6", "7x7", "8x8", "10x10"):
        totals = [float(r["total"]) for r in rows if r["value"] == label]
        assert len(totals) == 10
        means.append(float(np.mean(totals)))
    assert all(a < b for a, b in zip(means, means[1:])), means
    rho = _spearman_of_means(means)
    assert rho == 1.0
    formatted = ", ".join(f"{m:.1f}" for m in means)
    print(
        f"PASS criterion 5: mean total nodes strictly increasing over grids "
        f"({formatted}), spearman {rho:.1f}"
    )


def test_criterion_06_traffic_trend(tmp_path):
    out = tmp_path / "traffic_sweep"
    code = main([
        "sweep", "--axis", "traffic", "--values", "1,2,3,4",
        "--reps", "10", "--swarm", "10", "--gmax", "10",
        "--seed", "100", "--out", str(out),
    ])
    assert code == 0
    rows = _read_rows(out / "sweep.csv")
    means = []
    for label in ("1", "2", "3", "4"):
        counts = [
            float(r["aps"]) + float(r["gateways"])
            for r in rows
            if r["value"] == label
        ]
        assert len(counts) == 10
        means.append(float(np.mean(counts)))
    assert all(a <= b for a, b in zip(means, means[1:])), means
    assert means[3] > means[0]
    formatted = ", ".join(f"{m:.1f}" for m in means)
    print(
        f"PASS criterion 6: mean APs+gateways non-decreasing in demand "
        f"({formatted})"
    )


@pytest.fixture(scope="module")
def variant_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare") / "table"
    code = main([
        "compare", "--models", "cov,llb,glb,lglb", "--grid", "6x6",
        "--reps", "10", "--swarm", "10", "--gmax", "10",
        "--seed", "300", "--out", str(out),
    ])
    assert code == 0
    rows = _read_rows(out / "compare.csv")
    table = {}
    for variant in ("cov", "llb", "glb", "lglb"):
        subset = [r for r in rows if r["variant"] == variant]
        assert len(subset) == 10
        table[variant] = {
            "aps": float(np.mean([float(r["aps"]) for r in subset])),
            "relays": float(np.mean([float(r["relays"]) for r in subset])),
        }
    return table


def test_criterion_07_coverage_model_ap_count(variant_table):
    cov = variant_table["cov"]["aps"]
    for other in ("llb", "glb", "lglb"):
        assert cov >= variant_table[other]["aps"], variant_table
    print(
        f"PASS criterion 7: mean AP count under cov ({cov:.1f}) >= "
        "llb, glb, lglb"
    )


def test_criterion_08_balancing_model_relay_count(variant_table):
    cov = variant_table["cov"]["relays"]
    assert variant_table["llb"]["relays"] <= cov, variant_table
    assert variant_table["lglb"]["relays"] <= cov, variant_table
    print(
        f"PASS criterion 8: mean relay counts under llb and lglb <= cov "
        f"({cov:.1f})"
    )


def test_criterion_09_flow_conservation(standard, constructions, full_run, toy_instance):
    for sol, _ in enumerate_feasible(toy_instance):
        PRODUCED.append((sol, toy_instance))
    assert len(PRODUCED) > 100
    for sol, inst in PRODUCED:
        loads = sol.site_loads(inst)
        _, f = dense(sol)
        residual = loads + f.sum(axis=(0, 2)) - f.sum(axis=(1, 2)) - sol.F
        assert float(np.abs(residual).max()) <= FEAS_TOL
        assert abs(float(sol.F.sum()) - float(loads.sum())) <= FEAS_TOL
    print(
        f"PASS criterion 9: flow conserved at 1e-9 on {len(PRODUCED)} "
        "solutions"
    )


def test_criterion_10_determinism(tmp_path):
    args = ["plan", "--grid", "6x6", "--swarm", "8", "--gmax", "6", "--seed", "0"]
    runs = {}
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert main([*args, "--out", str(out)]) == 0
        runs[tag] = out
    for name in ("archive.json", "stats.csv"):
        assert (runs["one"] / name).read_bytes() == (
            runs["two"] / name
        ).read_bytes()
    par = tmp_path / "par"
    assert main([*args, "--workers", "4", "--out", str(par)]) == 0
    for name in ("archive.json", "stats.csv"):
        assert (par / name).read_bytes() == (runs["one"] / name).read_bytes()
    print(
        "PASS criterion 10: archive and stats byte-identical across reruns "
        "and worker counts"
    )


def test_criterion_11_evaluator_spot_checks(standard):
    even = Solution.empty(standard)
    even.F[0] = 10.0
    even.F[1] = 10.0
    assert evaluate_gateway_balance(even) == pytest.approx(
        math.sqrt(10.0), abs=1e-12
    )
    single = Solution.empty(standard)
    single.F[0] = 20.0
    assert evaluate_gateway_balance(single) == pytest.approx(
        math.sqrt(20.0), abs=1e-12
    )
    priced = Solution.empty(standard)
    priced.ap[:3] = 1
    priced.relay[3:5] = 1
    priced.gateway[0] = 1
    assert evaluate_cost(priced) == 6.0
    print(
        "PASS criterion 11: gateway balance sqrt(10)/sqrt(20) and "
        "3+2+1 cost check out"
    )
