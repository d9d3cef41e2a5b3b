import csv
import hashlib
import json
from pathlib import Path

import pytest

from conftest import FIXTURES, make_verify2x3_instance
from meshplan import cli, construct
from meshplan.cli import main
from meshplan.instance import RadioParams, build_grid_instance, save_instance

TOY = str(FIXTURES / "toy2x2_instance.json")

FAST = ["--swarm", "6", "--gmax", "5", "--seed", "3"]


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_plan_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["plan", "--grid", "4x4", "--dps", "40", *FAST, "--out", str(out)])
    assert code == 0
    for name in ("archive.json", "stats.csv", "cheapest.json", "summary.txt"):
        assert (out / name).exists()
    printed = capsys.readouterr().out
    assert "archive" in printed and str(out) in printed
    payload = json.loads((out / "archive.json").read_text())
    assert payload["format"] == 1
    assert payload["variant"] == "lglb"
    assert len(payload["entries"]) >= 1
    cheapest = json.loads((out / "cheapest.json").read_text())
    assert set(cheapest["metrics"]) == {
        "aps", "relays", "gateways", "total",
        "coverage", "link_residual", "gateway_balance",
    }
    summary = (out / "summary.txt").read_text()
    assert "cheapest solution:" in summary


def test_plan_reruns_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    args = ["plan", "--grid", "4x4", "--dps", "40", *FAST]
    assert main([*args, "--out", str(first)]) == 0
    assert main([*args, "--out", str(second)]) == 0
    for name in ("archive.json", "stats.csv", "cheapest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_plan_dump_routes(tmp_path):
    out = tmp_path / "run"
    code = main([
        "plan", "--grid", "4x4", "--dps", "40", *FAST,
        "--dump-routes", "--out", str(out),
    ])
    assert code == 0
    routes = json.loads((out / "routes.json").read_text())
    assert routes and {"site", "gateway", "path", "demand"} == set(routes[0])


#: sha256 of fixed `plan` runs' artifacts. Any change to these bytes changes
#: what users get for a fixed seed and must be deliberate. The 4x4 run takes
#: 30 generations of mutation, about a third of whose attempts leave the
#: parent plan unchanged.
GOLDEN_PLANS = [
    (
        ["plan", "--grid", "6x6", "--dps", "200", "--swarm", "20", "--gmax", "5",
         "--seed", "0", "--dump-routes"],
        {
            "archive.json": "6911f603beb78493c80e63039efac1287dfb3499de162907188d83392f696480",
            "stats.csv": "ce2c39b7ffe9ac17771925298b235ae9b0f6f1cf7ea5bc636878c065a4e44f13",
            "routes.json": "e2182139acbf2e840177456d6bd4864b19e97b2858053f9d00d1e4738fee3d01",
        },
    ),
    (
        ["plan", "--grid", "4x4", "--dps", "30", "--swarm", "20", "--gmax", "30",
         "--seed", "0"],
        {
            "archive.json": "8c478d966e17d6b63d1a818b6421404157b1565b35632a2050ba2248b03f1aa0",
            "stats.csv": "bf5b22c0fd541221574481f513f37d62f9d03c847c095b3172d3c5978f937844",
        },
    ),
]


def test_plan_golden_bytes(tmp_path):
    for n, (args, golden) in enumerate(GOLDEN_PLANS):
        out = tmp_path / str(n)
        assert main([*args, "--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in golden
        }
        assert digests == golden, args


def test_plan_loads_instance_file(tmp_path):
    inst = build_grid_instance(4, 4, n_dps=30, radio=RadioParams(), seed=7)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    out = tmp_path / "run"
    code = main(["plan", "--instance", str(path), *FAST, "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "archive.json").read_text())
    assert payload["instance_hash"] == inst.content_hash()


def test_sweep_schema_and_order(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--axis", "traffic", "--values", "2,1",
        "--reps", "2", "--grid", "4x4", "--dps", "30", *FAST, "--out", str(out),
    ])
    assert code == 0
    rows = _read_csv(out / "sweep.csv")
    assert rows[0] == [
        "axis", "value", "seed", "aps", "relays", "gateways", "total",
        "coverage", "link_residual", "gateway_balance",
    ]
    assert len(rows) == 1 + 4
    # rows come out sorted by numeric axis value then seed, not input order
    assert [(r[1], r[2]) for r in rows[1:]] == [
        ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"),
    ]


def test_report_metric_columns_exact(tmp_path):
    """The summary's cheapest-plan line and the sweep and compare headers,
    as text: metric names, their order and their formatting."""
    args = ["--grid", "4x4", "--dps", "30", *FAST, "--out", str(tmp_path)]
    assert main(["plan", *args]) == 0
    assert main(["sweep", "--axis", "traffic", "--values", "2", *args]) == 0
    assert main(["compare", "--models", "cov,lglb", *args]) == 0
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert summary[-1] == (
        "cheapest solution: aps=9, relays=6, gateways=2, total=17, coverage=30, "
        "link_residual=32, gateway_balance=5.489383693"
    )
    metrics = "aps,relays,gateways,total,coverage,link_residual,gateway_balance"
    sweep = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "axis,value,seed," + metrics
    compare = (tmp_path / "compare.csv").read_text().splitlines()
    assert compare[0] == "variant,grid,seed," + metrics


def test_sweep_grid_axis(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--axis", "grid", "--values", "5x5,4x4",
        "--dps", "30", *FAST, "--out", str(out),
    ])
    assert code == 0
    rows = _read_csv(out / "sweep.csv")
    assert [r[1] for r in rows[1:]] == ["4x4", "5x5"]


def test_sweep_usage_errors(tmp_path):
    base = ["--grid", "4x4", "--dps", "30", *FAST, "--out", str(tmp_path)]
    assert main(["sweep", "--values", "1,2", *base]) == 1
    assert main(["sweep", "--axis", "traffic", "--values", "", *base]) == 1
    assert main(["sweep", "--axis", "traffic", "--values", "-1", *base]) == 1
    assert main(["sweep", "--axis", "traffic", "--values", "nan", *base]) == 1
    assert main(["sweep", "--axis", "radios", "--values", "0", *base]) == 1
    assert main(["sweep", "--axis", "grid", "--values", "4x4",
                 "--instance", TOY, *FAST, "--out", str(tmp_path)]) == 1


def test_infeasible_table_row_is_named(tmp_path, capsys):
    # traffic 60 exceeds the site capacity 54 at every demand point
    code = main([
        "sweep", "--axis", "traffic", "--values", "2,60", "--grid", "4x4",
        "--dps", "30", "--swarm", "2", "--gmax", "2", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "infeasible: traffic,60,0: no demand point" in capsys.readouterr().err
    code = main([
        "compare", "--models", "cov,llb", "--grid", "4x4", "--dps", "30",
        "--capacity", "1", *FAST, "--out", str(tmp_path),
    ])
    assert code == 2
    assert "infeasible: cov,4x4,3: no demand point" in capsys.readouterr().err


def test_compare_schema(tmp_path):
    out = tmp_path / "cmp"
    code = main([
        "compare", "--models", "cov,lglb", "--reps", "2",
        "--grid", "4x4", "--dps", "30", *FAST, "--out", str(out),
    ])
    assert code == 0
    rows = _read_csv(out / "compare.csv")
    assert rows[0][:3] == ["variant", "grid", "seed"]
    assert len(rows) == 1 + 4
    assert [(r[2], r[0]) for r in rows[1:]] == [
        ("3", "cov"), ("3", "lglb"), ("4", "cov"), ("4", "lglb"),
    ]


def test_compare_needs_two_distinct_models(tmp_path):
    assert main([
        "compare", "--models", "cov,cov", "--grid", "4x4", "--dps", "30",
        *FAST, "--out", str(tmp_path),
    ]) == 1


def test_verify_toy_passes(tmp_path, capsys):
    code = main([
        "verify", "--instance", TOY, "--swarm", "12", "--gmax", "10",
        "--seed", "0", "--out", str(tmp_path),
    ])
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert "on_front_fraction: 1" in printed
    assert "verdict: pass" in printed


#: sha256 of `verify --instance <toy> --seed 0` stdout (default swarm and
#: generations): the verdict report for a fixed seed.
GOLDEN_VERIFY_STDOUT = "50cdcf3d5675c9ccefec498caa99eaf18736bf577272bc834b1f52f90ad0c3a6"


def test_verify_golden_stdout(tmp_path, capsys):
    code = main(["verify", "--instance", TOY, "--seed", "0", "--out", str(tmp_path)])
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert hashlib.sha256(printed.encode()).hexdigest() == GOLDEN_VERIFY_STDOUT


def test_verify_unreachable_threshold_fails(tmp_path, capsys, monkeypatch):
    # The toy's front is one point, so its coverage is 0 or 1 and no threshold
    # in [0, 1] decides a verdict there. A second front point that costs 100
    # is never found, which holds coverage at 1/2 with every archive point on
    # the front.
    true_front = cli.true_pareto_front

    def front(*args, **kwargs):
        return [*true_front(*args, **kwargs), (100.0, -100.0, 0.0, 0.0)]

    monkeypatch.setattr(cli, "true_pareto_front", front)
    code = main([
        "verify", "--instance", TOY, "--swarm", "12", "--gmax", "10",
        "--seed", "0", "--threshold", "1", "--out", str(tmp_path),
    ])
    assert code == 2
    printed = capsys.readouterr().out
    assert "on_front_fraction: 1\nfront_coverage_fraction: 0.5\n" in printed
    assert "verdict: fail" in printed


def test_verify_reports_dominated_archive_points(tmp_path, capsys):
    # one particle for one generation misses the verify2x3 front
    path = tmp_path / "verify2x3.json"
    save_instance(make_verify2x3_instance(), path)
    code = main([
        "verify", "--instance", str(path), "--swarm", "1", "--gmax", "1",
        "--seed", "0", "--out", str(tmp_path),
    ])
    printed = capsys.readouterr().out
    assert code == 2, printed
    assert printed.count("  dominated: ") == 1
    assert "violations: 1\n" in printed and "verdict: fail" in printed


def test_verify_guard_refuses_big_grid(tmp_path):
    code = main([
        "verify", "--grid", "7x7", "--dps", "10", *FAST, "--out", str(tmp_path),
    ])
    assert code == 3


@pytest.mark.parametrize(
    "flag",
    [("--swarm", "0"), ("--threshold", "nan"),
     ("--threshold", "-1"), ("--threshold", "1.5")],
    ids=["swarm", "threshold", "threshold-below-0", "threshold-above-1"],
)
def test_verify_rejects_bad_flags_before_oracle(tmp_path, monkeypatch, flag):
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before flag validation")

    monkeypatch.setattr(cli, "true_pareto_front", oracle)
    code = main(["verify", "--instance", TOY, *flag, "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("how", ["flag", "config"])
def test_verify_refuses_fixed_gateway_count(tmp_path, capsys, monkeypatch, how):
    # the oracle's front uses the demand budget, whatever --gateways says
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran for a fixed gateway count")

    monkeypatch.setattr(cli, "true_pareto_front", oracle)
    if how == "flag":
        extra = ["--gateways", "3"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gateways": 3}))
        extra = ["--config", str(cfg)]
    code = main(["verify", "--instance", TOY, *extra, "--out", str(tmp_path)])
    assert code == 1
    assert "--gateways auto" in capsys.readouterr().err


def test_hopeless_instance_refused_before_any_attempt(tmp_path, capsys, monkeypatch):
    # traffic 2 exceeds capacity 1 at every demand point: no plan can exist
    def rebuild(*args, **kwargs):
        raise AssertionError("a construction attempt ran")

    monkeypatch.setattr(construct, "rebuild_pipeline", rebuild)
    code = main([
        "plan", "--grid", "4x4", "--dps", "30", "--capacity", "1",
        "--out", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "no demand point is both covered by a site and within" in err
    assert "0 within capacity" in err


def test_single_radio_refused_before_any_attempt(tmp_path, capsys, monkeypatch):
    # one radio allows one link per node (C3), but C14 needs two
    def rebuild(*args, **kwargs):
        raise AssertionError("a construction attempt ran")

    monkeypatch.setattr(construct, "rebuild_pipeline", rebuild)
    code = main([
        "plan", "--grid", "6x6", "--dps", "200", "--radios", "1",
        "--channels", "1", "--out", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "at most R=1 link (C3), but every installed node needs two (C14)" in err
    assert "attempts" not in err


def test_gateway_budget_beyond_installed_nodes_exits_two(tmp_path, capsys):
    # every attempt fails gateway selection, so construction gives up
    code = main([
        "plan", "--grid", "6x6", "--gateways", "40", *FAST, "--out", str(tmp_path),
    ])
    assert code == 2
    assert (
        "no feasible solution in 500 attempts "
        "(last: gateway count 40 exceeds 36 installed nodes)"
    ) in capsys.readouterr().err


def test_invalid_radio_combo_exits_one(tmp_path):
    code = main([
        "plan", "--grid", "4x4", "--dps", "10", "--channels", "2",
        "--radios", "3", *FAST, "--out", str(tmp_path),
    ])
    assert code == 1


def test_infinite_capacity_exits_one(tmp_path, capsys):
    code = main([
        "plan", "--grid", "3x3", "--dps", "20", "--capacity", "inf",
        *FAST, "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    assert "capacity must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_instance_file_with_infinite_capacity_exits_one(tmp_path, capsys):
    # json writes float("inf") as the non-standard token Infinity, which
    # json.load reads back
    data = json.loads(Path(TOY).read_text())
    data["C_max"] = float("inf")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    assert "Infinity" in path.read_text()
    code = main(["plan", "--instance", str(path), *FAST, "--out", str(tmp_path)])
    assert code == 1
    assert "capacity must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("random_matrices", [None, {"density": 1.0}])
def test_instance_file_with_negative_seed_exits_one(tmp_path, capsys, random_matrices):
    # with random matrices the seed reaches numpy's rng, which raises its
    # own ValueError; without them nothing reads it, so it must be refused
    # on load
    data = json.loads(Path(TOY).read_text())
    data["seed"] = -1
    if random_matrices:
        data["random_matrices"] = random_matrices
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "run"
    code = main(["plan", "--instance", str(path), *FAST, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == ["meshplan: error: seed must be >= 0"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["plan", "sweep", "compare"])
def test_out_that_is_a_file_exits_one_before_any_search(
    tmp_path, capsys, monkeypatch, command
):
    def search(*args, **kwargs):
        raise AssertionError("the search ran before the output directory was made")

    monkeypatch.setattr(cli, "run", search)
    out = tmp_path / "taken"
    out.write_text("")
    extra = {"sweep": ["--axis", "traffic", "--values", "2"], "compare": []}
    code = main([
        command, "--grid", "3x3", "--dps", "10", *extra.get(command, []), *FAST,
        "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("meshplan: error: cannot create output directory")
    assert err.count("\n") == 1


def test_bad_grid_token_exits_one(tmp_path):
    code = main(["plan", "--grid", "6by6", *FAST, "--out", str(tmp_path)])
    assert code == 1


def test_unknown_flag_exits_one(tmp_path, capsys):
    code = main(["plan", "--no-such-flag", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 1


def test_removed_recombine_flag_exits_one(tmp_path, capsys):
    # recombination is gone; a run that asks for it must not quietly mutate
    out = tmp_path / "run"
    code = main(["plan", "--recombine", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "error" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--gateways", "two"],
        ["plan", "--config", "missing.json"],
        ["sweep", "--axis", "traffic", "--values", "2,x"],
        ["sweep", "--axis", "radios", "--values", "2", "--reps", "0"],
        ["compare", "--models", "cov,bogus"],
        ["compare", "--models", "cov,llb", "--reps", "0"],
    ],
    ids=["gateway-word", "missing-config", "sweep-bad-value", "sweep-no-reps",
         "compare-bad-model", "compare-no-reps"],
)
def test_refusal_exits_one_with_one_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # missing.json names no file there
    out = tmp_path / "run"
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "error" in err and "Traceback" not in err
    assert not out.exists()


def test_config_file_provides_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "4x4", "dps": 40, "swarm": 6, "gmax": 5}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["plan", "--config", str(cfg), "--seed", "3",
                 "--out", str(out_a)]) == 0
    assert main(["plan", "--grid", "4x4", "--dps", "40", "--swarm", "6",
                 "--gmax", "5", "--seed", "3", "--out", str(out_b)]) == 0
    assert (out_a / "archive.json").read_bytes() == (
        out_b / "archive.json"
    ).read_bytes()


def test_config_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "9x9", "dps": 40, "swarm": 6, "gmax": 5}))
    out = tmp_path / "run"
    # the explicit flag beats the config value
    assert main(["plan", "--config", str(cfg), "--grid", "4x4", "--seed", "3",
                 "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "4x4 grid" in summary


def test_config_unknown_key_exits_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"swram": 6}))
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_config_matches_flags_byte_for_byte(tmp_path):
    # integer JSON values go through the flags' own types: C_max is a float
    # either way, so the instance hash and every artifact byte agree
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": "4x4", "dps": 40, "capacity": 54, "traffic": 2,
        "swarm": 6, "gmax": 5, "seed": 3,
    }))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["plan", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["plan", "--grid", "4x4", "--dps", "40", "--capacity", "54",
                 "--traffic", "2", *FAST, "--out", str(out_b)]) == 0
    for name in ("archive.json", "stats.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_config_switches_nulls_and_other_commands_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": "4x4", "dps": 40, "swarm": 6, "gmax": 5,
        "dump_routes": True, "random_matrices": None,
        "threshold": 0.9, "models": "cov,glb", "config": "ignored.json",
    }))
    out = tmp_path / "run"
    assert main(["plan", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "routes.json").exists()


@pytest.mark.parametrize(
    "entry",
    [{"swarm": 6.5}, {"dump_routes": "no"}, {"model": "nope"}, {"dps": True},
     {"recombine": True}, [1, 2]],
    ids=["float-for-int", "word-for-switch", "bad-choice", "switch-for-value",
         "removed-switch", "not-an-object"],
)
def test_config_values_parse_like_flags(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    code = main(["plan", "--config", str(cfg), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "error" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_verify_grades_with_its_coverage_mode(tmp_path, capsys):
    code = main([
        "verify", "--instance", TOY, "--seed", "0", "--coverage-mode", "literal",
        "--out", str(tmp_path),
    ])
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert "verdict: pass" in printed


@pytest.mark.parametrize("command", ["plan", "verify"])
def test_missing_instance_file_exits_one(tmp_path, capsys, command):
    code = main([command, "--instance", str(tmp_path / "no_such.json"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "cannot read instance file" in capsys.readouterr().err


def test_main_lets_unexpected_value_errors_through(tmp_path, monkeypatch):
    # a ValueError from inside the program is a bug, not a usage error: it
    # must surface with its traceback instead of exiting 1
    def broken(instance, config):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "run", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["plan", "--grid", "4x4", "--dps", "30", *FAST, "--out", str(tmp_path)])


def test_random_matrices_smoke(tmp_path):
    out = tmp_path / "run"
    code = main([
        "plan", "--grid", "4x4", "--dps", "12", "--random-matrices", "0.8",
        *FAST, "--out", str(out),
    ])
    # seeded random topologies may or may not admit a feasible plan, but the
    # command must finish with a defined status either way
    assert code in (0, 2)


def test_gateways_flag_fixes_count(tmp_path):
    out = tmp_path / "run"
    code = main([
        "plan", "--grid", "4x4", "--dps", "40", "--gateways", "5",
        *FAST, "--out", str(out),
    ])
    assert code == 0
    cheapest = json.loads((out / "cheapest.json").read_text())
    assert cheapest["metrics"]["gateways"] == 5
    assert main([
        "plan", "--grid", "4x4", "--dps", "40", "--gateways", "0",
        *FAST, "--out", str(out),
    ]) == 1
