"""Command-line front end: single plans, parameter sweeps, model comparison.

Subcommands:
  plan     run the search once and write archive/stats/cheapest artifacts
  sweep    vary grid size, traffic or radio count; long-format CSV
  compare  run several model variants on identical instances; CSV
  verify   grade the archive against the exhaustive oracle (tiny instances)

Exit codes: 0 success, 1 usage or validation error, 2 infeasible (or a
failed verification), 3 oracle guard refusal. All outputs are deterministic
for a fixed --seed, byte for byte.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .construct import ConstructionInfeasibleError
from .flow import RoutingInfeasibleError, route_flows, traces_to_json
from .instance import (
    InstanceError,
    RadioParams,
    build_grid_instance,
    load_instance,
)
from .model import (
    VARIANTS,
    parse_variant,
    solution_metrics,
    solution_to_dict,
)
from .mopso import MopsoConfig, run, stats_to_csv
from .oracle import GuardError, true_pareto_front, verify_archive

DEFAULTS = {
    "instance": None,
    "grid": "6x6",
    "dps": 200,
    "traffic": 2.0,
    "capacity": 54.0,
    "radios": 3,
    "channels": 11,
    "hops": 3,
    "model": "lglb",
    "coverage_mode": "assigned",
    "gateways": "auto",
    "swarm": 50,
    "gmax": 100,
    "mut": 0.1,
    "archive_cap": 100,
    "seed": 0,
    "reps": 1,
    "out": "results",
    "workers": 1,
    "threshold": 0.8,
    "random_matrices": None,
    "dump_routes": False,
    "recombine": False,
    "axis": None,
    "values": None,
    "models": "cov,llb,glb,lglb",
    "config": None,
}

METRIC_COLUMNS = (
    "aps",
    "relays",
    "gateways",
    "total",
    "coverage",
    "link_residual",
    "gateway_balance",
)


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--instance", help="instance JSON file (overrides --grid/--dps)")
    sub.add_argument("--grid", help="grid size RxC (default 6x6)")
    sub.add_argument("--dps", type=int, help="number of demand points (default 200)")
    sub.add_argument("--traffic", type=float, help="per-DP demand (default 2)")
    sub.add_argument("--capacity", type=float, help="link/site capacity (default 54)")
    sub.add_argument("--radios", type=int, help="radios per node (default 3)")
    sub.add_argument("--channels", type=int, help="available channels (default 11)")
    sub.add_argument("--hops", type=int, help="gateway hop bound (default 3)")
    sub.add_argument("--model", choices=sorted(VARIANTS), help="objective variant")
    sub.add_argument("--coverage-mode", dest="coverage_mode",
                     choices=("assigned", "literal"))
    sub.add_argument("--gateways", help="gateway count, or 'auto' for the demand budget")
    sub.add_argument("--swarm", type=int, help="particles (default 50)")
    sub.add_argument("--gmax", type=int, help="generations including the initial one")
    sub.add_argument("--mut", type=float, help="mutation probability (default 0.1)")
    sub.add_argument("--archive-cap", dest="archive_cap", type=int,
                     help="archive capacity (default 100)")
    sub.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    sub.add_argument("--out", help="output directory (default results)")
    sub.add_argument("--workers", type=int, help="evaluation threads (default 1)")
    sub.add_argument("--random-matrices", dest="random_matrices", type=float,
                     nargs="?", const=0.5,
                     help="replace geometry with seeded random coverage/connectivity"
                          " matrices of the given density (default 0.5)")
    sub.add_argument("--recombine", action="store_true", default=None,
                     help="enable archive-guided recombination before mutation")
    sub.add_argument("--config", help="JSON file of flag defaults; flags override")


def build_parser() -> _Parser:
    parser = _Parser(prog="meshplan", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    plan = subs.add_parser("plan", help="single optimization run")
    _add_common_flags(plan)
    plan.add_argument("--dump-routes", dest="dump_routes", action="store_true",
                      default=None, help="also write per-demand routing traces")
    plan.set_defaults(func=cmd_plan)

    sweep = subs.add_parser("sweep", help="parameter sweep, long-format CSV")
    _add_common_flags(sweep)
    sweep.add_argument("--axis", choices=("grid", "traffic", "radios"))
    sweep.add_argument("--values", help="comma-separated axis values")
    sweep.add_argument("--reps", type=int, help="seeds per value (default 1)")
    sweep.set_defaults(func=cmd_sweep)

    compare = subs.add_parser("compare", help="run several variants, paired")
    _add_common_flags(compare)
    compare.add_argument("--models", help="comma-separated variants (default all four)")
    compare.add_argument("--reps", type=int, help="instances per variant (default 1)")
    compare.set_defaults(func=cmd_compare)

    verify = subs.add_parser("verify", help="grade archive against the oracle")
    _add_common_flags(verify)
    verify.add_argument("--threshold", type=float,
                        help="required front coverage fraction (default 0.8)")
    verify.set_defaults(func=cmd_verify)

    return parser


def _resolve(ns: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the --config file, then from built-in defaults."""
    cfg = {}
    if getattr(ns, "config", None):
        try:
            with open(ns.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(cfg) - set(DEFAULTS))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    for key, default in DEFAULTS.items():
        if not hasattr(ns, key):
            continue
        if getattr(ns, key) is None:
            setattr(ns, key, cfg.get(key, default))
    return ns


def _parse_grid(token: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)x(\d+)", token.strip())
    if not match:
        raise UsageError(f"bad grid spec {token!r}, expected RxC like 6x6")
    return int(match.group(1)), int(match.group(2))


def _parse_gateways(token) -> int | None:
    if token is None or str(token).strip().lower() == "auto":
        return None
    try:
        value = int(token)
    except ValueError as exc:
        raise UsageError(f"bad gateway count {token!r}, expected integer or 'auto'") from exc
    if value < 1:
        raise UsageError("gateway count must be >= 1")
    return value


def _build_instance(ns, seed, grid=None, traffic=None, radios=None):
    if ns.instance:
        return load_instance(ns.instance)
    rows, cols = _parse_grid(grid if grid is not None else ns.grid)
    radio = RadioParams(
        traffic=traffic if traffic is not None else ns.traffic,
        capacity=ns.capacity,
        radios=radios if radios is not None else ns.radios,
        channels=ns.channels,
        max_hops=ns.hops,
    )
    return build_grid_instance(
        rows, cols, ns.dps, radio, seed,
        random_matrix_density=ns.random_matrices,
    )


def _build_config(ns, seed, variant=None) -> MopsoConfig:
    config = MopsoConfig(
        swarm_size=ns.swarm,
        gmax=ns.gmax,
        mut=ns.mut,
        archive_capacity=ns.archive_cap,
        seed=seed,
        variant=variant if variant is not None else ns.model,
        coverage_mode=ns.coverage_mode,
        gateway_count=_parse_gateways(ns.gateways),
        workers=ns.workers,
        recombine=bool(ns.recombine),
    )
    config.validate()
    return config


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _archive_json(result, instance) -> str:
    payload = {
        "format": 1,
        "variant": result.config.variant,
        "instance_hash": instance.content_hash(),
        "entries": [
            {
                "seq": entry.seq,
                "objectives": [float(x) for x in entry.objectives],
                "solution": solution_to_dict(entry.solution),
            }
            for entry in result.archive.entries
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cheapest_json(result, instance) -> str:
    payload = {
        "format": 1,
        "variant": result.config.variant,
        "objectives": [float(x) for x in result.incumbent_objectives],
        "metrics": solution_metrics(result.incumbent, instance),
        "solution": solution_to_dict(result.incumbent),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _summary_text(result, instance, ns) -> str:
    metrics = solution_metrics(result.incumbent, instance)
    lines = [
        f"instance: {instance.rows}x{instance.cols} grid, "
        f"{instance.num_dps} demand points, seed {result.config.seed}",
        f"variant: {result.config.variant} (coverage mode {result.config.coverage_mode})",
        f"evaluations: {result.evaluations}",
        f"archive size: {len(result.archive)}",
        "cheapest solution: "
        + ", ".join(f"{key}={_fmt(metrics[key])}" for key in METRIC_COLUMNS),
    ]
    return "\n".join(lines) + "\n"


def cmd_plan(ns) -> int:
    instance = _build_instance(ns, ns.seed)
    config = _build_config(ns, ns.seed)
    result = run(instance, config)
    out = Path(ns.out)
    _write(out / "archive.json", _archive_json(result, instance))
    _write(out / "stats.csv", stats_to_csv(result.stats))
    _write(out / "cheapest.json", _cheapest_json(result, instance))
    _write(out / "summary.txt", _summary_text(result, instance, ns))
    if ns.dump_routes:
        _, traces = route_flows(result.incumbent, instance)
        _write(out / "routes.json", traces_to_json(traces) + "\n")
    metrics = solution_metrics(result.incumbent, instance)
    print(
        f"plan: archive {len(result.archive)}, cheapest total {metrics['total']}, "
        f"artifacts in {out}"
    )
    return 0


def _metric_cells(metrics: dict) -> list:
    return [_fmt(metrics[key]) for key in METRIC_COLUMNS]


def cmd_sweep(ns) -> int:
    if ns.axis is None:
        raise UsageError("sweep requires --axis (grid, traffic or radios)")
    if ns.instance:
        raise UsageError("sweep generates instances; --instance is not usable here")
    tokens = [t.strip() for t in (ns.values or "").split(",") if t.strip()]
    if not tokens:
        raise UsageError("sweep requires a non-empty --values list")
    if ns.reps < 1:
        raise UsageError("--reps must be >= 1")
    parsed = []
    for token in tokens:
        if ns.axis == "grid":
            parsed.append((_parse_grid(token), token))
        elif ns.axis == "traffic":
            value = float(token)
            if value <= 0:
                raise UsageError("traffic values must be positive")
            parsed.append((value, _fmt(value)))
        else:
            value = int(token)
            if value < 1:
                raise UsageError("radio counts must be >= 1")
            parsed.append((value, str(value)))
    rows = []
    for key, label in parsed:
        for rep in range(ns.reps):
            seed = ns.seed + rep
            if ns.axis == "grid":
                instance = _build_instance(ns, seed, grid=label)
            elif ns.axis == "traffic":
                instance = _build_instance(ns, seed, traffic=key)
            else:
                instance = _build_instance(ns, seed, radios=key)
            result = run(instance, _build_config(ns, seed))
            metrics = solution_metrics(result.incumbent, instance)
            rows.append(((key, seed), [ns.axis, label, str(seed)]
                         + _metric_cells(metrics)))
    rows.sort(key=lambda r: r[0])
    header = "axis,value,seed," + ",".join(METRIC_COLUMNS)
    body = "\n".join(",".join(cells) for _, cells in rows)
    out = Path(ns.out)
    _write(out / "sweep.csv", header + "\n" + body + "\n")
    print(f"sweep: {len(rows)} rows written to {out / 'sweep.csv'}")
    return 0


def cmd_compare(ns) -> int:
    tokens = [t.strip() for t in (ns.models or "").split(",") if t.strip()]
    variants = []
    for token in tokens:
        variant = parse_variant(token)
        if variant not in variants:
            variants.append(variant)
    if len(variants) < 2:
        raise UsageError("compare needs at least two distinct --models")
    if ns.reps < 1:
        raise UsageError("--reps must be >= 1")
    if ns.instance:
        grid_label = "file"
    else:
        grid_label = ns.grid
    rows = []
    for rep in range(ns.reps):
        seed = ns.seed + rep
        instance = _build_instance(ns, seed)
        for variant in variants:
            result = run(instance, _build_config(ns, seed, variant=variant))
            metrics = solution_metrics(result.incumbent, instance)
            rows.append(((seed, variant), [variant, grid_label, str(seed)]
                         + _metric_cells(metrics)))
    rows.sort(key=lambda r: r[0])
    header = "variant,grid,seed," + ",".join(METRIC_COLUMNS)
    body = "\n".join(",".join(cells) for _, cells in rows)
    out = Path(ns.out)
    _write(out / "compare.csv", header + "\n" + body + "\n")
    print(f"compare: {len(rows)} rows written to {out / 'compare.csv'}")
    return 0


def cmd_verify(ns) -> int:
    instance = _build_instance(ns, ns.seed)
    config = _build_config(ns, ns.seed)  # reject bad flags before the oracle runs
    truth = true_pareto_front(instance, variant=ns.model)
    result = run(instance, config)
    report = verify_archive(result.archive, truth)
    print(f"true front size: {len(truth)}")
    print(f"archive size: {len(result.archive)}")
    print(f"on_front_fraction: {_fmt(report['on_front_fraction'])}")
    print(f"front_coverage_fraction: {_fmt(report['front_coverage_fraction'])}")
    print(f"violations: {len(report['violations'])}")
    for vec in report["violations"]:
        print("  dominated: " + ", ".join(_fmt(x) for x in vec))
    passed = (
        report["on_front_fraction"] == 1.0
        and report["front_coverage_fraction"] >= ns.threshold
    )
    print("verdict: " + ("pass" if passed else "fail"))
    return 0 if passed else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        ns = _resolve(ns)
        return ns.func(ns)
    except UsageError as exc:
        print(f"meshplan: error: {exc}", file=sys.stderr)
        return 1
    except GuardError as exc:
        print(f"meshplan: {exc}", file=sys.stderr)
        return 3
    except (ConstructionInfeasibleError, RoutingInfeasibleError) as exc:
        print(f"meshplan: infeasible: {exc}", file=sys.stderr)
        return 2
    except (InstanceError, ValueError) as exc:
        print(f"meshplan: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
