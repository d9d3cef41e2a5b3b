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
from .flow import route_flows
from .instance import (
    InstanceError,
    RadioParams,
    build_grid_instance,
    load_instance,
)
from .model import (
    COVERAGE_MODES,
    CandidateRejected,
    VARIANTS,
    parse_variant,
    solution_metrics,
    solution_to_dict,
)
from .mopso import MopsoConfig, format_cell, run, stats_to_csv
from .oracle import GuardError, true_pareto_front, verify_archive


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _gateway_count(token: str) -> int | None:
    """--gateways value: a count >= 1, or None for 'auto' (the demand budget)."""
    if token.strip().lower() == "auto":
        return None
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad gateway count {token!r}, expected integer or 'auto'"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError("gateway count must be >= 1")
    return value


def _add_command(subs, name: str, func, summary: str) -> _Parser:
    sub = subs.add_parser(name, help=summary,
                          formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub.set_defaults(func=func)
    sub.add_argument("--instance", help="instance JSON file (overrides --grid/--dps)")
    sub.add_argument("--grid", default="6x6", help="grid size RxC")
    sub.add_argument("--dps", type=int, default=200, help="number of demand points")
    sub.add_argument("--traffic", type=float, default=RadioParams.traffic,
                     help="per-DP demand")
    sub.add_argument("--capacity", type=float, default=RadioParams.capacity,
                     help="link/site capacity")
    sub.add_argument("--radios", type=int, default=RadioParams.radios,
                     help="radios per node")
    sub.add_argument("--channels", type=int, default=RadioParams.channels,
                     help="available channels")
    sub.add_argument("--hops", type=int, default=RadioParams.max_hops,
                     help="gateway hop bound")
    sub.add_argument("--model", choices=sorted(VARIANTS), default=MopsoConfig.variant,
                     help="objective variant")
    sub.add_argument("--coverage-mode", choices=COVERAGE_MODES,
                     default=MopsoConfig.coverage_mode, help="coverage objective")
    sub.add_argument("--gateways", type=_gateway_count, default="auto",
                     help="gateway count, or 'auto' for the demand budget")
    sub.add_argument("--swarm", type=int, default=MopsoConfig.swarm_size,
                     help="particles")
    sub.add_argument("--gmax", type=int, default=MopsoConfig.gmax,
                     help="generations including the initial one")
    sub.add_argument("--mut", type=float, default=MopsoConfig.mut,
                     help="mutation probability")
    sub.add_argument("--archive-cap", type=int, default=MopsoConfig.archive_capacity,
                     help="archive capacity")
    sub.add_argument("--seed", type=int, default=MopsoConfig.seed, help="base RNG seed")
    sub.add_argument("--out", default="results", help="output directory")
    sub.add_argument("--workers", type=int, default=1,
                     help="no effect; accepted so older command lines still parse")
    sub.add_argument("--random-matrices", type=float, nargs="?", const=0.5,
                     help="replace geometry with seeded random coverage/connectivity"
                          " matrices of the given density (%(const)s if none given)")
    sub.add_argument("--config", help="JSON object of flag values; explicit flags win")
    return sub


def build_parser() -> _Parser:
    parser = _Parser(prog="meshplan", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices  # name -> subparser, read for --config keys

    plan = _add_command(subs, "plan", cmd_plan, "single optimization run")
    plan.add_argument("--dump-routes", action="store_true",
                      help="also write per-demand routing traces")

    sweep = _add_command(subs, "sweep", cmd_sweep, "parameter sweep, long-format CSV")
    sweep.add_argument("--axis", choices=("grid", "traffic", "radios"))
    sweep.add_argument("--values", help="comma-separated axis values")
    sweep.add_argument("--reps", type=int, default=1, help="seeds per value")

    compare = _add_command(subs, "compare", cmd_compare, "run several variants, paired")
    compare.add_argument("--models", default=",".join(VARIANTS),
                         help="comma-separated variants")
    compare.add_argument("--reps", type=int, default=1, help="instances per variant")

    verify = _add_command(subs, "verify", cmd_verify, "grade archive against the oracle")
    verify.add_argument("--threshold", type=float, default=0.8,
                        help="required front coverage fraction")
    return parser


def _config_flags(parser: _Parser, ns: argparse.Namespace) -> list[str]:
    """The --config file's entries as flags of the chosen subcommand.

    `true` gives the bare flag, `false` and `null` give nothing, and any
    other value gives `--key=value`, parsed like the flag itself. A key that
    only another subcommand takes is skipped; a `config` key is ignored.
    """
    command = parser.commands[ns.command]
    try:
        with open(ns.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        command.error(f"cannot read config file: {exc}")
    if not isinstance(cfg, dict):
        command.error("config file must hold a JSON object")
    known = {key for sub in parser.commands.values() for key in vars(sub.parse_args([]))}
    unknown = sorted(set(cfg) - (known - {"func"}))
    if unknown:
        command.error(f"unknown config keys: {', '.join(unknown)}")
    flags = []
    for key, value in cfg.items():
        if key == "config" or key not in ns or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        flags.append(flag if value is True else f"{flag}={value}")
    return flags


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; with --config, parse again with the file's flags first."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.config is None:
        return ns
    at = argv.index(ns.command) + 1
    return parser.parse_args([*argv[:at], *_config_flags(parser, ns), *argv[at:]])


def _parse_grid(token: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)x(\d+)", token.strip())
    if not match:
        raise UsageError(f"bad grid spec {token!r}, expected RxC like 6x6")
    return int(match.group(1)), int(match.group(2))


def _build_instance(ns, seed):
    if ns.instance:
        return load_instance(ns.instance)
    rows, cols = _parse_grid(ns.grid)
    radio = RadioParams(
        traffic=ns.traffic,
        capacity=ns.capacity,
        radios=ns.radios,
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
        gateway_count=ns.gateways,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config


def _out_dir(ns) -> Path:
    """Create the --out directory before any search runs."""
    out = Path(ns.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory: {exc}") from exc
    return out


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
    return _json(payload)


def _cheapest_json(result, metrics: dict) -> str:
    payload = {
        "format": 1,
        "variant": result.config.variant,
        "objectives": [float(x) for x in result.incumbent_objectives],
        "metrics": metrics,
        "solution": solution_to_dict(result.incumbent),
    }
    return _json(payload)


def _summary_text(result, instance, metrics: dict) -> str:
    lines = [
        f"instance: {instance.rows}x{instance.cols} grid, "
        f"{instance.num_dps} demand points, seed {result.config.seed}",
        f"variant: {result.config.variant} (coverage mode {result.config.coverage_mode})",
        f"evaluations: {result.evaluations}",
        f"archive size: {len(result.archive)}",
        "cheapest solution: "
        + ", ".join(f"{key}={format_cell(value)}" for key, value in metrics.items()),
    ]
    return "\n".join(lines) + "\n"


def cmd_plan(ns) -> int:
    instance = _build_instance(ns, ns.seed)
    config = _build_config(ns, ns.seed)
    out = _out_dir(ns)
    result = run(instance, config)
    metrics = solution_metrics(result.incumbent, instance)
    (out / "archive.json").write_text(_archive_json(result, instance))
    (out / "stats.csv").write_text(stats_to_csv(result.stats))
    (out / "cheapest.json").write_text(_cheapest_json(result, metrics))
    (out / "summary.txt").write_text(_summary_text(result, instance, metrics))
    if ns.dump_routes:
        _, traces = route_flows(result.incumbent, instance)
        (out / "routes.json").write_text(_json(traces))
    print(
        f"plan: archive {len(result.archive)}, cheapest total {metrics['total']}, "
        f"artifacts in {out}"
    )
    return 0


def _write_table(ns, name: str, columns: str, runs: list) -> int:
    """Search once per (sort key, leading cells, instance, config); write the
    cells and the cheapest plan's metrics to <out>/<name>.csv in key order.

    `runs` is never empty; the metric header is the last metrics dict's keys.
    """
    path = _out_dir(ns) / f"{name}.csv"
    rows = []
    for key, cells, instance, config in runs:
        try:
            result = run(instance, config)
        except ConstructionInfeasibleError as exc:
            raise ConstructionInfeasibleError(f"{','.join(cells)}: {exc}") from exc
        metrics = solution_metrics(result.incumbent, instance)
        rows.append((key, [*cells, *map(format_cell, metrics.values())]))
    lines = [",".join([columns, *metrics])]
    lines += [",".join(cells) for _, cells in sorted(rows, key=lambda r: r[0])]
    path.write_text("\n".join(lines) + "\n")
    print(f"{name}: {len(rows)} rows written to {path}")
    return 0


def _sweep_point(axis: str, token: str) -> tuple:
    """A --values token as (sort key, CSV label, value of the --<axis> flag)."""
    if axis == "grid":
        return _parse_grid(token), token, token
    try:
        value = (float if axis == "traffic" else int)(token)
    except ValueError:
        raise UsageError(f"bad {axis} value {token!r}") from None
    return value, format_cell(value), value


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
    points = [_sweep_point(ns.axis, token) for token in tokens]
    runs = []
    for key, label, value in points:
        point = argparse.Namespace(**{**vars(ns), ns.axis: value})
        for seed in range(ns.seed, ns.seed + ns.reps):
            runs.append(((key, seed), [ns.axis, label, str(seed)],
                         _build_instance(point, seed), _build_config(ns, seed)))
    return _write_table(ns, "sweep", "axis,value,seed", runs)


def cmd_compare(ns) -> int:
    try:
        named = [parse_variant(t) for t in ns.models.split(",") if t.strip()]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    variants = list(dict.fromkeys(named))  # first mention order, no repeats
    if len(variants) < 2:
        raise UsageError("compare needs at least two distinct --models")
    if ns.reps < 1:
        raise UsageError("--reps must be >= 1")
    grid_label = "file" if ns.instance else ns.grid
    runs = []
    for seed in range(ns.seed, ns.seed + ns.reps):
        instance = _build_instance(ns, seed)
        for variant in variants:
            runs.append(((seed, variant), [variant, grid_label, str(seed)], instance,
                         _build_config(ns, seed, variant=variant)))
    return _write_table(ns, "compare", "variant,grid,seed", runs)


def cmd_verify(ns) -> int:
    instance = _build_instance(ns, ns.seed)
    config = _build_config(ns, ns.seed)  # reject bad flags before the oracle runs
    if config.gateway_count is not None:
        raise UsageError(
            "verify takes only --gateways auto: the oracle's front uses the "
            "demand-budget gateway count, which a fixed count does not search"
        )
    if not 0 <= ns.threshold <= 1:
        raise UsageError(f"--threshold must lie in [0, 1], not {ns.threshold}")
    truth = true_pareto_front(
        instance, variant=config.variant, coverage_mode=config.coverage_mode
    )
    result = run(instance, config)
    report = verify_archive(result.archive.objectives_matrix(), truth)
    print(f"true front size: {len(truth)}")
    print(f"archive size: {len(result.archive)}")
    print(f"on_front_fraction: {format_cell(report['on_front_fraction'])}")
    print(f"front_coverage_fraction: {format_cell(report['front_coverage_fraction'])}")
    print(f"violations: {len(report['violations'])}")
    for vec in report["violations"]:
        print("  dominated: " + ", ".join(format_cell(x) for x in vec))
    passed = (
        report["on_front_fraction"] == 1.0
        and report["front_coverage_fraction"] >= ns.threshold
    )
    print("verdict: " + ("pass" if passed else "fail"))
    return 0 if passed else 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return ns.func(ns)
    except (UsageError, InstanceError) as exc:
        print(f"meshplan: error: {exc}", file=sys.stderr)
        return 1
    except GuardError as exc:
        print(f"meshplan: {exc}", file=sys.stderr)
        return 3
    except (ConstructionInfeasibleError, CandidateRejected) as exc:
        print(f"meshplan: infeasible: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
