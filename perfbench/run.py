"""End-to-end and per-layer benchmark of meshplan's plan and verify commands.

Each operation is one `meshplan.cli.main` call (`plan` or `verify`) on
generated inputs, in this process, with `--workers 1`. A workload is a fixed
list of recorded cases; `--seed` picks the case a run starts from, and a run
repeats whole passes over the list while its time budget lasts, so every run
measures the same work in a seed-dependent order. Every operation's outputs
are checked: exit status, artifact digests against `expected.json`, every
emitted plan against `check_constraints`, and for `verify` the true front and
the verdict.

  python3 perfbench/run.py --workload ref6x6 --seed 0 --seconds 60 --trace 0
  python3 perfbench/run.py --seed 0 --trace 0   # every workload in turn
  python3 perfbench/run.py --record            # re-record expected.json

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics from a traced pass (see
tracer.py). Both print the metric names BENCHMARK.json lists, no more.
Full details go to `.bench_build/perfbench/<workload>-trace<n>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, fields
from pathlib import Path
from time import perf_counter

from tracer import BINDINGS, CLI_MAIN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # "plan" or "verify"
    grid: tuple[int, int]
    dps: int
    radio: dict                  # RadioParams keyword arguments
    flags: tuple[str, ...]       # CLI flags besides --seed/--out/--instance
    cases: tuple[int, ...]       # CLI --seed values, one recorded case each
    instance_seed: int | None = None   # verify: fixed instance seed
    coverage_radius: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ref6x6", "plan", (6, 6), 200, {},
            ("--grid", "6x6", "--dps", "200", "--model", "lglb",
             "--gateways", "auto", "--swarm", "50", "--gmax", "5"),
            cases=(0, 1, 2),
        ),
        Workload(
            "verify2x3", "verify", (2, 3), 6,
            {"radios": 2, "channels": 3, "capacity": 8.0},
            ("--swarm", "20", "--gmax", "100"),
            cases=(0,),
            instance_seed=4,
            coverage_radius=0.8,
        ),
    )
}


def import_meshplan():
    """Import meshplan from this checkout's src/, afresh each call.

    Bytecode is cached under the work directory whatever the environment
    says, so set-up times a user's warm import, not a compile.
    """
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(WORK / "pycache")
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] == "meshplan"]:
        del sys.modules[name]
    importlib.import_module("meshplan.cli")
    mp = sys.modules["meshplan"]
    if not Path(mp.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"meshplan imported from {mp.__file__}, not {src}")
    return mp


def build_instance(mp, wl: Workload, case: int):
    """The instance the CLI builds for this case (verify: the fixed one)."""
    seed = case if wl.instance_seed is None else wl.instance_seed
    return mp.instance.build_grid_instance(
        *wl.grid, wl.dps, mp.instance.RadioParams(**wl.radio), seed,
        coverage_radius=wl.coverage_radius,
    )


def time_setup(wl: Workload, case: int) -> float:
    """One fresh import + instance build + lazy cache fill, in seconds.

    The modules the operations run on are put back afterwards, so the
    probe and the tracer keep patching the same objects.
    """
    kept = {name: module for name, module in sys.modules.items()
            if name.split(".")[0] == "meshplan"}
    t0 = perf_counter()
    mp = import_meshplan()
    inst = build_instance(mp, wl, case)
    mp.instance.coverage_matrix(inst)
    mp.instance.connectivity_matrix(inst)
    inst.link_capacities()
    elapsed = perf_counter() - t0
    for name in [m for m in sys.modules if m.split(".")[0] == "meshplan"]:
        del sys.modules[name]
    sys.modules.update(kept)
    return elapsed


class Probe:
    """Op-level capture of `mopso.run` and the oracle front, always on.

    One wrapper call per operation; it times `run` and keeps only what the
    checks and metrics need (for `verify`, the few archive plans).
    """

    def __init__(self, mp):
        self.cli = mp.cli
        self.run, self.front_fn = mp.cli.run, mp.cli.true_pareto_front
        self.reset()

    def reset(self):
        self.run_s = 0.0
        self.evaluations = 0
        self.result = None
        self.front = None

    def install(self):
        def run(instance, config):
            t0 = perf_counter()
            result = self.run(instance, config)
            self.run_s += perf_counter() - t0
            self.evaluations += result.evaluations
            self.result = result
            return result

        def true_pareto_front(*args, **kwargs):
            self.front = self.front_fn(*args, **kwargs)
            return self.front

        self.cli.run, self.cli.true_pareto_front = run, true_pareto_front


@dataclass
class Op:
    case: int
    out: Path
    rc: int | None = None
    wall_s: float = 0.0
    run_s: float = 0.0
    evaluations: int = 0
    stdout: str = ""
    error: str = ""
    traced: bool = False
    archive_size: int = 0
    solution_bytes: int = 0
    front: list | None = None
    plans: list | None = None     # verify: (label, solution) to re-check
    digests: dict | None = None
    problems: list | None = None


def solution_nbytes(sol) -> int:
    return sum(getattr(sol, f.name).nbytes for f in fields(sol)
               if hasattr(getattr(sol, f.name), "nbytes"))


def argv_for(wl: Workload, case: int, out: Path) -> list[str]:
    argv = [wl.command, *wl.flags, "--workers", "1", "--seed", str(case)]
    if wl.command == "plan":
        return argv + ["--out", str(out)]
    return argv + ["--instance", str(WORK / wl.name / "instance.json")]


def run_op(mp, wl: Workload, case: int, out: Path, probe: Probe,
           tracer: Tracer | None = None) -> Op:
    op = Op(case, out, traced=tracer is not None)
    argv = argv_for(wl, case, out)
    probe.reset()
    sink = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            main = mp.cli.main
            if tracer is not None:
                main = tracer.wrap(CLI_MAIN, "harness:cli.main", main)
            op.rc = main(argv)
    except Exception:  # an operation that raises is a failed operation
        op.error = traceback.format_exc()
    op.wall_s = perf_counter() - t0
    op.stdout = sink.getvalue()
    op.run_s, op.evaluations = probe.run_s, probe.evaluations
    result = probe.result
    if result is not None:
        op.archive_size = len(result.archive)
        op.solution_bytes = solution_nbytes(result.incumbent)
        if wl.command == "verify":
            op.front = [list(v) for v in probe.front or []]
            op.plans = [(f"archive[{i}]", e.solution)
                        for i, e in enumerate(result.archive.entries)]
            op.plans.append(("incumbent", result.incumbent))
    probe.reset()
    return op


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def op_digests(wl: Workload, op: Op) -> dict:
    if wl.command == "plan":
        return {name: sha256((op.out / name).read_bytes())
                for name in ("archive.json", "stats.csv")}
    verdict = "pass" if "verdict: pass" in op.stdout else "fail"
    return {"stdout": sha256(op.stdout.encode()), "front": op.front,
            "verdict": verdict, "exit": op.rc}


def plan_problems(mp, wl: Workload, op: Op) -> list[str]:
    """Re-check every emitted plan of one operation with check_constraints."""
    problems = []
    inst = build_instance(mp, wl, op.case)
    if wl.command == "plan":
        archive = json.loads((op.out / "archive.json").read_text())
        if archive["instance_hash"] != inst.content_hash():
            problems.append("archive.json names another instance")
        cheapest = json.loads((op.out / "cheapest.json").read_text())
        items = [(f"archive[{i}]", e["solution"])
                 for i, e in enumerate(archive["entries"])]
        items.append(("cheapest", cheapest["solution"]))
        plans = ((label, mp.model.solution_from_dict(data))
                 for label, data in items)
    else:
        plans = iter(op.plans or ())
    count = 0
    for label, sol in plans:
        count += 1
        report = mp.model.check_constraints(sol, inst)
        if not report.feasible:
            failed = ",".join(c.id for c in report.failed())
            problems.append(f"{label} fails {failed}")
    if count == 0:
        problems.append("no plan emitted")
    return problems


def check_op(mp, wl: Workload, op: Op, expected: dict | None,
             rechecked: dict) -> None:
    """Fill op.digests and op.problems; an op with problems has failed.

    expected=None records instead of comparing: any exit status of verify
    is then accepted and becomes part of the digests. Plans are re-checked
    once per case and digests; `rechecked` carries those results between
    calls, since a repeat with equal digests emitted the same bytes.
    """
    if expected is None:
        want_rc = 0 if wl.command == "plan" else op.rc
    else:
        want_rc = expected.get("exit", 0)
    problems = []
    if op.error:
        problems.append("raised: " + op.error.strip().splitlines()[-1])
    elif op.rc != want_rc:
        problems.append(f"exit code {op.rc}")
    if not problems:
        op.digests = op_digests(wl, op)
        if expected == {}:
            problems.append(f"no recorded digests for case {op.case}")
        for key, want in (expected or {}).items():
            if op.digests.get(key) != want:
                problems.append(f"{key} differs from the recorded value")
        key = (op.case, json.dumps(op.digests, sort_keys=True))
        if key not in rechecked:
            rechecked[key] = plan_problems(mp, wl, op)
        problems += rechecked[key]
    op.problems = problems


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def machine_stamp(mp) -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    numba_ok = importlib.util.find_spec("numba") is not None
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba_importable": numba_ok,
        "kernel_path": "numba" if mp.kernels.NUMBA_ENABLED else "python",
    }


def run_passes(mp, wl, order, probe, seconds, tracer=None):
    """Whole passes over the cases while the budget allows another pass.

    Set-up is timed SETUP_REPEATS times before each untraced operation, so
    its samples span the run as the operations' do. With a tracer, each
    case runs untraced and then traced: the pair gives the tracing overhead
    and two sets of digests that must agree.
    """
    plain, traced, setup = [], [], []
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        for case in order:
            setup += [time_setup(wl, case) for _ in range(SETUP_REPEATS)]
            out = WORK / wl.name / f"op{len(plain)}"
            plain.append(run_op(mp, wl, case, out, probe))
            if tracer is None:
                continue
            tracer.install()
            try:
                out = WORK / wl.name / f"traced{len(traced)}"
                traced.append(run_op(mp, wl, case, out, probe, tracer))
            finally:
                tracer.uninstall()
        pass_s = perf_counter() - t_pass
        if perf_counter() - t_start + pass_s > seconds:
            return plain, traced, setup


def quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, traced: list[Op], plain: list[Op],
                  numba: bool) -> dict:
    """Per-layer values; totals are averaged per traced operation."""
    n = len(traced)
    out = {"kernels.numba_enabled": float(numba)}
    for name in {b[0] for b in BINDINGS}:
        out[f"{name}.calls"] = tracer.calls[name] / n
        out[f"{name}.s"] = tracer.busy[name] / n
        out[f"{name}.self_s"] = tracer.self_time[name] / n
    for name, value in tracer.counts.items():
        out[name] = value / n
    attempts = tracer.binding_calls["mopso:rebuild_pipeline"]
    ok = tracer.counts["feasible@mopso:check_constraints"]
    out["mopso.rebuild.attempts"] = attempts / n
    out["mopso.attempt_ok_ratio"] = ok / attempts if attempts else 0.0
    out["mopso.candidate_ms.p50"] = quantile(tracer.candidate_ms, 0.5)
    out["mopso.candidate_ms.p99"] = quantile(tracer.candidate_ms, 0.99)
    out["mopso.candidate_ms.samples"] = float(len(tracer.candidate_ms))
    out["mopso.archive.size"] = sum(op.archive_size for op in traced) / n
    out["model.solution_bytes"] = statistics.median(
        op.solution_bytes for op in traced)
    out["oracle.candidates"] = tracer.binding_calls["oracle:route_flows"] / n
    out["oracle.feasible"] = tracer.counts["feasible@oracle:check_constraints"] / n
    out["cli.other_s"] = tracer.self_time[CLI_MAIN] / n
    out["cli.archive_json_bytes"] = statistics.median(
        (op.out / "archive.json").stat().st_size
        if (op.out / "archive.json").exists() else 0 for op in traced)
    wall = sum(op.wall_s for op in traced)
    out["trace.ops"] = float(n)
    out["trace.wall_s"] = wall / n
    out["trace.unattributed_s"] = (wall - sum(tracer.self_time.values())) / n
    out["trace.overhead_s"] = statistics.median(
        t.wall_s - p.wall_s for t, p in zip(traced, plain))
    return out


def sustained(values: list[float]) -> float:
    """Mean of the slowest quarter of the values, and of at least two.

    The host is shared: for stretches of seconds it runs this process up to
    1.6x faster than its sustained speed, and how much of a run falls in
    such stretches differs from run to run. The slow end of the samples is
    the sustained speed, which repeats; a median swings with the mix.
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[-max(2, len(ordered) // 4):])


def case_values(ops: list[Op], attr: str) -> dict[int, float]:
    by_case: dict[int, list[float]] = {}
    for op in ops:
        by_case.setdefault(op.case, []).append(getattr(op, attr))
    return {case: sustained(v) for case, v in by_case.items()}


def select(listed: list[dict], values: dict) -> dict:
    """Exactly the metrics BENCHMARK.json lists; absent counters read 0."""
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in listed}


def write_details(wl: Workload, trace: int, details: dict) -> None:
    path = WORK / f"{wl.name}-trace{trace}.json"
    path.write_text(json.dumps(details, indent=2, sort_keys=True, default=str))


def prepare(wl: Workload) -> None:
    shutil.rmtree(WORK / wl.name, ignore_errors=True)
    (WORK / wl.name).mkdir(parents=True)


def save_verify_instance(mp, wl: Workload) -> None:
    if wl.command == "verify":
        mp.instance.save_instance(build_instance(mp, wl, wl.cases[0]),
                                  WORK / wl.name / "instance.json")


def benchmark(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    expected = load_expected()[wl.name]
    start = args.seed % len(wl.cases)
    order = [wl.cases[(start + k) % len(wl.cases)] for k in range(len(wl.cases))]
    prepare(wl)

    mp = import_meshplan()
    stamp = machine_stamp(mp)
    save_verify_instance(mp, wl)
    probe = Probe(mp)
    probe.install()

    tracer = Tracer() if args.trace else None
    plain, traced, setup = run_passes(mp, wl, order, probe, args.seconds,
                                      tracer)
    values = {"peak_rss_mb":
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    ops = plain + traced
    rechecked = {}
    for op in ops:
        check_op(mp, wl, op, expected.get(str(op.case), {}), rechecked)
    failed = sum(1 for op in ops if op.problems)

    if args.trace:
        selftest = tracer.selftest_failures(wl.name)
        if any(t.digests != p.digests for t, p in zip(traced, plain)):
            selftest.append("traced and untraced digests differ")
        values.update(layer_metrics(tracer, traced, plain,
                                    mp.kernels.NUMBA_ENABLED))
        values["trace.selftest_failures"] = float(len(selftest))
        listed = spec["per_layer"]
    else:
        selftest = []
        # Cases differ in cost: summarize each case over the passes, then
        # combine the cases.
        wall = case_values(ops, "wall_s")
        values["wall_s"] = statistics.fmean(wall.values())
        run_s = case_values(ops, "run_s")
        evaluations = case_values(ops, "evaluations")
        values["evals_per_s"] = sum(evaluations.values()) / sum(run_s.values())
        values["setup_s"] = sustained(setup)
        listed = spec["end_to_end"]

    for op in ops:
        shown = " ".join(f"{k}={v[:12] if isinstance(v, str) else v}"
                         for k, v in (op.digests or {}).items() if k != "front")
        status = "ok" if not op.problems else "FAILED: " + "; ".join(op.problems)
        kind = "traced" if op.traced else "plain"
        print(f"{wl.name} case {op.case} {kind} wall {op.wall_s:.3f}s {shown} {status}")
    for problem in selftest:
        print(f"self-test: {problem}")
    if not args.trace:
        print(f"error_rate: {failed / len(ops):.4g} ratio ({failed}/{len(ops)} ops)")
        for m in listed:
            print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    print("machine: " + json.dumps(stamp, sort_keys=True))

    correct = failed == 0 and not selftest
    write_details(wl, args.trace, {
        "machine": stamp, "seed": args.seed, "order": order,
        "metrics": values, "selftest": selftest, "setup_s": setup,
        "ops": [{"case": op.case, "wall_s": op.wall_s, "run_s": op.run_s,
                 "evaluations": op.evaluations, "rc": op.rc, "traced": op.traced,
                 "digests": op.digests, "problems": op.problems}
                for op in ops],
        "bindings": dict(tracer.binding_calls) if args.trace else {},
    })
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": select(listed, values),
    }))
    return 0


def record(args) -> int:
    """Run every case once, untraced, and store its digests."""
    expected = load_expected() if EXPECTED.exists() else {}
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        wl = WORKLOADS[name]
        prepare(wl)
        mp = import_meshplan()
        save_verify_instance(mp, wl)
        probe = Probe(mp)
        probe.install()
        entries = {}
        for case in wl.cases:
            op = run_op(mp, wl, case, WORK / wl.name / f"case{case}", probe)
            check_op(mp, wl, op, None, {})
            if op.problems:
                print(f"{name} case {case}: {op.problems}", file=sys.stderr)
                return 1
            entries[str(case)] = op.digests
            print(f"{name} case {case}: {op.wall_s:.2f}s recorded")
        expected[name] = entries
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a child process of its own.

    A process per workload keeps one workload's peak RSS out of the next.
    """
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False)
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json from the current code")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.record:
            return record(args)
        if args.workload is None:
            return run_all(args)
        return benchmark(args)
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot run: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
