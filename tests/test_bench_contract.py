"""The program names the benchmark under perfbench/ reads or patches, and
the command lines it sends.

`perfbench/run.py` and `perfbench/tracer.py` reach into meshplan's modules
by name after importing `meshplan.cli`, and `run.py` passes fixed argv lists
to `meshplan.cli.main`. Deleting or renaming one of those names, or a flag
that stops parsing, breaks the benchmark without breaking any other test,
so these tests pin them.
"""

import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES, make_verify2x3_instance
import meshplan.cli  # noqa: F401  the benchmark's one import; loads the rest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(dotted: str):
    """Follow `module.attr[.attr]` from the meshplan package; None if absent."""
    owner = sys.modules["meshplan"]
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def _load(name: str, monkeypatch):
    """Execute perfbench/<name>.py as a fresh module, registered for the test."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve(monkeypatch):
    bindings = _load("tracer", monkeypatch).BINDINGS
    assert bindings
    missing = [
        f"{module}:{attr}" for _, module, attr, _ in bindings
        if not callable(_resolve(f"{module}.{attr}"))
    ]
    assert missing == []


def test_names_run_py_reads_resolve():
    names = set(re.findall(
        r"\bmp\.(\w+\.\w+)", (PERFBENCH / "run.py").read_text()
    ))
    assert "kernels.NUMBA_ENABLED" in names
    assert [name for name in sorted(names) if _resolve(name) is None] == []


def test_failure_counters_name_rejection_classes():
    # run.py reports an absent counter as 0, so a renamed class would
    # silently zero the metric BENCHMARK.json lists under its old name
    listed = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    names = {
        metric["name"].split(".fail.")[1]
        for metric in listed["per_layer"] if ".fail." in metric["name"]
    }
    assert names
    rejections = {
        obj.__name__
        for module in vars(meshplan).values() if isinstance(module, type(meshplan))
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, meshplan.model.CandidateRejected)
    }
    assert names - rejections <= {"ValueError"}


def test_tracer_counts_fallback_as_second_argument(standard_instance, monkeypatch):
    # the tracer counts a mutation as a fallback when it returns its second
    # argument, so mutate_solution keeps a (base, fallback, ...) signature
    tracer = _load("tracer", monkeypatch)
    plan = meshplan.construct.construct_feasible(
        standard_instance, np.random.default_rng(0)
    )
    spans = tracer.Tracer()
    spans.install()
    try:
        out = meshplan.mopso.mutate_solution(
            plan, plan, standard_instance, np.random.default_rng(0), mut=0.0,
            outcomes=meshplan.construct.Outcomes(8),
        )
        assert out is plan
        assert spans.counts["mopso.mutate_solution.fallbacks"] == 1
        other = plan.copy()
        out = meshplan.mopso.mutate_solution(
            plan, other, standard_instance, np.random.default_rng(0), mut=0.0,
            outcomes=meshplan.construct.Outcomes(8),
        )
    finally:
        spans.uninstall()
    assert out is other
    assert spans.counts["mopso.mutate_solution.fallbacks"] == 2


def test_numba_flag_exists():
    assert meshplan.kernels.NUMBA_ENABLED is False


def test_link_capacities_takes_no_arguments(standard_instance):
    assert standard_instance.link_capacities() == {}


def test_benchmark_argv_parses(monkeypatch, tmp_path):
    # run.py imports its sibling as `tracer`
    monkeypatch.setitem(sys.modules, "tracer", _load("tracer", monkeypatch))
    bench = _load("run", monkeypatch)
    parser = meshplan.cli.build_parser()
    sent = set()
    for wl in bench.WORKLOADS.values():
        for case in wl.cases:
            argv = bench.argv_for(wl, case, tmp_path)
            ns = parser.parse_args(argv)
            assert (ns.command, ns.seed, ns.workers) == (wl.command, case, 1)
            sent.update(argv)
    assert {"--workers", "--gateways", "--model"} <= sent


@pytest.mark.parametrize("source", ["verify2x3", "toy2x2"])
def test_saved_instance_loads_back(source, tmp_path):
    # verify2x3 saves its instance with save_instance and loads it inside
    # every operation, so a reader that refused what the writer writes
    # would fail every operation of that workload
    if source == "verify2x3":
        inst = make_verify2x3_instance()
    else:
        inst = meshplan.instance.load_instance(FIXTURES / "toy2x2_instance.json")
    path = tmp_path / "instance.json"
    meshplan.instance.save_instance(inst, path)
    assert meshplan.instance.load_instance(path).content_hash() == inst.content_hash()


@pytest.mark.parametrize("name", ["ref6x6", "verify2x3"])
def test_tracer_selftest_passes(name, monkeypatch, tmp_path):
    # A refactor that moves a call out of the module whose binding the
    # tracer patches leaves that binding uncalled; the self-test names it.
    tracer = _load("tracer", monkeypatch)
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    bench = _load("run", monkeypatch)
    wl = bench.WORKLOADS[name]
    case = wl.cases[0]
    argv = bench.argv_for(wl, case, tmp_path / "out")
    if wl.command == "verify":
        path = tmp_path / "instance.json"
        meshplan.instance.save_instance(
            bench.build_instance(sys.modules["meshplan"], wl, case), path
        )
        argv[argv.index("--instance") + 1] = str(path)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert meshplan.cli.main(argv) == 0
    finally:
        spans.uninstall()
    assert spans.selftest_failures(name) == []
