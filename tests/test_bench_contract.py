"""The program names the benchmark under perfbench/ reads or patches.

`perfbench/run.py` and `perfbench/tracer.py` reach into meshplan's modules
by name after importing `meshplan.cli`. Deleting or renaming one of those
names breaks the benchmark without breaking any other test, so these tests
pin them.
"""

import importlib.util
import re
import sys
from pathlib import Path

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


def _tracer_bindings():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


def test_tracer_bindings_resolve():
    bindings = _tracer_bindings()
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


def test_numba_flag_exists():
    assert meshplan.kernels.NUMBA_ENABLED is False


def test_link_capacities_takes_no_arguments(standard_instance):
    assert standard_instance.link_capacities() == {}
