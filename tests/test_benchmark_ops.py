"""Pass 0 of each in-process benchmark workload, judged by its own checks.

``perfbench/run.py`` is loaded by path, as ``tools/corpus.py`` loads the
benchmark, and runs pass 0 (seed 1) of verdict-sweep, component-grid and
orbifold-dictionary through its ``run_ops``: every op goes through the
workload's ``execute`` and is judged by its ``check`` against
``perfbench/oracles.py``, which never imports parhiggs.  A library change
that makes a benchmark op wrong therefore fails here, not only in a
benchmark run.  As in the runner, a failure that the known-defect register
(``perfbench/expectations.json``) names is not a problem.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("verdict-sweep", "component-grid", "orbifold-dictionary")
SEED = 1


@pytest.fixture(scope="module")
def bench():
    """The runner module and the three workload classes.  The runner and the
    workloads import their siblings by bare name, so ``perfbench/`` is on
    ``sys.path`` only while they load, and those bare names are taken out of
    ``sys.modules`` after it: a later bare ``import oracles`` cannot get the
    benchmark's copy.  The loaded modules keep their own references."""
    saved = list(sys.path)
    before = set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        classes = {name: run.workload_class(name) for name in WORKLOADS}
    finally:
        sys.path[:] = saved
        for name in set(sys.modules) - before:
            if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == BENCH:
                del sys.modules[name]
    # the modules the test run already imported, not the runner's fresh copy,
    # so that DomainError stays one class for the tests that follow
    lib = SimpleNamespace(**{name: importlib.import_module(f"parhiggs.{name}")
                             for name in run.LIBRARY_MODULES})
    known = json.loads((BENCH / "expectations.json").read_text())["known_defects"]
    return run, classes, lib, known


@pytest.mark.parametrize("name", WORKLOADS)
def test_benchmark_pass_zero_has_no_unexpected_problem(bench, name, monkeypatch):
    run, classes, lib, known = bench
    monkeypatch.delenv("PARHIGGS_CAP", raising=False)
    wl = classes[name](lib)
    ops = wl.setup(SEED)
    assert ops
    problems = []

    def on_result(op, latency, result, error):
        # the runner's rule for a known defect (perfbench/run.py, the
        # on_result of its main loop): a "known:" problem the register names
        problem = wl.check(op, result, error)
        if problem is not None and not (problem.startswith("known:")
                                        and problem[6:] in known):
            problems.append(problem)

    assert run.run_ops(wl, run.NoTrace(), ops, 0, on_result) == len(ops)
    assert problems == []
