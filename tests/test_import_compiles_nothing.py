"""Importing the package compiles no generated source.

A value class's ``__init__`` is generated on its first lookup (its first
construction, or ``inspect.signature``), not when the module is imported,
and no module builds a ``typing.NamedTuple`` or compiles a pattern at
import.  The children below watch the ``compile`` audit event (PEP 578):
it fires for every ``exec``, ``eval`` or ``compile`` of source text, and for
a module compiled from its ``.py`` file, which is the only kind allowed at
import.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

from parhiggs.surface import MarkedPoint

REPO_ROOT = Path(__file__).resolve().parents[1]
CHILD_ENV = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                 PYTHONDONTWRITEBYTECODE="1")
MODULES = sorted(f"parhiggs.{p.stem}" for p in
                 (REPO_ROOT / "src" / "parhiggs").glob("*.py")
                 if p.stem != "__init__")

# the standard modules the package uses, loaded before the hook so that
# only the package's own import is watched
PRELUDE = f"""\
import argparse, fractions, functools, itertools, json, math, re, sys, typing
generated = []


def hook(event, args):
    if event == "compile" and not (isinstance(args[1], str)
                                   and args[1].endswith(".py")):
        generated.append(repr(args[1]))


sys.addaudithook(hook)
import {", ".join(MODULES)}
"""


def _run(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code],
                          capture_output=True, text=True, timeout=60,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_every_module_compiles_no_generated_source():
    assert len(MODULES) == 10 and "parhiggs.cli" in MODULES
    assert _run("print(generated)") == "[]\n"


def test_the_first_construction_generates_init_once():
    out = _run("from parhiggs.dimension import DimSummand\n"
               "print(type(DimSummand.__dict__['__init__']).__name__)\n"
               "DimSummand('a', 1, 2)\n"
               "print(type(DimSummand.__dict__['__init__']).__name__,"
               " len(generated))\n"
               "DimSummand('b', None, 3)\n"
               "print(len(generated))\n")
    assert out == "_InitOnFirstUse\nfunction 1\n1\n"


SIGNATURES = """
import inspect
for name in sorted(sys.modules):
    mod = sys.modules[name]
    if not name.startswith("parhiggs."):
        continue
    for cls in [v for v in vars(mod).values() if isinstance(v, type)
                and v.__module__ == name and "_value_fields" in v.__dict__]:
        assert type(cls.__dict__["__init__"]).__name__ == "_InitOnFirstUse"
        params = inspect.signature(cls).parameters.values()
        got = [(p.name, p.default is p.empty) for p in params]
        assert got == list(cls._value_fields), (cls, got)
        assert type(cls.__dict__["__init__"]).__name__ == "function"
        print(cls.__name__)
"""


def test_a_value_class_never_built_gives_its_signature():
    # every value class, each looked up before any value of it is built
    assert len(_run(SIGNATURES).split()) == 28


def test_a_built_class_holds_a_plain_function():
    MarkedPoint("x1")
    init = MarkedPoint.__dict__["__init__"]
    assert type(init) is FunctionType
    assert init.__code__.co_varnames[:3] == ("self", "label", "order")
    assert init.__defaults__ == (2,)


def test_importcost_reports_every_module_and_no_compile():
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "tools" / "importcost.py"),
                           "--reps", "1"], capture_output=True, text=True,
                          timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    rows = [line.rsplit(None, 2) for line in proc.stdout.splitlines()[1:]]
    labels = [label for label, _, _ in rows]
    assert sorted(labels[:-1]) == MODULES and labels[-1] == "all ten"
    assert all(float(ms) > 0 and compiles == "0" for _, ms, compiles in rows)
