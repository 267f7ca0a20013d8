"""Import cost of each parhiggs module, standard library only.

    python3 tools/importcost.py [--reps 30] [--src path/to/src]

Each row imports one module afresh: every ``parhiggs`` module is dropped
from ``sys.modules`` first, so a module pays for the package modules it
imports too.  The last row imports ``parhiggs.cli`` and all nine library
modules together.  The standard modules the package uses are loaded
before any timing, and bytecode is written to and read from a temporary
``sys.pycache_prefix`` (warmed by one untimed import of everything), as
perfbench's ``import_library`` does, so the numbers are the package's own
import work with warm bytecode whatever ``PYTHONDONTWRITEBYTECODE`` says.

Printed per row: the median milliseconds over ``--reps`` imports, and the
count of ``compile`` audit events (PEP 578) whose file name is not a
``.py`` path, that is, source generated and compiled while importing.  The
events are counted in one more import per row, after all timing, since an
audit hook cannot be removed once added.
"""

from __future__ import annotations

import argparse
import functools  # noqa: F401  (the standard modules the package uses)
import fractions  # noqa: F401
import importlib
import itertools  # noqa: F401
import json  # noqa: F401
import math  # noqa: F401
import re  # noqa: F401
import shutil
import sys
import tempfile
import typing  # noqa: F401
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ("exact_core", "codec", "surface", "parbun", "stability", "orbifold",
           "vcoh", "dimension", "components")
ROWS = [(f"parhiggs.{m}", (f"parhiggs.{m}",)) for m in (*LIBRARY, "cli")]
ROWS.append(("all ten", tuple(name for name, _ in ROWS)))


def _forget_package() -> None:
    for name in [m for m in sys.modules
                 if m == "parhiggs" or m.startswith("parhiggs.")]:
        del sys.modules[name]


def _import_afresh(names) -> float:
    _forget_package()
    t0 = perf_counter()
    for name in names:
        importlib.import_module(name)
    return perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=30,
                        help="timed imports per row (default 30)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory holding the parhiggs package")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if not (args.src / "parhiggs" / "__init__.py").is_file():
        parser.error(f"no parhiggs package under {args.src}")

    sys.path.insert(0, str(args.src.resolve()))
    prefix = tempfile.mkdtemp(prefix="importcost-")
    sys.pycache_prefix, sys.dont_write_bytecode = prefix, False
    try:
        _import_afresh(ROWS[-1][1])  # writes the bytecode
        times = {label: [] for label, _ in ROWS}
        for _ in range(args.reps):   # rows interleaved, so drift is shared
            for label, names in ROWS:
                times[label].append(_import_afresh(names))

        compiles = []

        def hook(event, event_args):
            if event == "compile" and not (isinstance(event_args[1], str)
                                           and event_args[1].endswith(".py")):
                compiles.append(event_args[1])

        sys.addaudithook(hook)
        counts = {}
        for label, names in ROWS:
            compiles.clear()
            _import_afresh(names)
            counts[label] = len(compiles)
    finally:
        shutil.rmtree(prefix, ignore_errors=True)

    print(f"{'module':<22} {'median_ms':>9} {'compiles':>8}")
    for label, _ in ROWS:
        print(f"{label:<22} {median(times[label]) * 1e3:>9.3f} "
              f"{counts[label]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
