"""Lazy start-up of the command line, checked in child interpreters.

``import parhiggs.cli`` loads only what every subcommand needs; each handler
imports its calculator module when it runs, and the parser gives arguments
only to the subcommand named on the command line.  No module of the package
loads ``dataclasses`` or ``inspect``.  These tests pin the import graph and
check that a ``python -m parhiggs.cli`` child prints what in-process
``main`` prints, for every subcommand and its help.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from parhiggs.cli import main
from parhiggs.codec import to_json
from parhiggs.stability import hitchin_sp_triple

REPO_ROOT = Path(__file__).resolve().parents[1]
# argparse wraps help text to the terminal width; pin it for both sides
CHILD_ENV = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                 PYTHONDONTWRITEBYTECODE="1", COLUMNS="80")
CHILD_ENV.pop("PARHIGGS_CAP", None)

LOADED = ("import json, sys\n"
          "print(json.dumps([m for m in sys.modules\n"
          "                  if m == 'parhiggs' or m.startswith('parhiggs.')]))\n")


def _child(args):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60, env=CHILD_ENV)


# standard modules that no child needs: dataclasses loads inspect, which
# loads ast, dis and tokenize
UNNEEDED = ("dataclasses", "inspect")


def _loaded_after(code: str) -> set[str]:
    proc = _child(["-c", code + "\n" + LOADED])
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


# ---------------------------------------------------------- import graph ----

def test_cli_import_loads_only_the_shared_modules():
    assert _loaded_after("import parhiggs.cli") == {
        "parhiggs", "parhiggs.cli", "parhiggs.codec", "parhiggs.exact_core",
        "parhiggs.surface"}


def test_components_import_loads_neither_orbifold_nor_parbun():
    loaded = _loaded_after("import parhiggs.components")
    assert "parhiggs.components" in loaded
    assert not loaded & {"parhiggs.orbifold", "parhiggs.parbun"}


def test_pardeg_loads_no_other_calculator():
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from parhiggs.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['pardeg', '--g', '2', '--s', '1', '--line',\n"
        "                 '{\"degree\": 1, \"weights\": {\"x1\": \"1/2\"}}']) == 0")
    assert "parhiggs.parbun" in loaded
    assert not loaded & {"parhiggs.stability", "parhiggs.components",
                         "parhiggs.orbifold", "parhiggs.dimension",
                         "parhiggs.vcoh"}


def test_no_library_module_loads_dataclasses_or_inspect():
    modules = sorted(f"parhiggs.{p.stem}" for p in
                     (REPO_ROOT / "src" / "parhiggs").glob("*.py")
                     if p.stem != "__init__")
    assert len(modules) == 10
    proc = _child(["-c", f"import sys, {', '.join(modules)}\n"
                         f"print([m for m in {UNNEEDED!r} if m in sys.modules])"])
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# --------------------------------------------------- child vs in-process ----

TRIPLE = json.dumps(to_json(hitchin_sp_triple(2, 2, 1)))

ONE_ARGV_PER_SUBCOMMAND = [
    ["pardeg", "--g", "2", "--s", "1", "--line",
     '{"degree": -1, "weights": {"x1": "1/2"}}'],
    ["stability", "--triple", TRIPLE],
    ["toledo", "--triple", TRIPLE, "--format", "markdown"],
    ["mw", "--n", "2", "--g", "2", "--s", "1", "--rk-plus", "1",
     "--rk-minus", "1"],
    ["hitchin", "--k", "4", "--g", "2", "--s", "1", "--triple"],
    ["components", "--group", "su", "--n", "2", "--g", "1", "--s", "2",
     "--mode", "fixed-even", "--emit-tables", "--format", "csv"],
    ["tables", "--g", "2", "--s", "1"],
    ["dims", "--formula", "sparadim", "--n", "3", "--g", "2", "--s", "1",
     "--flags", "trivial"],
    ["vcoh", "--g", "1", "--s", "2", "--mode", "punctured"],
    ["orbifold", "--g", "1", "--s", "2", "--orders", "2,3",
     "--desing-degree", "1", "--isotropy", "1,2"],
    ["characters", "--g", "1", "--s", "2", "--enumerate"],
    ["roots", "--g", "2", "--s", "1", "--desing-degree", "2"],
    ["s1-report", "--group", "sp4", "--g", "2"],
]

# every flag each subcommand accepts, besides the shared -h, --format, --cap
SUBCOMMAND_FLAGS = {
    "pardeg": {"--g", "--s", "--orders", "--line", "--bundle"},
    "stability": {"--model", "--triple"},
    "toledo": {"--triple"},
    "mw": {"--n", "--g", "--s", "--rk-plus", "--rk-minus"},
    "hitchin": {"--k", "--g", "--s", "--triple"},
    "components": {"--group", "--n", "--g", "--s", "--mode",
                   "--emit-tables"},
    "tables": {"--g", "--s"},
    "dims": {"--formula", "--n", "--g", "--s", "--flags", "--dim-c",
             "--name", "--lie-group", "--rk-mc"},
    "vcoh": {"--g", "--s", "--mode"},
    "orbifold": {"--g", "--s", "--orders", "--desing-degree", "--isotropy"},
    "characters": {"--g", "--s", "--orders", "--enumerate"},
    "roots": {"--g", "--s", "--orders", "--desing-degree", "--isotropy"},
    "s1-report": {"--group", "--n", "--g"},
}
SHARED_FLAGS = {"-h", "--help", "--format", "--cap"}

PARITY_CASES = (
    [pytest.param(argv, 0, id=argv[0]) for argv in ONE_ARGV_PER_SUBCOMMAND]
    + [pytest.param(["--help"], 0, id="help"),
       pytest.param(["bogus"], 2, id="unknown-subcommand"),
       pytest.param(["components", "--g", "1"], 2, id="missing-flag")]
    + [pytest.param([sub, "--help"], 0, id=f"{sub}-help")
       for sub in SUBCOMMAND_FLAGS])


def test_every_subcommand_has_one_parity_argv(capsys):
    assert main(["--help"]) == 0
    listed = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1)
    assert [argv[0] for argv in ONE_ARGV_PER_SUBCOMMAND] == \
        list(SUBCOMMAND_FLAGS) == listed.split(",")


def test_no_subcommand_loads_dataclasses_or_inspect():
    proc = _child(["-c", "import contextlib, io, sys\n"
                         "from parhiggs.cli import main\n"
                         f"for argv in {ONE_ARGV_PER_SUBCOMMAND!r}:\n"
                         "    with contextlib.redirect_stdout(io.StringIO()):\n"
                         "        assert main(argv) == 0, argv\n"
                         f"print([m for m in {UNNEEDED!r} if m in sys.modules])"])
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("argv,want_code", PARITY_CASES)
def test_child_prints_what_in_process_main_prints(capsys, monkeypatch, argv,
                                                  want_code):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("PARHIGGS_CAP", raising=False)
    assert main(list(argv)) == want_code
    out = capsys.readouterr().out
    proc = _child(["-m", "parhiggs.cli", *argv])
    assert (proc.returncode, proc.stdout) == (want_code, out), proc.stderr


@pytest.mark.parametrize("sub", list(SUBCOMMAND_FLAGS))
def test_subcommand_help_names_every_flag(capsys, monkeypatch, sub):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([sub, "--help"]) == 0
    named = set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)",
                           capsys.readouterr().out))
    assert named == SUBCOMMAND_FLAGS[sub] | SHARED_FLAGS
