"""The CLI and the demos print, byte for byte, what the committed corpus holds.

``tests/golden/cli_corpus.json`` pins the exit code and the sha256 of stdout
and stderr for a frozen set of argvs and for every demo; ``tools/corpus.py``
writes it and prints the entries that changed.  The corpus is also replayed
by ``tools/corpus.py`` in a child under each other CPython it pins, where one
is installed.
"""

import importlib.util
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "corpus.py"
_spec = importlib.util.spec_from_file_location("parhiggs_corpus", TOOL)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

DOC = corpus.load()
GROUPS = sorted({entry["group"] for entry in DOC["argvs"]})


def _mismatches(entries):
    return [entry.get("argv", entry.get("demo")) for entry in entries
            if corpus.replay(entry) != entry]


@pytest.mark.parametrize("group", GROUPS)
def test_argv_output_matches_corpus(group):
    entries = [e for e in DOC["argvs"] if e["group"] == group]
    assert entries
    assert _mismatches(entries) == []


def test_demo_output_matches_corpus():
    demos = sorted(p.name for p in corpus.DEMO_DIR.glob("*.py"))
    assert [e["demo"] for e in DOC["demos"]] == demos
    assert _mismatches(DOC["demos"]) == []


def _interpreter(version: str) -> str | None:
    """A working ``python<version>``: on PATH, or under
    ``$PYENV_ROOT/versions`` (default ``~/.pyenv``)."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    found = [shutil.which(f"python{version}"),
             *sorted(root.glob(f"versions/{version}.*/bin/python{version}"))]
    probe = f"import sys; assert '%d.%d' % sys.version_info[:2] == {version!r}"
    for exe in filter(None, found):
        if subprocess.run([exe, "-c", probe], capture_output=True,
                          timeout=60).returncode == 0:
            return str(exe)
    return None


# Help text follows the interpreter's argparse: 3.13 wraps usage lines
# differently, so under it exactly these four --help argvs differ from the
# pinned bytes, and every other entry (all JSON, Markdown and CSV) does not.
WRAPPED_HELP = {"3.13": [["--help"], ["characters", "--help"],
                         ["dims", "--help"], ["vcoh", "--help"]]}


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_corpus_replays_unchanged_under_another_interpreter(version):
    exe = _interpreter(version)
    if exe is None:
        pytest.skip(f"no Python {version} installed")
    proc = subprocess.run([exe, str(TOOL)], capture_output=True, text=True,
                          timeout=300)
    changed = [f"changed: {json.dumps(argv)}"
               for argv in WRAPPED_HELP.get(version, [])]
    assert (proc.returncode, proc.stdout.splitlines()[:-1]) == \
        (1 if changed else 0, changed or ["no entry changed"]), \
        proc.stdout + proc.stderr
