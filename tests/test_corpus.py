"""The CLI and the demos print, byte for byte, what the committed corpus holds.

``tests/golden/cli_corpus.json`` pins the exit code and the sha256 of stdout
and stderr for a frozen set of argvs and for every demo; ``tools/corpus.py``
writes it and prints the entries that changed.
"""

import importlib.util
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
