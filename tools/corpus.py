"""Byte-identity corpus: the CLI's exact output on a frozen set of argvs.

For every argv, ``tests/golden/cli_corpus.json`` holds the exit code and the
sha256 of stdout and of stderr from an in-process ``parhiggs.cli.main``
call; for every script in ``demos/``, the same for one in-process run.
``tests/test_corpus.py`` replays the file and needs nothing but this module
and the package.

    python3 tools/corpus.py           compare the checkout with the file
    python3 tools/corpus.py --write   rebuild the argv set and rewrite it

Both print each entry whose output differs from the file.  The argv set is
rebuilt only with ``--write``: the schema and error cases of
``tests/test_cli.py`` in all three formats, the golden-table argvs, passes
0-5 of perfbench's cli-session for seeds 1-3, ``--help`` and every
``<subcommand> --help``, ``--s -1`` on every subcommand taking ``--s``, and
the parabolic-weight refusals.  A change that alters an entry lists the argv
and the reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "golden" / "cli_corpus.json"
DEMO_DIR = ROOT / "demos"

# argparse wraps help text to the terminal width; fix it so help output
# does not depend on the terminal the corpus is written or checked from
HELP_COLUMNS = "80"
FORMATS = ("json", "markdown", "csv")
SESSION_SEEDS = (1, 2, 3)
SESSION_PASSES = range(6)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@contextlib.contextmanager
def _pinned_env():
    """COLUMNS fixed and PARHIGGS_CAP unset while the entries run."""
    saved = {k: os.environ.get(k) for k in ("COLUMNS", "PARHIGGS_CAP")}
    os.environ["COLUMNS"] = HELP_COLUMNS
    os.environ.pop("PARHIGGS_CAP", None)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _captured(call) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call()
    return {"exit": code, "stdout_sha256": _sha(out.getvalue()),
            "stderr_sha256": _sha(err.getvalue())}


def run_argv(argv: list[str]) -> dict:
    from parhiggs.cli import main
    return _captured(lambda: main(list(argv)))


def run_demo(name: str) -> dict:
    def call():
        runpy.run_path(str(DEMO_DIR / name), run_name="__main__")
        return 0
    return _captured(call)


def replay(entry: dict) -> dict:
    """The entry's outcome on this checkout, in the entry's own shape."""
    with _pinned_env():
        if "demo" in entry:
            return dict(run_demo(entry["demo"]), demo=entry["demo"])
        return dict(run_argv(entry["argv"]), group=entry["group"],
                    argv=entry["argv"])


# ------------------------------------------------------------ argv set ----

def _load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _without_format(argv: list[str]) -> list[str]:
    out, skip = [], False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--format":
            skip = True
        else:
            out.append(arg)
    return out


def _weight_refusals() -> list[list[str]]:
    """weight_out_of_range and flag_surface_mismatch through ``pardeg``,
    ``toledo`` and ``stability``."""
    surface = ["pardeg", "--g", "1", "--s", "1"]
    out = []
    for w in ("1", "-1/4", "3/2"):
        out.append([*surface, "--line",
                    json.dumps({"degree": 0, "weights": {"x1": w}})])
        out.append([*surface, "--bundle", json.dumps(
            {"rank": 1, "degree": 0,
             "flags": {"x1": {"mult": [1], "weights": [w]}}})])
    out.append([*surface, "--line", json.dumps(
        {"degree": 0, "weights": {"x3": "1/2", "x2": "1/4", "x1": "0"}})])
    out.append([*surface, "--bundle", json.dumps(
        {"rank": 1, "degree": 0,
         "flags": {"x3": {"mult": [1], "weights": ["0"]},
                   "x2": {"mult": [1], "weights": ["1/2"]}}})])
    out.append(["pardeg", "--g", "2", "--s", "0", "--line",
                json.dumps({"degree": 3})])
    points = {"genus": 2, "points": [{"label": "x1", "order": 2}]}
    for weights in ({"x9": "1/2", "x1": "1/4"}, {"x1": "5/4"}):
        triple = json.dumps({"surface": points, "beta": [],
                             "gamma": [[0, 0]],
                             "v_summands": [{"degree": 1,
                                             "weights": weights}]})
        out += [["toledo", "--triple", triple],
                ["stability", "--triple", triple]]
    out.append(["stability", "--model", json.dumps(
        {"surface": points, "arrows": [[0, 1]],
         "summands": [{"degree": 0}, {"degree": 1, "weights": {"x9": "0"}}]})])
    return out


def build_argvs() -> list[tuple[str, list[str]]]:
    """(group, argv) for every argv of the corpus, without repeats."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    test_cli = _load_by_path("corpus_test_cli", ROOT / "tests" / "test_cli.py")
    from cli_session import CliSession
    from parhiggs.cli import _COMMANDS

    groups = []
    for _, argv, _ in test_cli.SCHEMA_CASES:
        groups += [("schema", [*_without_format(argv), "--format", fmt])
                   for fmt in FORMATS]
    groups += [("error", argv) for _, argv, _ in test_cli.ERROR_CASES]
    groups += [("golden-tables", ["tables", "--g", str(g), "--s", str(s)])
               for g, s in [(2, 1), (2, 2), (0, 3), (1, 2)]]
    session = CliSession(None)
    for seed in SESSION_SEEDS:
        for index in SESSION_PASSES:
            groups += [("cli-session", list(op.data))
                       for op in session.make_pass(seed, index)]
    groups += [("help", ["--help"])]
    groups += [("help", [name, "--help"]) for name in _COMMANDS]
    groups += [("negative-s", [*argv, "--g", "2", "--s", "-1"])
               for _, argv, _ in test_cli.NEGATIVE_S_CASES]
    groups += [("weight-refusal", argv) for argv in _weight_refusals()]
    seen, out = set(), []
    for group, argv in groups:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            out.append((group, argv))
    return out


# ---------------------------------------------------------------- file ----

def load() -> dict:
    return json.loads(CORPUS.read_text())


def write(doc: dict) -> None:
    """One entry per line, so a diff of the file names the changed argvs."""
    def block(rows):
        return ",\n".join("  " + json.dumps(r, sort_keys=True) for r in rows)
    CORPUS.write_text('{\n"argvs": [\n' + block(doc["argvs"])
                      + '\n],\n"demos": [\n' + block(doc["demos"]) + "\n]\n}\n")


def differences(old: dict, new: dict) -> list[str]:
    """One line per entry added, removed or with a changed outcome."""
    def keyed(doc):
        rows = {json.dumps(e["argv"]): e for e in doc["argvs"]}
        rows.update({e["demo"]: e for e in doc["demos"]})
        return rows
    before, after = keyed(old), keyed(new)
    lines = []
    for key in sorted(before.keys() | after.keys()):
        a, b = before.get(key), after.get(key)
        if a != b:
            state = "added" if a is None else "removed" if b is None \
                else "changed"
            lines.append(f"{state}: {key}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rebuild the argv set and rewrite the corpus")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    old = load() if CORPUS.exists() else {"argvs": [], "demos": []}
    if args.write:
        entries = [{"group": g, "argv": a} for g, a in build_argvs()]
        demos = [{"demo": p.name} for p in sorted(DEMO_DIR.glob("*.py"))]
    else:
        entries, demos = old["argvs"], old["demos"]
    new = {"argvs": [replay(e) for e in entries],
           "demos": [replay(e) for e in demos]}
    changed = differences(old, new)
    print("\n".join(changed) if changed else "no entry changed")
    print(f"{len(new['argvs'])} argvs, {len(new['demos'])} demos")
    if args.write:
        write(new)
        print(f"wrote {CORPUS.relative_to(ROOT)}")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
