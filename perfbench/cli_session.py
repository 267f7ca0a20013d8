"""cli-session: one ``python -m parhiggs.cli`` child process per operation.

The children run from the source tree (``src`` on PYTHONPATH, nothing
installed), one at a time.  Each child's exit code, stdout and JSON payload
are judged against the expected code, the same argv run in-process through
``parhiggs.cli.main`` and the schemas in ``schemas/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import oracles as orc
from speed import Reference
from workloads import Op, Workload, pass_rng, random_triple

ROOT = Path(__file__).resolve().parents[1]
# Bytecode is cached inside the checkout, whatever PYTHONDONTWRITEBYTECODE
# says, so children import compiled modules as an installed package would.
PYCACHE = ROOT / ".bench_pycache"
SMALL_SURFACES = [(1, 1), (1, 2), (2, 1), (2, 2), (0, 3)]
CHILD_TIMEOUT_S = 60


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PARHIGGS_CAP", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """A child interpreter in the checkout with ``src`` on its path."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def bare_start_s() -> float:
    """Wall time of one bare ``python -c pass`` child."""
    t0 = perf_counter()
    run_python(["-c", "pass"])
    return perf_counter() - t0


def interpreter_start_ms(reps: int = 5) -> float:
    """Median wall time of a bare ``python -c pass``: machine context."""
    return median(bare_start_s() for _ in range(reps)) * 1e3


# nominal: a round figure near a bare start on a 2-core cloud VM
BARE_START = Reference(bare_start_s, nominal_s=50e-3, every_s=0.6)


class CliSession(Workload):
    """A fixed rotation over all 13 subcommands with seeded small inputs."""

    name = "cli-session"
    reference = BARE_START

    def __init__(self, lib):
        super().__init__(lib)
        self._validators = {}
        self._reference = {}

    def setup(self, seed):
        ops = self.make_pass(seed, 0)
        run_python(["-m", "parhiggs.cli", *ops[0].data])  # warm-up
        return ops

    def make_pass(self, seed, index):
        """Every subcommand on two small surfaces, one --emit-tables, one
        validation failure (exit 2) and two cap-bounded requests.  The
        surfaces rotate with the pass index, not the seed, so every seed
        runs the same mix."""
        rng = pass_rng(seed, self.name, index)
        spec = []
        for k in (0, 1):
            g, s = SMALL_SURFACES[(2 * index + k) % len(SMALL_SURFACES)]
            spec += _small_inputs(rng, g, s)
        spec += [
            (["components", "--group", "su", "--n", "2", "--g", "1", "--s", "2",
              "--mode", "fixed-even", "--emit-tables"], 0, "components"),
            (["mw", "--n", "2", "--g", "0", "--s", "1"], 2, "error"),
            (["components", "--group", "sp4", "--g", "4", "--s", "4", "--cap",
              "10"], 2, "error"),
            (["components", "--group", "so0-23", "--g", "4", "--s", "4",
              "--cap", "10"], 2, "error"),
        ]
        return [Op("cli", argv[0], argv, (code, schema)) for argv, code, schema in spec]

    def _spawn(self, argv):
        return run_python(["-m", "parhiggs.cli", *argv])

    def execute(self, t, op):
        return t.call("cli.subprocess", self._spawn, op.data)

    # ----------------------------------------------------------- checks ----

    def in_process(self, argv) -> tuple[int, str]:
        from parhiggs.cli import main
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        return code, buf.getvalue()

    def _validate(self, payload, schema) -> str | None:
        import jsonschema
        if schema not in self._validators:
            doc = json.loads((ROOT / "schemas" / f"{schema}.schema.json").read_text())
            self._validators[schema] = jsonschema.Draft202012Validator(doc)
        errors = list(self._validators[schema].iter_errors(payload))
        return errors[0].message if errors else None

    def check(self, op, result, error):
        argv, (want_code, schema) = op.data, op.args
        if error is not None:
            return f"{op.label}: child failed {error!r}"
        key = tuple(argv)
        if key not in self._reference:
            self._reference[key] = self.in_process(argv)
        ref_code, ref_out = self._reference[key]
        if (result.returncode, result.stdout) != (ref_code, ref_out):
            return f"{op.label}: child output differs from in-process main"
        if schema == "error" and "--cap" in argv and result.returncode == 0:
            return "known:cap_not_obeyed" if self._cap_count_ok(argv, result.stdout) \
                else f"{op.label}: cap request returned a wrong count"
        text, problem = result.stdout, None
        if "--emit-tables" in argv:
            text, _, trailer = text.partition("\n\n# ")
            if not trailer:
                return f"{op.label}: missing --emit-tables trailer"
        if schema is not None:
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                return f"{op.label}: stdout is not JSON ({exc})"
            problem = self._validate(payload, schema)
            if problem:
                return f"{op.label}: schema {schema}: {problem}"
            if schema == "error":
                want = "enumeration_cap_exceeded" if "--cap" in argv else "not_hyperbolic"
                if payload["error"] != want:
                    return f"{op.label}: want {want}, got {payload['error']}"
            elif op.label == "components":
                problem = self._check_components(argv, payload)
        elif op.label == "tables":
            problem = self._check_tables(argv, text)
        elif op.label == "dims":
            g, s, n = _flag(argv, "--g"), _flag(argv, "--s"), _flag(argv, "--n")
            if f"dimension,{orc.paradim(n, g, s)}" not in text.splitlines():
                problem = f"{op.label}: csv dimension wrong"
        if problem is None and result.returncode != want_code:
            problem = f"{op.label}: exit {result.returncode}, want {want_code}"
        return problem

    def _check_components(self, argv, payload):
        fam = payload["group"]["family"]
        mode = _flag(argv, "--mode", "max")
        want = orc.component_totals(fam, payload["group"].get("n"),
                                    _flag(argv, "--g"), _flag(argv, "--s"), mode)
        got = (payload["total_enumerated"], payload["total_closed_form"])
        return None if got == want else f"components {argv}: {got} != {want}"

    def _cap_count_ok(self, argv, stdout) -> bool:
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        return self._check_components(argv, payload) is None

    def _check_tables(self, argv, text):
        counts = [line.split(" | ")[1] for line in text.splitlines()
                  if line.startswith("| ") and not line.startswith(("| Lie", "| ---"))]
        want = [c for table in orc.table_counts(_flag(argv, "--g"), _flag(argv, "--s"))
                for c in table]
        return None if counts == want else "tables: markdown counts differ"

    # ----------------------------------------------------- layer metrics ----

    def layer_metrics(self, tracer, log, first_pass, results):
        start_ms = interpreter_start_ms(reps=7)
        imports = []
        for _ in range(7):
            t0 = perf_counter()
            run_python(["-c", "import parhiggs.cli"])
            imports.append(perf_counter() - t0)
        out = {"cli.interpreter_start_ms": start_ms,
               "cli.import_ms": median(imports) * 1e3 - start_ms}
        self_us = {}
        for _ in range(5):
            err = run_python(["-X", "importtime", "-c",
                                    "import parhiggs.cli"]).stderr
            for match in re.finditer(r"import time:\s+(\d+) \|\s+\d+ \|\s+parhiggs\.(\w+)",
                                     err):
                self_us.setdefault(match.group(2), []).append(int(match.group(1)))
        for mod, values in self_us.items():
            out[f"cli.import.{mod}_ms"] = median(values) / 1e3
        main_ms = {}
        self.in_process(first_pass[0].data)           # import before timing
        for _ in range(5):
            for op in first_pass:
                t0 = perf_counter()
                self.in_process(op.data)
                main_ms.setdefault(op.label, []).append((perf_counter() - t0) * 1e3)
        for sub, values in main_ms.items():
            out[f"cli.main.{sub}.p50_ms"] = median(values)
        out["cli.stdout_bytes"] = sum(len(res.stdout.encode())
                                      for res, _ in results)
        return out


def _small_inputs(rng, g, s) -> list:
    """(argv, expected exit code, schema or None) for all 13 subcommands."""
    gs = ["--g", str(g), "--s", str(s)]
    n = rng.randint(1, 2)
    triple = json.dumps(random_triple(rng, n, g, s))
    line = json.dumps({"degree": rng.randint(-3, 3),
                       "weights": {"x1": rng.choice(["0", "1/4", "1/2"])}})
    orders = [rng.choice([2, 3, 4]) for _ in range(s)]
    iso = [rng.randrange(k) for k in orders]
    return [
        (["pardeg", *gs, "--line", line], 0, "pardeg"),
        (["stability", "--triple", triple], 0, "stability"),
        (["toledo", "--triple", triple], 0, "toledo"),
        (["mw", "--n", str(n), *gs], 0, "mw"),
        (["hitchin", "--k", str(rng.choice([2, 4, 6])), *gs, "--triple"], 0, "hitchin"),
        (["components", "--group", "sp4", *gs], 0, "components"),
        (["tables", *gs], 0, None),
        (["dims", "--formula", "paradim", "--n", str(n), *gs, "--format", "csv"],
         0, None),
        (["vcoh", *gs], 0, "vcoh"),
        (["orbifold", *gs, "--orders", ",".join(map(str, orders)),
          "--desing-degree", str(rng.randint(-4, 4)),
          "--isotropy", ",".join(map(str, iso))], 0, "orbifold"),
        (["characters", *gs, "--enumerate"], 0, "characters"),
        (["roots", *gs, "--desing-degree", str(2 * rng.randint(-2, 2))], 0, "roots"),
        (["s1-report", "--group", "so0-23", "--g", str(max(g, 1))], 0, "s1_report"),
    ]


def _flag(argv, name, default=None):
    if name not in argv:
        return default
    value = argv[argv.index(name) + 1]
    return int(value) if value.lstrip("-").isdigit() else value
