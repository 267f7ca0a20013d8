"""Run one benchmark workload against the parhiggs source tree.

    python3 perfbench/run.py --workload verdict-sweep --seed 1 --seconds 25 --trace 0

One process, one closed-loop client, no threads: each operation starts when
the previous one has returned.  Inputs come from the seed.  Set-up (import
plus input generation) is repeated and its median reported as ``setup_s``;
then operations run in whole passes until ``--seconds`` have passed.  Every
result is checked against ``oracles.py`` outside the timed region.  Times are
scaled to a nominal host speed with the workload's reference probe
(``speed.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` spans are taken around every call into
parhiggs and the per-layer metrics are printed instead.  Lines before it
give every metric with its unit and sample count, the failure tally and the
machine context.  ``--out FILE`` appends the full record as one JSON line
(input for ``compare.py``); ``--spans FILE`` writes a traced run's spans.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import NoTrace, Tracer  # noqa: E402
from speed import SpeedTrack, timed_scaled  # noqa: E402

LIBRARY_MODULES = ("surface", "parbun", "stability", "orbifold", "vcoh",
                   "dimension", "components")
# set-up repeats until both hold; short set-ups get more repetitions, so
# each workload's median rests on about the same measured time
SETUP_MIN_REPS, SETUP_MIN_S = 7, 2.0


def import_library() -> SimpleNamespace:
    """Import parhiggs afresh (dropping earlier imports), so each set-up
    repetition pays the package's own import cost."""
    for name in [m for m in sys.modules if m == "parhiggs" or m.startswith("parhiggs.")]:
        del sys.modules[name]
    lib = {name: importlib.import_module(f"parhiggs.{name}") for name in LIBRARY_MODULES}
    return SimpleNamespace(**lib)


def workload_class(name):
    import cli_session
    import workloads
    classes = (workloads.VerdictSweep, workloads.ComponentGrid,
               workloads.OrbifoldDictionary, cli_session.CliSession)
    return {cls.name: cls for cls in classes}[name]


def percentile(sorted_values, p):
    """Inclusive quantile at p percent, with the count of samples beyond it."""
    value = quantiles(sorted_values, n=100, method="inclusive")[p - 1]
    return value, sum(1 for v in sorted_values if v > value)


def machine_context(root: Path) -> dict:
    from cli_session import interpreter_start_ms
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "parhiggs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "interpreter_start_ms": round(interpreter_start_ms(), 3)}


def run_ops(wl, tracer, ops, op_id, on_result, track=None):
    """Run ops in order and return the next op id.  ``on_result`` gets each
    op's latency after its clock has stopped; ``track`` then may probe."""
    for op in ops:
        tracer.begin_op(op_id)
        t0 = perf_counter()
        try:
            result, error = wl.execute(tracer, op), None
        except Exception as exc:  # judged by check(): expected refusals land here
            result, error = None, exc
        on_result(op, perf_counter() - t0, result, error)
        if track is not None:
            track.tick()
        op_id += 1
    return op_id


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSONL file")
    parser.add_argument("--spans", help="traced runs: write the spans here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "parhiggs" / "__init__.py").is_file():
        print(f"perfbench: no parhiggs source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("PARHIGGS_CAP", None)
    # cache bytecode inside the checkout, as the cli-session children do
    sys.pycache_prefix, sys.dont_write_bytecode = str(ROOT / ".bench_pycache"), False
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = json.loads((HERE / "expectations.json").read_text())["known_defects"]
    try:
        cls = workload_class(args.workload)
    except KeyError:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = machine_context(ROOT)
    def set_up():
        wl = cls(import_library() if args.workload != "cli-session" else None)
        return wl, wl.setup(args.seed)

    setup_raw, setup_times = [], []
    started = perf_counter()
    while len(setup_times) < SETUP_MIN_REPS or perf_counter() - started < SETUP_MIN_S:
        (wl, first), raw, scaled = timed_scaled(set_up, cls.reference)
        setup_raw.append(raw)
        setup_times.append(scaled)

    tracer = Tracer() if args.trace else NoTrace()
    latencies, segments = array("d"), array("l")
    log, first_results = [], []    # traced runs only, indexed by op id
    tally = {"known": Counter(), "unexpected": []}
    state = {"pass": 0}
    deadline = perf_counter() + args.seconds

    def on_result(op, latency, result, error):
        latencies.append(latency)
        segments.append(track.segment)
        if args.trace:
            code = getattr(error, "code", None) or (type(error).__name__ if error else None)
            log.append((op.label, latency, code))
            if state["pass"] == 0:
                first_results.append((result, error))
        problem = wl.check(op, result, error)
        if problem is not None:
            if problem.startswith("known:") and problem[6:] in known:
                tally["known"][problem[6:]] += 1
            else:
                tally["unexpected"].append(problem)

    op_id, ops = 0, first
    track = SpeedTrack(cls.reference)
    while True:
        op_id = run_ops(wl, tracer, ops, op_id, on_result, track)
        if perf_counter() >= deadline:
            break
        state["pass"] += 1
        ops = wl.make_pass(args.seed, state["pass"])
    track.close()

    attempted = len(latencies)
    failed = sum(tally["known"].values()) + len(tally["unexpected"])
    scales = track.scales()
    lat = sorted(x * scales[j] for x, j in zip(latencies, segments))
    raw_lat = sorted(latencies)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-session" \
        else resource.RUSAGE_SELF
    found = {"setup_s": (median(setup_times), len(setup_times), ""),
             "ops_per_s": (attempted / sum(lat), attempted, "")}
    for p in (50, 90, 99):
        value, beyond = percentile(lat, p)
        found[f"op_p{p}_ms"] = (value * 1e3, attempted, f" beyond={beyond}")
    found.update({
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, 1, ""),
        "fail_ratio": (failed / attempted, attempted, ""),
    })
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units["fail_ratio"] = "1"
    if args.trace:
        layer = layer_metrics(wl, tracer, log, first, first_results)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        found = {name: (layer.get(name, 0), attempted, "") for name in units}
        if args.spans:
            tracer.write(args.spans)

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={state['pass'] + 1}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# raw (unscaled) setup_s {median(setup_raw):.6g} s, "
          f"ops_per_s {attempted / sum(raw_lat):.6g} ops/s, "
          f"op_p50_ms {percentile(raw_lat, 50)[0] * 1e3:.6g} ms; "
          f"probe median {median(track.probes) * 1e3:.4g} ms over "
          f"{len(track.probes)} probes")
    for name, (value, count, extra) in found.items():
        print(f"metric {name} {value:.6g} {units[name]} n={count}{extra}")
    print(f"# failed {failed} of {attempted}: known {dict(tally['known'])}, "
          f"unexpected {len(tally['unexpected'])}")
    for problem in tally["unexpected"][:10]:
        print(f"# unexpected: {problem}")

    reported = units if args.trace else [m["name"] for m in bench["end_to_end"]]
    record = {"correct": not tally["unexpected"], "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": found[name][0], "unit": units[name]}
                          for name in reported}}
    if args.out:
        full = dict(record, workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace, env=env,
                    known_failures=dict(tally["known"]),
                    samples={name: found[name][1] for name in found})
        with open(args.out, "a") as fh:
            fh.write(json.dumps(full, sort_keys=True) + "\n")
    print(json.dumps(record))
    return 0


def layer_metrics(wl, tracer, log, first, first_results) -> dict:
    """Self seconds per pass and first-pass call counts for every span name,
    the workload's own layer metrics, and the tracing overhead."""
    n_first = len(first)
    per_pass = n_first / len(log)
    out = {f"{name}.self_s": secs * per_pass
           for name, secs in tracer.self_seconds().items()}
    calls = Counter(name for name, _, _, _, op_id in tracer.spans if op_id < n_first)
    out.update({f"{name}.calls": count for name, count in calls.items()})
    out.update(wl.layer_metrics(tracer, log, first, first_results))
    # replay the first pass warm, untraced and traced, for the overhead ratio
    walls = [0.0, 0.0]
    for traced in (0, 1, 0, 1):
        def add(op, latency, result, error, traced=traced):
            walls[traced] += latency
        run_ops(wl, Tracer() if traced else NoTrace(), first, 0, add)
    out["trace.overhead_ratio"] = walls[1] / walls[0]
    return out


if __name__ == "__main__":
    sys.exit(main())
