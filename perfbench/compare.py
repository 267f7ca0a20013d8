"""Compare two sets of benchmark results, or summarise one.

    python3 perfbench/compare.py PARENT.jsonl [CHANGE.jsonl]

Each file holds records appended by ``run.py --out``.  Only untraced runs are
used.  For every workload and end-to-end metric one row gives each side's
median and quartiles.  With two files the row adds the share of seed-matched
pairs the change wins (ties count for neither) and one verdict:

- improved: the change wins at least 9 of 10 pairs and the medians differ by
  more than the parent's quartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the parent's spread (quartile distance over median) exceeds the
  bound and the change does not beat every parent run;
- unchanged: otherwise.

Records whose machine context (Python version, nproc) differs are flagged,
not compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]


def load(path) -> list[dict]:
    with open(path) as fh:
        return [r for r in map(json.loads, fh) if not r.get("trace")]


def quartiles(values):
    q1, q2, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(parent, change, bound, higher_better) -> tuple[float, str]:
    sign = 1 if higher_better else -1
    by_seed = {r["seed"]: v for r, v in parent}
    pairs = [(by_seed[r["seed"]], v) for r, v in change if r["seed"] in by_seed]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    p_vals, c_vals = [v for _, v in parent], [v for _, v in change]
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = median(c_vals)
    if share >= 0.9 and sign * (c_med - p_med) > p_q3 - p_q1:
        return share, "improved"
    if sign * (c_med - p_med) < -bound * p_med:
        return share, "worse"
    beats_all = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if spread(p_vals) > bound and not beats_all:
        return share, "unresolved"
    return share, "unchanged"


def machines(records) -> set:
    return {(r["env"]["python"], r["env"]["nproc"]) for r in records}


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [load(path) for path in argv]
    if len(sides) == 2 and machines(sides[0]) != machines(sides[1]):
        print(f"# machines differ: {sorted(machines(sides[0]))} vs "
              f"{sorted(machines(sides[1]))}; not compared")
        return 1
    starts = [median(r["env"]["interpreter_start_ms"] for r in side) for side in sides]
    print("# machine speed, median interpreter_start_ms: "
          + " | ".join(f"{s:.1f}" for s in starts))
    workloads = sorted({r["workload"] for side in sides for r in side})
    for wl in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = [[(r, r["metrics"][name]["value"]) for r in side
                     if r["workload"] == wl] for side in sides]
            if not all(rows):
                continue
            cells = []
            for side in rows:
                q1, q2, q3 = quartiles([v for _, v in side])
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(side)}")
            line = f"{wl:20} {name:12} {metric['unit']:6} " + " | ".join(cells)
            if len(rows) == 1:
                s = spread([v for _, v in rows[0]])
                line += f" spread={s:.3f} bound={bound}"
                if name == "setup_s":
                    line += " (set-up: median shift bounded, spread not)"
                elif s > bound:
                    line += " EXCEEDS"
            else:
                share, word = verdict(rows[0], rows[1], bound,
                                      metric["better"] == "higher")
                line += f" wins={share:.2f} {word}"
            print(line)
        for side in sides:
            records = [r for r in side if r["workload"] == wl]
            print(f"{wl:20} failed {sum(r['failed'] for r in records)} of "
                  f"{sum(r['attempted'] for r in records)}"
                  f" correct={all(r['correct'] for r in records)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
