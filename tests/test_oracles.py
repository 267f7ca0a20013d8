"""The brute-force oracles of tools/oracles.py, run inside the suite."""

import random
import subprocess
import sys

from parhiggs.components import (
    CountMode,
    count_components,
    emit_tables,
    s1_reduction_report,
    so0_2n,
    sp2nr,
)
from parhiggs.parbun import ParabolicLineBundle
from parhiggs.stability import DecomposableHiggsModel, invariant_subsets
from parhiggs.surface import standard_surface

HYPERBOLIC = [(g, s) for g in range(5) for s in range(1, 5)
              if 2 * g - 2 + s > 0]
SP_MODES = {"max_union": CountMode.max_union(),
            "fixed_even": CountMode.fixed_parity("even"),
            "fixed_odd": CountMode.fixed_parity("odd"),
            "punctured": CountMode.punctured()}


def test_closed_subsets_match_invariant_subsets(oracles):
    rng = random.Random(404)
    surf = standard_surface(2, 1)
    for _ in range(150):
        n = rng.randint(1, 10)
        p = rng.choice((0.0, 0.05, 0.15, 0.4))
        arrows = sorted((i, j) for i in range(n) for j in range(n)
                        if rng.random() < p)
        m = DecomposableHiggsModel(
            surf, tuple(ParabolicLineBundle(0) for _ in range(n)),
            frozenset(arrows))
        assert oracles.closed_subsets(n, arrows) == invariant_subsets(m)


def test_oracle_script_runs_clean(oracles):
    proc = subprocess.run([sys.executable, oracles.__file__],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "== subsets ==" in proc.stdout


def test_sp_cases_match_count_components(oracles):
    for g, s in HYPERBOLIC:
        for n in (1, 2, 3, 4):
            for name, mode in SP_MODES.items():
                want = oracles.sp_cases(n, g, s, name)
                report = count_components(sp2nr(n), g, s, mode)
                if want is None:
                    assert report.cases == ()
                    assert report.verdict == "no_maximal_objects"
                    continue
                assert [(c.label, c.enumerated) for c in report.cases] == want
                assert [(c.label, c.closed_form) for c in report.cases] == want


def test_table_cells_match_emit_tables(oracles):
    for g, s in HYPERBOLIC:
        for table, cells in zip(emit_tables(g, s), oracles.table_cells(g, s)):
            assert [row.count for row in table.rows] == \
                ["-" if v is None else str(v) for v in cells.values()]


def test_s1_values_match_s1_reduction_report(oracles):
    for g in range(1, 5):
        for group in (sp2nr(2), so0_2n(3)):
            want = oracles.s1_values(g)[group.display()]
            report = s1_reduction_report(group, g)
            assert report.parabolic_count == want["parabolic"]
            assert report.kd_twisted_count == want["kd_twisted"]
            assert report.table_count == want["table"]
