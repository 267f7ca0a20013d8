"""The brute-force oracles of tools/oracles.py, run inside the suite."""

import random
import subprocess
import sys

from parhiggs.parbun import ParabolicLineBundle
from parhiggs.stability import DecomposableHiggsModel, invariant_subsets
from parhiggs.surface import standard_surface


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
