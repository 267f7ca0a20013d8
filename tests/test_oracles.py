"""The brute-force oracles of tools/oracles.py, run inside the suite."""

import itertools
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from parhiggs.components import (
    CountMode,
    count_components,
    emit_tables,
    enumerate_invariants_sp,
    s1_reduction_report,
    so0_2n,
    sp2nr,
)
from parhiggs.dimension import (
    dim_parabolic_gl,
    dim_strongly_parabolic_gl,
    lie_catalog,
    sl_kr_parabolic_dimension,
    teichmuller_dimension,
)
from parhiggs.exact_core import DomainError
from parhiggs.orbifold import (
    VLineBundle,
    laurent_matrix,
    orb_to_par_local,
    par_to_orb_local,
    square_root_count,
    square_root_types,
    torsion_multiplicity,
    z2_character_enumerate,
)
from parhiggs.parbun import ParabolicLineBundle
from parhiggs.stability import (
    DecomposableHiggsModel,
    general_mw_interval,
    hitchin_model,
    invariant_subsets,
    milnor_wood_bound,
    sp_filtration_degree,
)
from parhiggs.surface import MarkedPoint, MarkedSurface, standard_surface
from parhiggs.vcoh import MVPieces, mv_ranks, v_cohomology_ranks

HYPERBOLIC = [(g, s) for g in range(5) for s in range(1, 5)
              if 2 * g - 2 + s > 0]
# the closed hyperbolic surfaces too
HYPERBOLIC_ALL = [(g, s) for g in range(5) for s in range(5)
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
    sections = [name[8:] for name in dir(oracles) if name.startswith("section_")]
    assert sections
    for name in sections:
        assert f"== {name} ==" in proc.stdout


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


def test_streamed_counts_match_enumeration_and_brute_force(oracles):
    for g, s in HYPERBOLIC:
        if g > 3 or s > 3:
            continue
        for n in (1, 2, 3, 4):
            tuples = enumerate_invariants_sp(n, g, s, SP_MODES["max_union"])
            assert type(tuples) is tuple
            report = count_components(sp2nr(n), g, s, SP_MODES["max_union"])
            assert len(tuples) == oracles.enumerate_sp_bruteforce(n, g, s) \
                == sum(c.enumerated for c in report.cases), (n, g, s)


def _order_sets(rng, s):
    """All-even, all-odd and seeded mixed isotropy orders from 2..6."""
    sets = {(2,) * s, (3,) * s}
    while len(sets) < min(8, 5 ** s):
        sets.add(tuple(rng.randint(2, 6) for _ in range(s)))
    return sorted(sets)


def test_character_list_matches_z2_character_enumerate(oracles):
    rng = random.Random(1212)
    for g, s in HYPERBOLIC_ALL:
        for orders in _order_sets(rng, s):
            surf = MarkedSurface(g, tuple(MarkedPoint(f"x{i + 1}", k)
                                          for i, k in enumerate(orders)))
            got = [(c.ab, c.sigma) for c in z2_character_enumerate(surf)]
            assert got == oracles.character_list(g, orders), (g, orders)


def test_square_root_list_matches_square_root_types(oracles):
    for g in range(4):
        for s in range(6):
            labels = [f"x{i + 1}" for i in range(s)]
            surf = MarkedSurface(g, tuple(MarkedPoint(x, 2) for x in labels))
            for d in range(-6, 7):
                for residues in itertools.product((0, 1), repeat=s):
                    l = VLineBundle(d, dict(zip(labels, residues)))
                    types, mult = oracles.square_root_list(g, d, residues)
                    if not s and d % 2:
                        assert types == []
                        with pytest.raises(DomainError) as e:
                            square_root_types(l, surf)
                        assert e.value.code == "no_square_root"
                        continue
                    fam = square_root_types(l, surf)
                    got = [(t.desing_degree, tuple(t.residue(x) for x in labels))
                           for t in fam.types]
                    assert got == types, (g, d, residues)
                    assert fam.torsion_multiplicity == mult
                    assert bool(types) == (not any(residues))


def test_square_root_count_matches_square_root_list(oracles):
    for g in range(4):
        for s in range(6):
            labels = [f"x{i + 1}" for i in range(s)]
            surf = MarkedSurface(g, tuple(MarkedPoint(x, 2) for x in labels))
            for d in range(-6, 7):
                for residues in itertools.product((0, 1), repeat=s):
                    l = VLineBundle(d, dict(zip(labels, residues)))
                    types, mult = oracles.square_root_list(g, d, residues)
                    assert torsion_multiplicity(surf) == mult
                    if not s and d % 2:
                        assert types == []
                        with pytest.raises(DomainError) as e:
                            square_root_count(l, surf)
                        assert e.value.code == "no_square_root"
                        continue
                    assert square_root_count(l, surf) == len(types), \
                        (g, d, residues)


def test_mv_order2_matches_v_cohomology_ranks(oracles):
    for g, s in HYPERBOLIC:
        ranks, provenance = v_cohomology_ranks(g, s, "order2")
        assert provenance == "computed"
        assert ranks.astuple() == oracles.mv_order2(g, s), (g, s)


def test_mv_h_matches_mv_ranks(oracles):
    rng = random.Random(1865)
    for _ in range(300):
        v1, v2, inter = ([rng.randint(0, 6) for _ in range(3)] for _ in range(3))
        a = [x + y for x, y in zip(v1, v2)]
        inter[2] = min(inter[2], a[2])      # the top restriction is onto
        rho = [rng.randint(0, min(a[i], inter[i])) for i in range(2)] + [inter[2]]
        pieces = MVPieces(tuple(v1), tuple(v2), tuple(inter), tuple(rho))
        assert mv_ranks(pieces).astuple() == oracles.mv_h(a, inter, rho), pieces


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


def _as_dicts(mat):
    return {(i, j): dict(mat.entries[i][j])
            for i in range(mat.n) for j in range(mat.n) if mat.entries[i][j]}


def _raw_terms(rng, degrees):
    """Unsorted terms drawn from degrees, with repeats and zero coefficients."""
    return [(rng.choice(degrees), F(rng.randint(-3, 3), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 5))]


def test_local_dictionary_matches_direct_substitution(oracles):
    rng = random.Random(1995)
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.choice((2, 3, 4, 6))
        ks = sorted(rng.randrange(m) for _ in range(n))
        weights = tuple(F(k, m) for k in ks)
        lower = [(i, j) for i in range(n) for j in range(n) if ks[i] >= ks[j]]

        w_terms = {ij: _raw_terms(rng, range(-1, 9))
                   for ij in rng.sample(lower, rng.randint(0, len(lower)))}
        psi = laurent_matrix(n, w_terms, (-1, 8), "dw/w")
        window = rng.choice([None, (-1, 3 * m), (2, 5 * m)])
        chart, up = par_to_orb_local(m, weights, psi, window)
        assert _as_dicts(up) == oracles.par_to_orb_terms(
            m, ks, w_terms, window or (-1, 8 * m))

        z_terms = {(i, j): _raw_terms(rng, range(ks[i] - ks[j], 8 * m, m))
                   for i, j in rng.sample(lower, rng.randint(0, len(lower)))}
        z = laurent_matrix(n, z_terms, (-1, 8 * m), "dz/z")
        window = rng.choice([None, (-1, 3), (1, 5)])
        _, down = orb_to_par_local(chart, z, window)
        assert _as_dicts(down) == oracles.orb_to_par_terms(
            m, ks, z_terms, window or (-1, 8))


def test_hitchin_pardegs_match_hitchin_model(oracles):
    for g, s in HYPERBOLIC_ALL:
        for k in range(2, 13):
            assert hitchin_model(k, g, s).pardegs() == \
                oracles.hitchin_pardegs(k, g, s)


def test_mw_bounds_match_milnor_wood(oracles):
    for g, s in HYPERBOLIC_ALL:
        for n in range(1, 7):
            assert milnor_wood_bound(n, g, s) == oracles.mw_bound(n, g, s)
        for rk_plus in range(4):
            for rk_minus in range(4):
                assert general_mw_interval(rk_plus, rk_minus, g, s) == \
                    oracles.mw_interval(rk_plus, rk_minus, g, s)


CATALOG = ["SL(2,R)", "SL(3,R)", "SL(4,R)", "Sp(4,R)", "Sp(6,R)",
           "SO(3,2)", "SO(4,3)", "SO(3,3)", "SO(4,4)"]


def test_dimensions_match_formulas(oracles):
    for g, s in HYPERBOLIC_ALL:
        for n in range(1, 5):
            assert dim_parabolic_gl(n, g, s) == oracles.paradim(n, g, s)
            for flag in ([1] * n, [n]):
                assert dim_strongly_parabolic_gl(n, g, s, [flag] * s) == \
                    oracles.sparadim(n, g, [flag] * s)
        for name in CATALOG:
            data = lie_catalog(name)
            assert teichmuller_dimension(data, g, s).real_dimension == \
                oracles.teich_real(data.real_dimension, data.exponents, g, s)
        for k in range(2, 6):
            assert sl_kr_parabolic_dimension(k, g, s) == \
                oracles.teich_real(k * k - 1, range(1, k), g, s)


def _increasing(rng, k):
    return [F(x, 2) for x in sorted(rng.sample(range(-6, 7), k))]


def _cuts(rng, n):
    """Sizes of the steps of a random filtration of length 1..n."""
    return sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) + [n]


def test_reduction_degrees_match_definition(oracles):
    """Against the degree terms plus the relative degree to each point's
    weighted flag, and the sp filtration degree against its step sum."""
    rng = random.Random(2020)
    for _ in range(300):
        g, s = rng.choice(HYPERBOLIC_ALL)
        surf = standard_surface(g, s)
        n = rng.randint(1, 5)
        degrees = [rng.randint(-4, 4) for _ in range(n)]
        weights = [[F(rng.randrange(4), 4) for _ in range(n)]
                   for _ in surf.labels()]
        m = DecomposableHiggsModel(surf, tuple(
            ParabolicLineBundle(d, {x: w[k] for x, w in zip(surf.labels(), weights)})
            for k, d in enumerate(degrees)))
        order = list(range(n))
        rng.shuffle(order)
        steps = [sorted(order[:c]) for c in _cuts(rng, n)]
        lam = _increasing(rng, len(steps))

        want = oracles.reduction_degree_direct(degrees, weights, steps, lam)
        assert sp_filtration_degree(m, steps, lam, F(0)) == want

        alpha = F(rng.randint(-4, 4), rng.randint(1, 3))
        pds = [d + sum(w[k] for w in weights) for k, d in enumerate(degrees)]
        assert sp_filtration_degree(m, steps, lam, alpha) == oracles.filtration_degree(
            [sum(pds[k] for k in st) for st in steps], [len(st) for st in steps],
            lam, alpha)
