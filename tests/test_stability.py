import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parhiggs import stability
from parhiggs.codec import from_json, to_json
from parhiggs.exact_core import DomainError
from parhiggs.parbun import ParabolicBundle, ParabolicLineBundle, par_dual, pardeg
from parhiggs.stability import (
    MAX_SUBSET_LIST_RANK,
    MAX_VERDICT_RANK,
    DecomposableHiggsModel,
    SpTripleModel,
    alpha_stability_check_gl,
    arrow_feasibility_violations,
    general_mw_interval,
    hitchin_model,
    hitchin_sp_triple,
    invariant_subsets,
    is_maximal,
    milnor_wood_bound,
    sp_dual,
    sp_filtration_degree,
    sp_triple_from_json,
    stability_verdict,
    toledo,
)
from parhiggs.surface import standard_surface

F = Fraction
HYP = [(2, 1), (1, 2), (0, 3)]


def lines(surf, *specs):
    """specs: (degree, weight-at-every-point) pairs."""
    return tuple(ParabolicLineBundle(d, {x: F(w) for x in surf.labels()})
                 for d, w in specs)


def rand_line(rng, labels):
    return ParabolicLineBundle(
        rng.randint(-3, 3),
        {x: F(rng.randrange(0, 4), 4) for x in labels})


# ------------------------------------------------------- invariant sets ----

def test_invariant_subsets_chain():
    surf = standard_surface(2, 1)
    m = DecomposableHiggsModel(surf, lines(surf, (0, 0), (0, 0), (0, 0)),
                               frozenset({(0, 1), (1, 2)}))
    assert invariant_subsets(m) == [(0,), (0, 1)]


def test_invariant_subsets_two_cycle():
    surf = standard_surface(2, 1)
    m = DecomposableHiggsModel(surf, lines(surf, (1, 0), (-1, 0)),
                               frozenset({(0, 1), (1, 0)}))
    assert invariant_subsets(m) == []


def test_invariant_subsets_no_arrows():
    surf = standard_surface(1, 1)
    m = DecomposableHiggsModel(surf, lines(surf, (0, 0), (0, 0)))
    assert invariant_subsets(m) == [(0,), (1,)]


def test_arrow_out_of_range():
    surf = standard_surface(2, 1)
    with pytest.raises(DomainError):
        DecomposableHiggsModel(surf, lines(surf, (0, 0)), frozenset({(0, 1)}))


def test_triple_arrow_out_of_range():
    with pytest.raises(DomainError) as e:
        SpTripleModel(standard_surface(1, 1), (ParabolicLineBundle(0),),
                      frozenset({(3, 3)}))
    assert e.value.payload() == {"error": "arrow_out_of_range",
                                 "arrow": [3, 3], "n": 1}


@pytest.mark.parametrize("build", [
    lambda surf, bad: DecomposableHiggsModel(surf, (ParabolicLineBundle(0), bad)),
    lambda surf, bad: SpTripleModel(surf, (ParabolicLineBundle(0), bad)),
])
def test_models_refuse_a_summand_that_is_not_a_line_bundle(build):
    """A rank-2 summand would be counted as rank 1 by the verdict."""
    surf = standard_surface(2, 1)
    with pytest.raises(DomainError) as e:
        build(surf, ParabolicBundle(2, 1))
    assert e.value.payload() == {"error": "summand_not_line_bundle",
                                 "index": 1, "type": "ParabolicBundle"}


_TWO = (ParabolicLineBundle(0), ParabolicLineBundle(0))

MODELS = {
    "decomposable": lambda surf, summands, arrows:
        DecomposableHiggsModel(surf, summands, arrows),
    "beta": lambda surf, summands, arrows: SpTripleModel(surf, summands, arrows),
    "gamma": lambda surf, summands, arrows:
        SpTripleModel(surf, summands, frozenset(), arrows),
}


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("arrows,arrow", [
    ({(0.0, 0)}, [0.0, 0]),
    ({(True, 1), (1, True)}, [True, 1]),
    ({(1, F(0))}, [1, F(0)]),
    ({(0, 0, 1)}, [0, 0, 1]),
    ({(0,)}, [0]),
    ([[0, 1], [1, 0]], [0, 1]),
    ([5], 5),
    ([(-1, 0)], [-1, 0]),
    ([(0, 2)], [0, 2]),
])
def test_an_arrow_is_a_pair_of_exact_ints_in_range(model, arrows, arrow):
    """Both models read their arrows by one rule, and refuse what it does not
    take with the arrow as a list and n, before anything is frozen."""
    with pytest.raises(DomainError) as e:
        MODELS[model](standard_surface(2, 1), _TWO, arrows)
    payload = e.value.payload()
    assert payload == {"error": "arrow_out_of_range", "arrow": arrow, "n": 2}
    assert repr(payload["arrow"]) == repr(arrow)  # True is not 1, nor 0.0 0


@pytest.mark.parametrize("model", sorted(MODELS))
def test_arrows_given_as_a_list_or_a_generator_are_read(model):
    surf = standard_surface(2, 1)
    want = MODELS[model](surf, _TWO, frozenset({(0, 1), (1, 0)}))
    assert MODELS[model](surf, _TWO, [(0, 1), (1, 0)]) == want
    assert MODELS[model](surf, _TWO, (a for a in ((1, 0), (0, 1)))) == want


def test_a_triple_checks_each_support_by_range_then_symmetry():
    surf = standard_surface(2, 1)
    with pytest.raises(DomainError) as e:
        SpTripleModel(surf, _TWO, {(0, 1)}, {(0, 5)})
    assert e.value.payload() == {"error": "asymmetric_support", "which": "beta",
                                 "arrow": [0, 1]}
    with pytest.raises(DomainError) as e:
        SpTripleModel(surf, _TWO, {(0, 1), (5, 5)})
    assert e.value.payload() == {"error": "arrow_out_of_range", "arrow": [5, 5],
                                 "n": 2}


@pytest.mark.parametrize("surface", [5, "s", None, standard_surface])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_models_refuse_a_surface_that_is_not_a_marked_surface(model, surface):
    with pytest.raises(DomainError) as e:
        MODELS[model](surface, _TWO, frozenset())
    assert e.value.payload() == {"error": "surface_not_marked_surface",
                                 "type": type(surface).__name__}


def test_the_surface_is_checked_after_every_other_part():
    with pytest.raises(DomainError) as e:
        DecomposableHiggsModel(5, (ParabolicLineBundle(0), 7), {(0, 2)})
    assert e.value.code == "arrow_out_of_range"
    with pytest.raises(DomainError) as e:
        SpTripleModel("s", (ParabolicLineBundle(0), 7))
    assert e.value.code == "summand_not_line_bundle"


# ------------------------------------------------------------- verdicts ----

def test_verdict_of_the_empty_model_is_refused():
    with pytest.raises(DomainError) as e:
        stability_verdict(DecomposableHiggsModel(standard_surface(1, 1), ()))
    assert e.value.payload() == {"error": "empty_model"}


def test_verdict_stable_chain():
    surf = standard_surface(2, 1)
    # subset (1,) has slope -1 < 0
    m = DecomposableHiggsModel(surf, lines(surf, (1, 0), (-1, 0)),
                               frozenset({(1, 0)}))
    r = stability_verdict(m)
    assert (r.verdict, r.witness, r.slope) == ("stable", None, F(0))


def test_verdict_unstable_witness_is_first_maximizer():
    surf = standard_surface(2, 1)
    m = DecomposableHiggsModel(surf, lines(surf, (2, 0), (2, 0), (-4, 0)))
    r = stability_verdict(m)
    assert r.verdict == "unstable"
    assert r.witness == (0,)
    assert r.slope == F(0)


def test_verdict_polystable_vs_strictly_semistable():
    surf = standard_surface(2, 1)
    split = DecomposableHiggsModel(surf, lines(surf, (1, 0), (1, 0)))
    assert stability_verdict(split).verdict == "polystable"
    joined = DecomposableHiggsModel(surf, lines(surf, (1, 0), (1, 0)),
                                    frozenset({(0, 1)}))
    r = stability_verdict(joined)
    assert r.verdict == "strictly_semistable"
    assert r.witness == (0,)


def test_split_with_non_stable_component_is_not_polystable():
    surf = standard_surface(2, 1)
    # components {0} and {1,2} both of slope 0, but {1,2} is only strictly
    # semistable on its own, so the split does not certify polystability.
    m = DecomposableHiggsModel(surf, lines(surf, (0, 0), (0, 0), (0, 0)),
                               frozenset({(2, 1)}))
    r = stability_verdict(m)
    assert r.verdict == "strictly_semistable"
    assert r.witness == (0,)


def test_single_summand_is_stable():
    surf = standard_surface(0, 3)
    m = DecomposableHiggsModel(surf, lines(surf, (5, F(1, 2))))
    assert stability_verdict(m).verdict == "stable"


def test_feasibility_warnings():
    surf = standard_surface(0, 3)     # deg K(D) = 1
    m = DecomposableHiggsModel(surf, lines(surf, (0, 0), (3, 0)),
                               frozenset({(0, 1), (1, 0)}))
    assert arrow_feasibility_violations(m) == [(0, 1)]


# ------------------------------------------- differential and properties ----

def _components(n, arrows):
    """Connected components of the arrow graph, ignoring direction."""
    comps, seen = [], set()
    for start in range(n):
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            k = stack.pop()
            if k not in comp:
                comp.add(k)
                stack += [b if a == k else a for (a, b) in arrows if k in (a, b)]
        seen |= comp
        comps.append(sorted(comp))
    return comps


def brute_verdict(oracles, pds, arrows):
    """(verdict, witness, slope) from Fraction sums over the oracle's
    closed subsets, which come in lexicographic order."""
    n = len(pds)
    mu = sum(pds, F(0)) / n
    slopes = [(s, sum((pds[k] for k in s), F(0)) / len(s))
              for s in oracles.closed_subsets(n, sorted(arrows))]
    top = max((sl for _, sl in slopes), default=mu)
    if top > mu:
        return "unstable", next(s for s, sl in slopes if sl == top), mu
    ties = [s for s, sl in slopes if sl == mu]
    if not ties:
        return "stable", None, mu

    def piece_stable(c):
        pos = {k: t for t, k in enumerate(c)}
        sub = [(pos[i], pos[j]) for (i, j) in arrows if i in pos and j in pos]
        return brute_verdict(oracles, [pds[k] for k in c], sub)[0] == "stable"

    comps = _components(n, arrows)
    if len(comps) > 1 and all(
            sum((pds[k] for k in c), F(0)) / len(c) == mu and piece_stable(c)
            for c in comps):
        return "polystable", None, mu
    return "strictly_semistable", ties[0], mu


def rand_tie_prone_model(rng, n):
    """Small degrees and half weights, so equal slopes are common."""
    g, s = rng.choice(HYP)
    surf = standard_surface(g, s)
    summands = tuple(ParabolicLineBundle(
        rng.randint(-1, 1), {x: F(rng.randrange(0, 2), 2) for x in surf.labels()})
        for _ in range(n))
    p = rng.choice((0.0, 0.1, 0.25, 0.5))
    arrows = frozenset((i, j) for i in range(n) for j in range(n)
                       if i != j and rng.random() < p)
    return DecomposableHiggsModel(surf, summands, arrows)


def test_verdict_matches_brute_force(oracles):
    rng = random.Random(4242)
    seen = set()
    for _ in range(400):
        m = rand_tie_prone_model(rng, rng.randint(1, 10))
        r = stability_verdict(m)
        assert (r.verdict, r.witness, r.slope) == \
            brute_verdict(oracles, m.pardegs(), m.arrows)
        seen.add(r.verdict)
    assert seen == {"stable", "unstable", "strictly_semistable", "polystable"}


def rand_split_model(rng):
    """Blocks of slope 0 with arrows only inside each block, so the graph
    splits and every piece has the total slope."""
    g, s = rng.choice(HYP)
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
    degrees, arrows = [], set()
    for size in sizes:
        block = range(len(degrees), len(degrees) + size)
        ds = [rng.randint(-1, 1) for _ in range(size - 1)]
        degrees += ds + [-sum(ds)]
        arrows |= {(i, j) for i in block for j in block
                   if i != j and rng.random() < 0.4}
    return DecomposableHiggsModel(
        standard_surface(g, s), tuple(ParabolicLineBundle(d) for d in degrees),
        frozenset(arrows))


def test_split_verdicts_match_brute_force(oracles):
    rng = random.Random(2020)
    seen = set()
    for _ in range(300):
        m = rand_split_model(rng)
        r = stability_verdict(m)
        assert (r.verdict, r.witness, r.slope) == \
            brute_verdict(oracles, m.pardegs(), m.arrows)
        seen.add(r.verdict)
    assert {"polystable", "strictly_semistable"} <= seen


def test_alpha_check_matches_reduction_degrees(oracles):
    """The closed form against the old route: every invariant two-step
    reduction through sp_filtration_degree at alpha = 0, first failure
    returned."""
    rng = random.Random(909)
    fails = 0
    for _ in range(150):
        m = rand_tie_prone_model(rng, rng.randint(1, 6))
        full = list(range(m.n))
        subs = oracles.closed_subsets(m.n, sorted(m.arrows))
        # alpha at some quotient's slope, so the boundary case occurs
        pick = rng.choice(subs) if subs else None
        alpha = F(0) if pick is None else \
            (m.sub_pardeg(full) - m.sub_pardeg(pick)) / (m.n - len(pick))
        want = next(((False, s) for s in subs if sp_filtration_degree(
            m, [list(s), full], (F(0), F(1)), F(0)) - alpha * (m.n - len(s)) < 0),
            (True, None))
        assert alpha_stability_check_gl(m, alpha) == want
        fails += not want[0]
    assert 20 < fails < 130


@st.composite
def models(draw, max_n=5):
    g, s = draw(st.sampled_from(HYP))
    surf = standard_surface(g, s)
    n = draw(st.integers(1, max_n))
    summands = tuple(ParabolicLineBundle(
        draw(st.integers(-3, 3)),
        {x: F(draw(st.integers(0, 3)), 4) for x in surf.labels()})
        for _ in range(n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    arrows = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return DecomposableHiggsModel(surf, summands, frozenset(arrows))


@settings(max_examples=60, deadline=None)
@given(models())
def test_two_step_reduction_degree_is_quotient_pardeg(m):
    full = list(range(m.n))
    total = m.sub_pardeg(full)
    for sub in invariant_subsets(m):
        assert sp_filtration_degree(m, [list(sub), full], (F(0), F(1)), F(0)) \
            == total - m.sub_pardeg(sub)


@settings(max_examples=150, deadline=None)
@given(models(max_n=7), st.randoms(use_true_random=False))
def test_verdict_is_invariant_under_permuting_summands(m, rng):
    perm = list(range(m.n))
    rng.shuffle(perm)                       # new index t holds old perm[t]
    back = {old: new for new, old in enumerate(perm)}
    pm = DecomposableHiggsModel(
        m.surface, tuple(m.summands[k] for k in perm),
        frozenset((back[i], back[j]) for (i, j) in m.arrows))
    r, pr = stability_verdict(m), stability_verdict(pm)
    assert (pr.verdict, pr.slope) == (r.verdict, r.slope)
    if r.witness is None:
        assert pr.witness is None
        return
    # the witnesses may differ, but both are invariant and of equal slope
    moved = tuple(sorted(perm[t] for t in pr.witness))
    assert moved in invariant_subsets(m)
    assert m.sub_pardeg(moved) / len(moved) == \
        m.sub_pardeg(r.witness) / len(r.witness)


# ------------------------------------------------------------ rank bound ----

def test_rank_above_limit_is_refused_before_enumeration():
    surf = standard_surface(2, 1)
    n = MAX_VERDICT_RANK + 1
    m = DecomposableHiggsModel(surf, lines(surf, *[(0, 0)] * n))
    for call in (stability_verdict, invariant_subsets,
                 lambda model: alpha_stability_check_gl(model, F(0))):
        with pytest.raises(DomainError) as e:
            call(m)
        assert e.value.payload() == {"error": "rank_too_large", "n": n,
                                     "limit": MAX_VERDICT_RANK}


def test_subset_list_above_its_own_rank_is_refused_before_enumeration(
        monkeypatch):
    surf = standard_surface(2, 1)
    n = MAX_SUBSET_LIST_RANK + 1
    assert n <= MAX_VERDICT_RANK
    m = DecomposableHiggsModel(surf, lines(surf, *[(0, 0)] * n))
    assert stability_verdict(m).verdict == "polystable"

    def no_table(model, nums):
        raise AssertionError("subset table built")
    monkeypatch.setattr(stability, "_closed_sets", no_table)
    with pytest.raises(DomainError) as e:
        invariant_subsets(m)
    assert e.value.payload() == {"error": "rank_too_large", "n": n,
                                 "limit": MAX_SUBSET_LIST_RANK}


def test_subset_list_at_its_rank_limit_lists_every_subset():
    surf = standard_surface(2, 1)
    n = MAX_SUBSET_LIST_RANK
    m = DecomposableHiggsModel(surf, lines(surf, *[(0, 0)] * n))
    subsets = invariant_subsets(m)
    assert len(subsets) == 2 ** n - 2
    assert subsets[:2] == [(0,), (0, 1)] and subsets[-1] == (n - 1,)


def test_rank_at_limit_still_gets_a_verdict():
    m = hitchin_model(MAX_VERDICT_RANK, 2, 1)
    assert stability_verdict(m).verdict == "stable"


# ---------------------------------------------------- closed-set table ----

def test_closed_sets_are_the_oracle_closures_with_their_sums(oracles):
    rng = random.Random(1972)
    surf = standard_surface(2, 1)
    for _ in range(150):
        n = rng.randint(0, 12)
        p = rng.choice((0.0, 0.1, 0.25, 0.4, 0.6))
        arrows = sorted((i, j) for i in range(n) for j in range(n)
                        if rng.random() < p)
        m = DecomposableHiggsModel(
            surf, tuple(rand_line(rng, surf.labels()) for _ in range(n)),
            frozenset(arrows))
        den, nums, masks, sums = stability._closed_table(m)
        full = (1 << n) - 1
        assert masks[0] == 0 and masks[-1] == full
        assert len(set(masks)) == len(masks) == len(sums)
        want = [(), *oracles.closed_subsets(n, arrows)]
        if n:
            want.append(tuple(range(n)))
        assert sorted(stability._mask_tuple(c) for c in masks) == sorted(want)
        for c, x in zip(masks, sums):
            assert x == den * m.sub_pardeg(stability._mask_tuple(c))


def test_a_hitchin_chain_has_only_the_two_trivial_closed_sets():
    for k in range(2, MAX_VERDICT_RANK + 1):
        for g, s in HYP:
            m = hitchin_model(k, g, s)
            masks, sums = stability._closed_sets(m, [1] * k)
            assert (masks, sums) == ([0, (1 << k) - 1], [0, k])


def test_verdict_at_the_rank_limit_builds_no_subset_table():
    m = hitchin_model(MAX_VERDICT_RANK, 2, 1)
    tracemalloc.start()
    try:
        report = stability_verdict(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict == "stable"
    assert peak < 1 << 20


# ------------------------------------------------------ Toledo and MW ----

def test_milnor_wood_values():
    assert milnor_wood_bound(2, 2, 1) == F(3)
    assert milnor_wood_bound(1, 0, 3) == F(1, 2)
    with pytest.raises(DomainError) as e:
        milnor_wood_bound(1, 1, 0)
    assert e.value.code == "not_hyperbolic"


def test_milnor_wood_refuses_a_negative_rank_first():
    assert milnor_wood_bound(0, 2, 1) == 0
    for n, g, s in [(-3, 2, 1), (-1, 1, 0), (-1, 2, -1)]:
        with pytest.raises(DomainError) as e:
            milnor_wood_bound(n, g, s)
        assert e.value.payload() == {"error": "negative_rank", "n": n}


def test_general_interval_no_hyperbolicity_check():
    assert general_mw_interval(2, 3, 2, 1) == (F(-6), F(9))
    assert general_mw_interval(1, 1, 1, 0) == (F(0), F(0))
    assert general_mw_interval(0, 2, 1, 2) == (F(0), F(4))
    with pytest.raises(DomainError):
        general_mw_interval(-1, 0, 2, 1)


@pytest.mark.parametrize("rk_plus,rk_minus", [
    (1.5, 1), (True, 1), (1, False), (1, F(2)), ("1", 1), (-1.5, 0)])
def test_general_interval_refuses_a_rank_that_is_not_an_int(rk_plus, rk_minus):
    # before the surface, as milnor_wood_bound does
    for g, s in [(2, 1), (-1, 3)]:
        with pytest.raises(DomainError) as e:
            general_mw_interval(rk_plus, rk_minus, g, s)
        assert e.value.payload() == {"error": "bad_rank", "rk_plus": rk_plus,
                                     "rk_minus": rk_minus}


@pytest.mark.parametrize("args,payload", [
    ((1, 1, -1, 3), {"error": "bad_genus", "genus": -1}),
    ((1, 1, 2, -1), {"error": "bad_marked_points", "s": -1}),
    ((-1, 0, -1, -1), {"error": "negative_rank", "rk_plus": -1, "rk_minus": 0}),
])
def test_general_interval_refuses_a_negative_genus_or_point_count(args, payload):
    # deg K(D) is read off the standard surface, which checks g and s
    with pytest.raises(DomainError) as e:
        general_mw_interval(*args)
    assert e.value.payload() == payload


def test_sp_triple_requires_symmetric_supports():
    surf = standard_surface(2, 1)
    v = lines(surf, (0, 0), (0, 0))
    with pytest.raises(DomainError) as e:
        SpTripleModel(surf, v, frozenset({(0, 1)}), frozenset())
    assert e.value.code == "asymmetric_support"
    SpTripleModel(surf, v, frozenset({(0, 1), (1, 0)}), frozenset({(0, 0)}))


def test_to_decomposable_arrow_layout():
    surf = standard_surface(2, 1)
    v = lines(surf, (1, 0), (2, 0))
    m = SpTripleModel(surf, v, frozenset({(0, 1), (1, 0)}),
                      frozenset({(1, 1)}))
    d = m.to_decomposable()
    assert d.n == 4
    assert d.arrows == frozenset({(0, 3), (1, 2), (3, 1)})
    assert pardeg(d.summands[2], surf) == -pardeg(v[0], surf)


def test_sp_dual_negates_toledo():
    rng = random.Random(11)
    for n in (1, 2, 3):
        for g, s in HYP:
            surf = standard_surface(g, s)
            v = tuple(rand_line(rng, surf.labels()) for _ in range(n))
            m = SpTripleModel(surf, v, frozenset({(0, 0)}), frozenset())
            assert toledo(sp_dual(m)) == -toledo(m)
            back = sp_dual(sp_dual(m))
            assert toledo(back) == toledo(m)
            assert back.beta_arrows == m.beta_arrows


def test_stored_duals_are_shared_and_invisible():
    rng = random.Random(13)
    for n in (1, 2, 3):
        for g, s in HYP:
            surf = standard_surface(g, s)
            v = tuple(rand_line(rng, surf.labels()) for _ in range(n))
            t = SpTripleModel(surf, v, frozenset({(0, 0)}), frozenset({(0, 0)}))
            fresh = SpTripleModel(surf, v, frozenset({(0, 0)}),
                                  frozenset({(0, 0)}))
            before = (repr(t), to_json(t))
            duals = t.to_decomposable().summands[n:]
            assert t == fresh and (repr(t), to_json(t)) == before
            assert repr(fresh) == before[0] and to_json(fresh) == before[1]
            dual_v = sp_dual(t).v_summands
            assert len(dual_v) == n
            assert all(a is b for a, b in zip(dual_v, duals))
            assert dual_v == tuple(par_dual(x) for x in v)
            for x, d in zip(v, dual_v):
                assert d.weight_at == {lbl: 1 - w if w else w
                                       for lbl, w in x.weight_at.items()}


@st.composite
def sp_triples(draw, max_n=4):
    """Triples whose V weights are spelled as Fractions, ints and strings."""
    surf = standard_surface(*draw(st.sampled_from(HYP)))
    n = draw(st.integers(1, max_n))
    spellings = st.sampled_from([F(1, 3), "1/2", "2/4", 0, F(0), "3/4"])
    v = tuple(ParabolicLineBundle(
        draw(st.integers(-4, 4)),
        {x: draw(spellings)
         for x in draw(st.lists(st.sampled_from(surf.labels()), unique=True))})
        for _ in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    beta, gamma = (draw(st.sets(st.sampled_from(pairs))) for _ in range(2))
    return SpTripleModel(surf, v,
                         frozenset(beta | {(j, i) for i, j in beta}),
                         frozenset(gamma | {(j, i) for i, j in gamma}))


@settings(max_examples=150, deadline=None)
@given(sp_triples())
def test_sp_dual_negates_toledo_property(m):
    definition = sum((v.degree + sum(v.weight_at.values(), F(0))
                      for v in m.v_summands), F(0))
    assert toledo(m) == definition and type(toledo(m)) is F
    assert toledo(sp_dual(m)) == -definition
    assert sp_dual(sp_dual(m)) == m


def _same_model(a, b, alpha):
    assert a == b and (repr(a), to_json(a)) == (repr(b), to_json(b))
    assert stability_verdict(a) == stability_verdict(b)
    assert alpha_stability_check_gl(a, alpha) == \
        alpha_stability_check_gl(b, alpha)


@pytest.mark.parametrize("k", range(2, 13))
def test_a_hitchin_model_equals_its_constructor_twin(k):
    m = hitchin_model(k, 1, 2)
    twin = DecomposableHiggsModel(m.surface, list(m.summands), set(m.arrows))
    _same_model(m, twin, F(1, 2))


def _same_triple(a, b, alpha):
    assert a == b and (repr(a), to_json(a)) == (repr(b), to_json(b))
    assert toledo(a) == toledo(b) and type(toledo(a)) is F
    _same_model(a.to_decomposable(), b.to_decomposable(), alpha)


@settings(max_examples=150, deadline=None)
@given(sp_triples(), st.booleans(),
       st.sampled_from([F(0), F(1, 2), F(-3, 4), 1]))
def test_derived_values_match_their_constructor_twins(t, toledo_first, alpha):
    """Models and triples built from checked parts equal, and answer as,
    the same values built by the public constructors."""
    before = (repr(t), to_json(t))
    if toledo_first:
        toledo(t)                       # the dual then takes t's pardegs
    dual = sp_dual(t)
    n, surf = t.n, t.surface
    duals = tuple(par_dual(v) for v in t.v_summands)
    arrows = {(i, n + j) for i, j in t.beta_arrows}
    arrows |= {(n + i, j) for i, j in t.gamma_arrows}
    _same_model(t.to_decomposable(),
                DecomposableHiggsModel(surf, t.v_summands + duals, arrows),
                alpha)
    _same_triple(dual, SpTripleModel(surf, duals, t.gamma_arrows,
                                     t.beta_arrows), alpha)
    _same_triple(sp_dual(dual), SpTripleModel(surf, t.v_summands,
                                              t.beta_arrows, t.gamma_arrows),
                 alpha)
    assert toledo(dual) == -toledo(t)
    assert (repr(t), to_json(t)) == before


def _direct_table(lines, surf):
    """(den, nums) computed from pardeg, each pardeg an exact Fraction."""
    pds = [pardeg(l, surf) for l in lines]
    assert all(type(p) is F for p in pds)
    den = math.lcm(*[p.denominator for p in pds])
    return den, [p.numerator * (den // p.denominator) for p in pds]


def _check_model_from_pardegs(m, alpha):
    """The verdict's slope and the alpha check agree with the model's
    pardegs, and the table the model keeps is those pardegs over their lcm."""
    report = stability_verdict(m)
    assert m._table == _direct_table(m.summands, m.surface)
    pds = m.pardegs()
    assert report.slope == sum(pds, F(0)) / m.n and type(report.slope) is F
    total = sum(pds, F(0))
    first = next((sub for sub in invariant_subsets(m)
                  if total - sum((pds[i] for i in sub), F(0))
                  < alpha * (m.n - len(sub))), None)
    assert alpha_stability_check_gl(m, alpha) == (first is None, first)


@settings(max_examples=150, deadline=None)
@given(sp_triples(), st.booleans(),
       st.sampled_from([F(0), F(1, 2), F(-3, 4), F(5, 3)]))
def test_kept_pardeg_tables_match_pardeg(t, toledo_first, alpha):
    """Triples, their induced models and their duals keep their pardegs as
    integers; what they give equals what pardeg gives, whether the Toledo
    invariant fills the triple's table before or after the verdict, and
    whether a dual is made before or after its triple keeps one."""
    def check(triple):
        if toledo_first:
            toledo(triple)
        _check_model_from_pardegs(triple.to_decomposable(), alpha)
        assert triple._pardeg_table() == _direct_table(triple.v_summands,
                                                       triple.surface)
        tol = toledo(triple)
        assert tol == sum((pardeg(v, triple.surface) for v in triple.v_summands),
                          F(0)) and type(tol) is F

    early = sp_dual(t)
    check(t)
    check(early)
    check(sp_dual(t))                   # takes t's kept table, negated


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.sampled_from(HYP),
       st.sampled_from([F(0), F(1, 2), F(-3, 4), F(5, 3)]))
def test_hitchin_tables_match_pardeg(k, gs, alpha):
    _check_model_from_pardegs(hitchin_model(k, *gs), alpha)
    if k % 2 == 0:
        t = hitchin_sp_triple(k, *gs)
        _check_model_from_pardegs(t.to_decomposable(), alpha)
        assert t._pardeg_table() == _direct_table(t.v_summands, t.surface)
        assert toledo(t) == milnor_wood_bound(t.n, t.surface.genus, t.surface.s)


def test_toledo_of_the_empty_triple_is_a_fraction():
    t = SpTripleModel(standard_surface(2, 1), ())
    assert repr(toledo(t)) == "Fraction(0, 1)"
    assert to_json(toledo(t)) == "0"


@pytest.mark.parametrize("m,unknown", [
    (SpTripleModel(standard_surface(2, 1),
                   (ParabolicLineBundle(1, {"x9": F(1, 2), "x1": 0}),),
                   frozenset(), frozenset({(0, 0)})), ["x9"]),
    (SpTripleModel(standard_surface(1, 1),
                   (ParabolicLineBundle(0, {"y": F(1, 2)}),)), ["y"]),
], ids=["x9", "y"])
def test_toledo_refuses_weights_at_unknown_points(m, unknown):
    """The induced model is built; its verdict and the Toledo invariant
    refuse the weight, each on every call."""
    model = m.to_decomposable()
    for call in (lambda: stability_verdict(model), lambda: toledo(m)) * 2:
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.payload() == {"error": "flag_surface_mismatch",
                                       "unknown": unknown}


# ------------------------------------------------------ Hitchin family ----

def test_hitchin_pardegs_frozen():
    m3 = hitchin_model(3, 2, 1)
    assert m3.pardegs() == [F(-3), F(0), F(3)]
    m4 = hitchin_model(4, 2, 1)
    assert m4.pardegs() == [F(-9, 2), F(-3, 2), F(3, 2), F(9, 2)]


def test_hitchin_total_pardeg_zero_and_stable():
    for k in range(2, 6):
        for g, s in HYP:
            m = hitchin_model(k, g, s)
            assert m.sub_pardeg(range(k)) == 0
            assert stability_verdict(m).verdict == "stable"


def test_hitchin_weights_by_parity():
    surf = standard_surface(2, 1)
    assert hitchin_model(4, 2, 1).summands[0].weight("x1") == F(1, 2)
    assert hitchin_model(3, 2, 1).summands[0].weight("x1") == F(0)
    del surf


def test_hitchin_rejects_bad_input():
    with pytest.raises(DomainError):
        hitchin_model(1, 2, 1)
    with pytest.raises(DomainError) as e:
        hitchin_model(2, 1, 0)
    assert e.value.code == "not_hyperbolic"
    with pytest.raises(DomainError):
        hitchin_sp_triple(3, 2, 1)


def test_hitchin_sp_triple_is_maximal_and_stable():
    for k in (2, 4):
        for g, s in HYP:
            t = hitchin_sp_triple(k, g, s)
            assert toledo(t) == milnor_wood_bound(k // 2, g, s)
            assert is_maximal(t)
            assert not is_maximal(sp_dual(t))
            assert stability_verdict(t.to_decomposable()).verdict == "stable"


def test_hitchin_sp_triple_k4_supports():
    t = hitchin_sp_triple(4, 2, 1)
    assert t.beta_arrows == frozenset({(0, 0), (1, 1), (0, 1), (1, 0)})
    assert t.gamma_arrows == frozenset({(0, 1), (1, 0)})
    assert [pardeg(v, t.surface) for v in t.v_summands] == [F(9, 2), F(-3, 2)]


# ------------------------------------------- randomized Milnor-Wood law ----

def _rand_involution_support(rng, n, pair_ok):
    """Symmetric pattern with each index in at most one arrow pair, every
    pair passing the degree gate `pair_ok`.  Shared targets would make the
    kernel of the field a non-coordinate subbundle, outside the regime the
    coordinate verdict decides."""
    pat = set()
    free = list(range(n))
    rng.shuffle(free)
    while free:
        i = free.pop()
        if rng.random() < 0.35:
            continue
        cands = [j for j in free + [i] if pair_ok(i, j)]
        if not cands:
            continue
        j = rng.choice(cands)
        pat |= {(i, j), (j, i)}
        if j != i:
            free.remove(j)
    return frozenset(pat)


def rand_feasible_triple(rng, n, g, s):
    """Random triple with degree-feasible involutive beta/gamma supports."""
    surf = standard_surface(g, s)
    kd = 2 * g - 2 + s
    v = tuple(rand_line(rng, surf.labels()) for _ in range(n))
    p = [pardeg(l, surf) for l in v]
    beta = _rand_involution_support(rng, n, lambda i, j: -p[i] - p[j] <= kd)
    gamma = _rand_involution_support(rng, n, lambda i, j: p[i] + p[j] <= kd)
    return SpTripleModel(surf, v, beta, gamma)


def test_random_semistable_triples_obey_milnor_wood():
    rng = random.Random(2024)
    seen_semistable = 0
    for n in (1, 2, 3):
        for g, s in HYP:
            bound = milnor_wood_bound(n, g, s)
            for _ in range(200):
                t = rand_feasible_triple(rng, n, g, s)
                assert toledo(sp_dual(t)) == -toledo(t)
                for pat in (t.beta_arrows, t.gamma_arrows):
                    for k in range(n):
                        assert sum(1 for (i, j) in pat if i == k) <= 1
                v = stability_verdict(t.to_decomposable()).verdict
                if v != "unstable":
                    seen_semistable += 1
                    assert abs(toledo(t)) <= bound
    assert seen_semistable > 50     # the property was actually exercised


# ------------------------------------------------ filtration machinery ----

def test_weighted_filtration_validation():
    # the weighted coordinate filtration is checked by one helper
    m = hitchin_model(3, 2, 1)
    for steps, lam, code in (
            ([[0], [0, 1, 2]], (F(1), F(1)), "filtration_weights_not_increasing"),
            ([[0], [0, 1]], (F(0), F(1)), "filtration_must_end_full"),
            ([[0, 1], [1, 2], [0, 1, 2]], (F(0), F(1), F(2)),
             "filtration_not_nested"),
            ([[], [0, 1, 2]], (F(0), F(1)), "bad_index_step"),
            ([[0], [0, 1, 2]], (F(1),), "bad_filtration_shape")):
        with pytest.raises(DomainError) as err:
            sp_filtration_degree(m, steps, lam, F(0))
        assert err.value.code == code


@pytest.mark.parametrize("bad", [0.1, "1/3", float("nan"), True, None])
def test_alpha_and_filtration_weights_are_exact_rationals(bad):
    """alpha and each filtration weight is a Fraction or an int: a float is
    not taken at its binary value, nor a string parsed."""
    m = hitchin_model(3, 2, 1)
    steps = [[0], [0, 1, 2]]
    for call in (lambda: alpha_stability_check_gl(m, bad),
                 lambda: sp_filtration_degree(m, steps, (F(0), F(1)), bad)):
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.code == "bad_alpha" and err.value.info.keys() == {"alpha"}
    with pytest.raises(DomainError) as err:
        sp_filtration_degree(m, steps, (F(-1), bad), F(0))
    assert err.value.code == "bad_filtration_weight"
    assert err.value.info.keys() == {"weight"}


def test_an_int_alpha_reads_as_its_fraction():
    m = hitchin_model(3, 2, 1)
    steps = [[0], [0, 1, 2]]
    for alpha in (0, -2, 3):
        assert alpha_stability_check_gl(m, alpha) == \
            alpha_stability_check_gl(m, F(alpha))
        assert sp_filtration_degree(m, steps, (0, 1), alpha) == \
            sp_filtration_degree(m, steps, (F(0), F(1)), F(alpha))
    half = F(1, 2)
    assert stability._exact_rational(half, "bad_alpha") is half


def test_pardeg_of_reduction_matches_weighted_pardegs():
    rng = random.Random(5)
    for _ in range(40):
        g, s = rng.choice(HYP)
        surf = standard_surface(g, s)
        n = rng.randint(2, 4)
        m = DecomposableHiggsModel(
            surf, tuple(rand_line(rng, surf.labels()) for _ in range(n)))
        k = rng.randint(1, n)
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), k - 1)) + [n]
        steps = [sorted(order[:c]) for c in cuts]
        lam = sorted(rng.sample(range(-5, 6), k))
        lam = [F(x) for x in lam]
        expected = lam[-1] * m.sub_pardeg(range(n))
        for i in range(k - 1):
            expected += (lam[i] - lam[i + 1]) * m.sub_pardeg(steps[i])
        assert sp_filtration_degree(m, steps, lam, F(0)) == expected


def test_reduction_input_validation():
    surf = standard_surface(2, 1)
    m = DecomposableHiggsModel(surf, lines(surf, (0, 0), (1, 0)))
    with pytest.raises(DomainError):
        sp_filtration_degree(m, [[0]], [F(1)], F(0))           # never reaches full
    with pytest.raises(DomainError):
        sp_filtration_degree(m, [[1], [0, 1]], [F(1)], F(0))   # shape mismatch


def test_weight_at_unknown_label_is_refused():
    surf = standard_surface(2, 1)
    m = DecomposableHiggsModel(surf, (ParabolicLineBundle(1, {"y": F(1, 2)}),))
    for call in (lambda: sp_filtration_degree(m, [[0]], [F(1)], F(0)),
                 lambda: stability_verdict(m)):
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.code == "flag_surface_mismatch"


def test_alpha_check_agrees_with_verdict_at_mean_slope():
    rng = random.Random(77)
    for _ in range(120):
        g, s = rng.choice(HYP)
        surf = standard_surface(g, s)
        n = rng.randint(1, 4)
        arrows = set()
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.3:
                    arrows.add((i, j))
        m = DecomposableHiggsModel(
            surf, tuple(rand_line(rng, surf.labels()) for _ in range(n)),
            frozenset(arrows))
        mu = m.sub_pardeg(range(n)) / n
        ok, witness = alpha_stability_check_gl(m, mu)
        verdict = stability_verdict(m).verdict
        assert ok == (verdict != "unstable")
        if not ok:
            assert m.sub_pardeg(witness) / len(witness) > mu


def test_sp_filtration_degree_frozen_example():
    m = hitchin_model(2, 2, 1)
    val = sp_filtration_degree(m, [[0], [0, 1]], (F(-1), F(1)), F(0))
    assert val == F(3)
    assert m.pardegs() == [F(-3, 2), F(3, 2)]


def test_sp_filtration_degree_refuses_non_increasing_weights():
    with pytest.raises(DomainError) as err:
        sp_filtration_degree(hitchin_model(2, 2, 1), [[0], [0, 1]],
                             (F(1), F(0)), F(0))
    assert err.value.code == "filtration_weights_not_increasing"


# ---------------------------------------------------------------- JSON ----

def test_model_json_round_trip():
    rng = random.Random(3)
    surf = standard_surface(1, 2)
    m = DecomposableHiggsModel(
        surf, tuple(rand_line(rng, surf.labels()) for _ in range(3)),
        frozenset({(0, 1), (2, 0)}))
    back = from_json(DecomposableHiggsModel, to_json(m))
    assert back == m
    t = hitchin_sp_triple(4, 2, 1)
    assert sp_triple_from_json(to_json(t)) == t
