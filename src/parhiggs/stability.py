"""Stability for decomposable parabolic Higgs models and Sp(2n,R) triples.

A decomposable model is a direct sum of parabolic line bundles together with
the support pattern of the Higgs field (arrows dst <- src, each asserting a
nonzero component L_src -> L_dst (x) K(D)).  Stability is decided over the
coordinate subbundles: that is exactly the argument pattern the explicit
families below (Hitchin sections, maximal triples) live in, and it is
finitely decidable.

Also here: the degree of a weighted coordinate filtration and the
reduction-degree test built on it, the Toledo invariant with its Milnor-Wood
bounds, and the Hitchin-family builders.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .codec import from_json
from .exact_core import (DomainError, exact_int, frozen_value, rat, rational_sum,
                         read_container)
from .parbun import ParabolicLineBundle, _pardegs_over_lcm, par_dual, pardeg
from .surface import MarkedSurface, deg_kd, require_hyperbolic, standard_surface

__all__ = [
    "DecomposableHiggsModel",
    "SpTripleModel",
    "StabilityReport",
    "MAX_VERDICT_RANK",
    "MAX_SUBSET_LIST_RANK",
    "invariant_subsets",
    "arrow_feasibility_violations",
    "stability_verdict",
    "toledo",
    "milnor_wood_bound",
    "general_mw_interval",
    "is_maximal",
    "sp_dual",
    "hitchin_model",
    "hitchin_sp_triple",
    "alpha_stability_check_gl",
    "sp_filtration_degree",
    "sp_triple_from_json",
]

Arrow = tuple[int, int]   # (dst, src)


def _arrow_set(arrows, n: int, code: str) -> frozenset[Arrow]:
    """The arrows as a frozenset, each checked before it is frozen: a pair
    (dst, src) of exact ints in 0..n-1.  Anything else is refused with
    arrow_out_of_range, the arrow as a list where it is a tuple or a list,
    and n.  A set is read and frozen as it is, so the frozenset, and its
    repr, are the set's; any other value is read as a tuple (else
    ``code``)."""
    pairs = arrows if isinstance(arrows, (set, frozenset)) else \
        read_container(arrows, tuple, code)
    for a in pairs:
        i, j = a if type(a) is tuple and len(a) == 2 else (None, None)
        if (type(i) is not int or type(j) is not int
                or not (0 <= i < n and 0 <= j < n)):
            raise DomainError("arrow_out_of_range", n=n, arrow=list(a)
                              if isinstance(a, (tuple, list)) else a)
    return frozenset(pairs)


def _supports(n: int, beta, gamma) -> list[frozenset[Arrow]]:
    """[beta, gamma]: a triple's two supports, checked in that order, each
    an arrow set over its n summands whose every arrow (i, j) has its
    mirror (j, i) (else asymmetric_support)."""
    out = []
    for name, arrows, code in (("beta", beta, "beta_arrows_not_sequence"),
                               ("gamma", gamma, "gamma_arrows_not_sequence")):
        pat = _arrow_set(arrows, n, code)
        for (i, j) in pat:
            if (j, i) not in pat:
                raise DomainError("asymmetric_support", which=name, arrow=[i, j])
        out.append(pat)
    return out


def _check_parts(surface, summands) -> None:
    """Refuse a summand that is not a parabolic line bundle, then a surface
    that is not a MarkedSurface: the models' ranks and pardeg tables count
    one summand each, over the surface's points."""
    for i, l in enumerate(summands):
        if type(l) is not ParabolicLineBundle:
            raise DomainError("summand_not_line_bundle", index=i,
                              type=type(l).__name__)
    if type(surface) is not MarkedSurface:
        raise DomainError("surface_not_marked_surface",
                          type=type(surface).__name__)


@frozen_value
class DecomposableHiggsModel:
    """A direct sum of parabolic line bundles with the Higgs field's arrows.

    The summands' pardegs over their common denominator are kept outside
    the fields that equality, repr and JSON read, filled on first use, for
    the verdict and the alpha check.  ``summands`` is not to be mutated.
    """

    surface: MarkedSurface
    summands: tuple[ParabolicLineBundle, ...]
    arrows: frozenset[Arrow] = frozenset()
    # a kept value, not a field; an instance holds its own once filled
    _table = None

    def __post_init__(self):
        summands = read_container(self.summands, tuple, "summands_not_sequence")
        object.__setattr__(self, "summands", summands)
        DecomposableHiggsModel._rules(self)
        _check_parts(self.surface, summands)

    def _rules(self):
        """The arrows, read by _arrow_set over the summands."""
        object.__setattr__(self, "arrows", _arrow_set(
            self.arrows, len(self.summands), "arrows_not_sequence"))

    @property
    def n(self) -> int:
        return len(self.summands)

    def pardegs(self) -> list[Fraction]:
        return [pardeg(l, self.surface) for l in self.summands]

    def sub_pardeg(self, subset: Iterable[int]) -> Fraction:
        """Kept: the pardeg of the summands in subset, which the stability
        tests check verdicts, witnesses and reduction degrees against."""
        pd = self.pardegs()
        return rational_sum([pd[i] for i in subset])


@frozen_value
class SpTripleModel:
    """Sp(2n,R) data: summand list of V plus symmetric beta/gamma supports.

    beta (i,j) asserts a nonzero component V_j^dual -> V_i (x) K(D) and
    gamma (i,j) one of V_j -> V_i^dual (x) K(D); both come from symmetric
    morphisms, so their supports must be symmetric index patterns.

    Two values are kept outside the fields that equality, repr and JSON
    read, each filled on first use: the parabolic duals of V's summands,
    which the induced model and the dual triple share, and V's pardegs over
    their common denominator, filled with ``pardeg``'s point checks, which
    the Toledo invariant and the dual triple read.
    ``v_summands`` is not to be mutated.
    """

    surface: MarkedSurface
    v_summands: tuple[ParabolicLineBundle, ...]
    beta_arrows: frozenset[Arrow] = frozenset()
    gamma_arrows: frozenset[Arrow] = frozenset()
    # kept values, not fields; an instance holds its own once filled
    _duals = _table = None

    def __post_init__(self):
        v = read_container(self.v_summands, tuple, "v_summands_not_sequence")
        object.__setattr__(self, "v_summands", v)
        SpTripleModel._rules(self)
        _check_parts(self.surface, v)

    def _rules(self):
        beta, gamma = _supports(len(self.v_summands), self.beta_arrows,
                                self.gamma_arrows)
        object.__setattr__(self, "beta_arrows", beta)
        object.__setattr__(self, "gamma_arrows", gamma)

    @property
    def n(self) -> int:
        return len(self.v_summands)

    def _v_duals(self) -> tuple[ParabolicLineBundle, ...]:
        duals = self._duals
        if duals is None:
            duals = tuple(par_dual(v) for v in self.v_summands)
            object.__setattr__(self, "_duals", duals)
        return duals

    def _pardeg_table(self) -> tuple[int, list[int]]:
        table = self._table
        if table is None:
            table = _pardegs_over_lcm(self.v_summands, self.surface)
            object.__setattr__(self, "_table", table)
        return table

    def to_decomposable(self) -> DecomposableHiggsModel:
        """The induced model on E = V + V^dual (duals listed after V).

        Its arrows are in range and its summands line bundles because the
        triple's are.  Its pardegs are computed when first needed, so a
        weight at an unknown point is refused there, not here."""
        n = self.n
        arrows = {(i, n + j) for (i, j) in self.beta_arrows}
        arrows |= {(n + i, j) for (i, j) in self.gamma_arrows}
        return DecomposableHiggsModel._store(
            self.surface, self.v_summands + self._v_duals(), frozenset(arrows))


# ------------------------------------------------------------ stability ----

# A verdict lists the closed index sets, one per down-set of the arrows'
# strongly connected classes: two for a Hitchin chain, but all 2^n when no
# arrow ties the summands, so past this rank the list alone could need
# gigabytes.
MAX_VERDICT_RANK = 20
# Listing the subsets builds a sorted tuple for each closed one, up to
# 2^n - 2 of them: 0.36 s and about 11 MB at rank 16 with no arrows, 4.7 s
# and 193 MB at rank 20.
MAX_SUBSET_LIST_RANK = 16


def _check_rank(m: DecomposableHiggsModel, limit: int) -> None:
    if m.n > limit:
        raise DomainError("rank_too_large", n=m.n, limit=limit)


def _reach(n: int, arrows: Iterable[Arrow]) -> list[int]:
    """reach[v]: the bitmask of the indices v forces, itself included, the
    transitive closure of the arrows by Warshall on bitmasks (Warshall 1962,
    "A theorem on Boolean matrices")."""
    reach = [1 << v for v in range(n)]
    for (i, j) in arrows:
        reach[j] |= 1 << i
    for k, rk in enumerate(reach):
        bit = 1 << k
        if rk != bit:                       # k forces something besides k
            for v, r in enumerate(reach):
                if r & bit:
                    reach[v] = r | rk
    return reach


def _closed_sets(m: DecomposableHiggsModel, nums: Sequence[int]
                 ) -> tuple[list[int], list[int]]:
    """(masks, sums): the bitmask of every index set closed under the arrows,
    the empty set first and the full set last, and in parallel the sum of
    nums over each.  The callers check the rank first.

    Indices of equal reach form one strongly connected class, and the closed
    sets are the unions of classes that hold each member's requirements.  A
    class whose reach lies properly inside another's has the smaller reach
    as a number, so in ascending reach each class comes after its
    requirements and doubles only the sets that already hold them.
    """
    weight: dict[int, int] = {}             # reach -> sum of nums over its class
    for r, x in zip(_reach(m.n, m.arrows), nums):
        weight[r] = weight.get(r, 0) + x
    masks, sums, done = [0], [0], 0
    for r in sorted(weight):
        members = r & ~done
        req = r ^ members
        done |= members
        x = weight[r]
        for t in range(len(masks)):
            c = masks[t]
            if c & req == req:
                masks.append(c | members)
                sums.append(sums[t] + x)
    return masks, sums


def _closed_table(m: DecomposableHiggsModel
                  ) -> tuple[int, list[int], list[int], list[int]]:
    """(den, nums, masks, sums): the summands' pardegs over their common
    denominator, kept by m, and the closed sets with their sums of nums.
    Ranks above MAX_VERDICT_RANK are refused first, with rank_too_large."""
    _check_rank(m, MAX_VERDICT_RANK)
    table = m._table
    if table is None:
        table = _pardegs_over_lcm(m.summands, m.surface)
        object.__setattr__(m, "_table", table)
    den, nums = table
    return (den, nums, *_closed_sets(m, nums))


def _mask_tuple(mask: int) -> tuple[int, ...]:
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def _lex_before(a: int, b: int) -> bool:
    """Does the sorted index tuple of mask a precede that of mask b?

    Both agree below their lowest differing index p.  The one holding p
    comes first unless the other one ends there, i.e. has no index above p.
    """
    low = (a ^ b) & -(a ^ b)
    return b >= low << 1 if a & low else a < low << 1


def invariant_subsets(m: DecomposableHiggsModel) -> list[tuple[int, ...]]:
    """Proper nonempty index sets closed under the arrows, lexicographic.

    Kept: the public listing of the closures, which the brute-force oracle's
    closed_subsets is compared with; the verdicts read the same list.

    Ranks above MAX_VERDICT_RANK are refused as in every verdict, and those
    above the lower MAX_SUBSET_LIST_RANK because of the list's size, both
    with rank_too_large before anything is allocated.
    """
    _check_rank(m, MAX_VERDICT_RANK)
    _check_rank(m, MAX_SUBSET_LIST_RANK)
    masks, _ = _closed_sets(m, [0] * m.n)
    return sorted(_mask_tuple(mask) for mask in masks[1:-1])


def arrow_feasibility_violations(m: DecomposableHiggsModel) -> list[Arrow]:
    """Arrows whose Hom line bundle has negative degree (warning, not error).

    A nonzero component L_j -> L_i (x) K(D) needs
    pardeg L_i + (2g-2+s) - pardeg L_j >= 0; weight compatibility can still
    obstruct existence, so a clean list here is necessary, not sufficient.
    """
    pd = m.pardegs()
    kd = deg_kd(m.surface)
    return sorted((i, j) for (i, j) in m.arrows if pd[i] + kd - pd[j] < 0)


@frozen_value
class StabilityReport:
    verdict: str                      # stable | strictly_semistable | unstable | polystable
    witness: tuple[int, ...] | None
    slope: Fraction


def stability_verdict(m: DecomposableHiggsModel) -> StabilityReport:
    """Slope verdict over the invariant coordinate subbundles.

    stable: every invariant subset has strictly smaller parabolic slope;
    unstable: a subset beats the total slope (witness = first maximizer);
    polystable: the arrow graph splits into standalone-stable pieces of equal
    slope; strictly_semistable: equality occurs without that splitting
    (witness = first subset of equal slope).  Ranks above MAX_VERDICT_RANK
    are refused with rank_too_large, as in invariant_subsets and
    alpha_stability_check_gl.
    """
    if m.n == 0:
        raise DomainError("empty_model")
    n = m.n
    den, nums, masks, sums = _closed_table(m)
    total = sums[-1]
    mu = rat(total, den * n)
    # Slopes compared by cross-multiplying.  best: the first maximizer above
    # mu so far; ties: the subsets of slope mu while none is above it.
    best, ties = None, []
    best_sum, best_size = total, n
    for t in range(1, len(masks) - 1):      # the proper nonempty ones
        mask, x = masks[t], sums[t]
        size = mask.bit_count()
        gap = x * best_size - best_sum * size
        if gap > 0 or (gap == 0 and best is not None and _lex_before(mask, best)):
            best, best_sum, best_size = mask, x, size
        elif gap == 0 and best is None:
            ties.append(mask)
    if best is not None:
        return StabilityReport("unstable", _mask_tuple(best), mu)
    if not ties:
        return StabilityReport("stable", None, mu)
    # Nothing beats mu, so a tie meets each component in a closed set of
    # slope mu; a piece is stable alone iff no tie cuts it properly.  The
    # undirected components are the reach classes of the arrows taken both
    # ways; each is a union of arrow classes, so closed itself.
    comps = set(_reach(n, m.arrows | {(j, i) for (i, j) in m.arrows}))
    if len(comps) > 1 and all(n * sum(nums[k] for k in _mask_tuple(c))
                              == total * c.bit_count() for c in comps):
        if all(t & c in (0, c) for t in ties for c in comps):
            return StabilityReport("polystable", None, mu)
    tie = reduce(lambda a, b: b if _lex_before(b, a) else a, ties)
    return StabilityReport("strictly_semistable", _mask_tuple(tie), mu)


# --------------------------------------------------- Toledo, Milnor-Wood ----

def toledo(m: SpTripleModel) -> Fraction:
    """Parabolic Toledo invariant: pardeg V."""
    den, nums = m._pardeg_table()
    return rat(sum(nums), den)


def milnor_wood_bound(n: int, g: int, s: int) -> Fraction:
    """n(g - 1 + s/2), the sharp bound for semistable symplectic models.

    A rank that is not an int (bad_rank) or is negative (negative_rank) is
    refused before the surface is checked; n = 0, the empty triple, has
    bound 0.
    """
    exact_int(n, "bad_rank", n=n)
    if n < 0:
        raise DomainError("negative_rank", n=n)
    require_hyperbolic(standard_surface(g, s))
    return rat(n * (2 * g - 2 + s), 2)


def general_mw_interval(rk_plus: int, rk_minus: int, g: int, s: int
                        ) -> tuple[Fraction, Fraction]:
    """Toledo interval [-rk+ . deg K(D), rk- . deg K(D)] from the field ranks.

    A rank that is not an int (bad_rank) or is negative (negative_rank) is
    refused before the surface is checked."""
    exact_int(rk_plus, "bad_rank", rk_plus=rk_plus, rk_minus=rk_minus)
    exact_int(rk_minus, "bad_rank", rk_plus=rk_plus, rk_minus=rk_minus)
    if rk_plus < 0 or rk_minus < 0:
        raise DomainError("negative_rank", rk_plus=rk_plus, rk_minus=rk_minus)
    kd = deg_kd(standard_surface(g, s))
    return (Fraction(-rk_plus * kd), Fraction(rk_minus * kd))


def is_maximal(m: SpTripleModel) -> bool:
    return toledo(m) == milnor_wood_bound(m.n, m.surface.genus, m.surface.s)


def sp_dual(m: SpTripleModel) -> SpTripleModel:
    """(V, beta, gamma) -> (V^dual, gamma, beta); negates the Toledo invariant.

    The dual keeps V as its duals and, when m's pardegs are already kept,
    their negations as its own: pardeg L^dual = -pardeg L."""
    dual = SpTripleModel._store(m.surface, m._v_duals(), m.gamma_arrows,
                                m.beta_arrows)
    object.__setattr__(dual, "_duals", m.v_summands)
    if m._table is not None:
        den, nums = m._table
        object.__setattr__(dual, "_table", (den, [-x for x in nums]))
    return dual


# ------------------------------------------------------- Hitchin family ----

def hitchin_model(k: int, g: int, s: int) -> DecomposableHiggsModel:
    """The rank-k Hitchin-section model.

    Symmetric-power bookkeeping of the rank-2 model L0^dual + L0 (L0 a square
    root of K(D), pardeg g-1+s/2), twisted so every summand carries weight 1/2
    at each point for k even and weight 0 for k odd; arrows are the
    superdiagonal constants plus the bottom-row differentials a_2..a_k.
    The model is built from parts made here, each checked where it is made
    (line bundles, arrows in range), so not checked again.
    """
    exact_int(k, "bad_hitchin_rank", 2, k=k)
    surf = require_hyperbolic(standard_surface(g, s))
    deg_a = -(g - 1) - s
    deg_b = g - 1
    twist = k // 2 - 1 if k % 2 == 0 else (k - 1) // 2
    w = rat(1, 2) if k % 2 == 0 else Fraction(0)
    summands = tuple(
        ParabolicLineBundle((k - 1 - i) * deg_a + i * deg_b + twist * s,
                            {x: w for x in surf.labels()} if w else {})
        for i in range(k))
    arrows = {(i, i + 1) for i in range(k - 1)}
    arrows |= {(k - 1, j) for j in range(k - 1)}
    return DecomposableHiggsModel._store(surf, summands, frozenset(arrows))


def hitchin_sp_triple(k: int, g: int, s: int) -> SpTripleModel:
    """Symplectic form of the even-rank Hitchin model.

    V collects the odd-level summands (indices k-1, k-3, ..., 1) so that the
    remaining levels are exactly their duals; the grading keeps the
    superdiagonal arrows and the even-index bottom differentials, each
    symmetrized into the beta/gamma supports.
    """
    if exact_int(k, "bad_sp_hitchin_rank", 2, k=k) % 2:
        raise DomainError("bad_sp_hitchin_rank", k=k)
    base = hitchin_model(k, g, s)
    v_idx = list(range(k - 1, 0, -2))           # V_t = summand k-1-2t
    v = tuple(base.summands[i] for i in v_idx)
    beta, gamma = set(), set()
    for i in range(k - 1):                      # superdiagonal (i <- i+1)
        if i % 2 == 0:
            gamma.add((i // 2, (k - 2 - i) // 2))
        else:
            beta.add(((k - 1 - i) // 2, (i + 1) // 2))
    for j in range(0, k - 1, 2):                # bottom row, even a-index only
        beta.add((0, j // 2))
    beta |= {(j, i) for (i, j) in beta}
    gamma |= {(j, i) for (i, j) in gamma}
    return SpTripleModel(base.surface, v, frozenset(beta), frozenset(gamma))


# ------------------------------------ weighted coordinate filtrations ----

def _exact_rational(value, code: str, **info) -> Fraction | int:
    """value itself if a Fraction or an exact int, else a DomainError."""
    return value if type(value) is Fraction else exact_int(value, code, **info)


def _index_weights(n: int, index_steps: Sequence[Sequence[int]],
                   weights: Sequence[Fraction]) -> list[Fraction]:
    """la_{a(k)} for each index k, a(k) the first step that holds k.

    Checks the weighted coordinate filtration first: each step a collection
    of exact ints (else bad_index_step), nested nonempty steps ending in all
    n indices, one weight per step, each a Fraction or an int (else
    bad_filtration_weight), weights strictly increasing.
    """
    steps = []
    for st in read_container(index_steps, iter, "index_steps_not_sequence"):
        st = read_container(st, set, "bad_index_step")
        for k in st:
            exact_int(k, "bad_index_step", n=n)
        steps.append(tuple(sorted(st)))
    if not steps or steps[-1] != tuple(range(n)):
        raise DomainError("filtration_must_end_full", n=n)
    for prev, cur in zip(steps, steps[1:]):
        if not set(prev) < set(cur):
            raise DomainError("filtration_not_nested")
    if any(not st or any(k < 0 or k >= n for k in st) for st in steps):
        raise DomainError("bad_index_step", n=n)
    lam = [_exact_rational(w, "bad_filtration_weight", weight=w)
           for w in read_container(weights, iter, "weights_not_sequence")]
    if len(lam) != len(steps):
        raise DomainError("bad_filtration_shape")
    if any(a >= b for a, b in zip(lam, lam[1:])):
        raise DomainError("filtration_weights_not_increasing")
    out = [Fraction(0)] * n
    for t in reversed(range(len(steps))):
        for k in steps[t]:
            out[k] = lam[t]
    return out


def alpha_stability_check_gl(m: DecomposableHiggsModel, alpha: Fraction
                             ) -> tuple[bool, tuple[int, ...] | None]:
    """Reduction-degree test: every invariant two-step coordinate filtration
    (weights 0 < 1; one-step reductions carry no data) must satisfy
    sum (la_i - la_{i+1})(pardeg W_i - alpha rk W_i) >= 0.

    0/1 weight vectors suffice: the quantity is linear in the consecutive
    weight differences, whose signs the 0/1 family already realizes.
    Returns (ok, failing subset or None).  alpha is a Fraction or an int
    (else bad_alpha).
    """
    alpha = _exact_rational(alpha, "bad_alpha", alpha=alpha)
    den, _, masks, sums = _closed_table(m)
    total = sums[-1]
    # sp_filtration_degree(m, [S, full], (0, 1), 0) = pardeg E - pardeg W_S,
    # so the test reads (total - sum over S) / den >= alpha (n - |S|)
    a, b = alpha.numerator, alpha.denominator
    first = None
    for t in range(1, len(masks) - 1):      # the proper nonempty ones
        mask, x = masks[t], sums[t]
        if (total - x) * b < a * den * (m.n - mask.bit_count()) and (
                first is None or _lex_before(mask, first)):
            first = mask
    if first is None:
        return True, None
    return False, _mask_tuple(first)


def sp_filtration_degree(m: DecomposableHiggsModel,
                         index_steps: Sequence[Sequence[int]],
                         weights: Sequence[Fraction],
                         alpha: Fraction) -> Fraction:
    """sum_j (la_j - la_{j+1}) (pardeg V_j - alpha rk V_j), la trailing 0.

    Summed by parts: sum_k la_{a(k)} (pardeg L_k - alpha), a(k) the first
    step that holds k.  At alpha = 0 it is the parabolic degree of the
    weighted reduction.  alpha is a Fraction or an int (else bad_alpha).

    Kept: the reduction degree itself; alpha_stability_check_gl is its
    closed form on two-step filtrations, and the oracle tests check it
    against the definition.
    """
    lam = _index_weights(m.n, index_steps, weights)
    alpha = _exact_rational(alpha, "bad_alpha", alpha=alpha)
    return rational_sum([la * (p - alpha) for la, p in zip(lam, m.pardegs())])


# ---------------------------------------------------------------- JSON ----

def sp_triple_from_json(obj) -> SpTripleModel:
    """An Sp(2n,R) triple read from its JSON form by the codec."""
    return from_json(SpTripleModel, obj)
