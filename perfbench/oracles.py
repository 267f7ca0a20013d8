"""Expected outputs for the benchmark, computed without importing parhiggs.

Every function here works on the plain JSON-shaped inputs the workloads
generate (integers, "p/q" strings, lists of arrows) and is written from the
definitions: brute force over coordinate subsets, closed forms typed in from
the published case analyses, direct substitution for the local dictionary.
The benchmark compares the program's outputs with these after the timed
phase, so a wrong answer counts as a failed operation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def q(text) -> Fraction:
    return Fraction(text)


# ------------------------------------------------------------- stability ----

def line_pardeg(line: dict, labels) -> Fraction:
    """deg + sum of the weights at the surface's points (missing weight 0)."""
    weights = line.get("weights", {})
    return line["degree"] + sum((q(weights.get(x, 0)) for x in labels),
                                Fraction(0))


def dual_line(line: dict) -> dict:
    """Parabolic dual: weight a -> 1-a with a degree drop, weight 0 kept."""
    weights = {x: q(w) for x, w in line.get("weights", {}).items()}
    moved = [x for x, w in weights.items() if w]
    return {"degree": -line["degree"] - len(moved),
            "weights": {x: str(1 - weights[x]) for x in moved}}


def triple_summands(triple: dict) -> tuple[list[dict], list[tuple[int, int]]]:
    """E = V + V^dual with beta (i <- n+j) and gamma (n+i <- j) arrows."""
    v = triple["v_summands"]
    n = len(v)
    arrows = [(i, n + j) for i, j in triple["beta"]]
    arrows += [(n + i, j) for i, j in triple["gamma"]]
    return v + [dual_line(l) for l in v], arrows


def closed_subsets(n: int, arrows) -> list[tuple[int, ...]]:
    """Proper nonempty S with src in S => dst in S, in lexicographic order."""
    out = []
    for bits in range(1, 2 ** n - 1):
        members = {i for i in range(n) if bits >> i & 1}
        if all(dst in members for dst, src in arrows if src in members):
            out.append(tuple(sorted(members)))
    return sorted(out)


def _components(n: int, arrows) -> list[tuple[int, ...]]:
    seen, out = set(), []
    adj = {k: set() for k in range(n)}
    for a, b in arrows:
        adj[a].add(b)
        adj[b].add(a)
    for start in range(n):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            k = stack.pop()
            if k not in comp:
                comp.add(k)
                stack.extend(adj[k] - comp)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return sorted(out)


def slope_verdict(pds: list[Fraction], arrows) -> tuple[str, tuple | None, Fraction]:
    """(verdict, witness, slope) by trying every invariant coordinate subset.

    unstable: some subset has larger slope, witness the lexicographically
    first of maximal slope; strictly_semistable / polystable when a subset
    ties (polystable if the arrow graph splits into stable pieces of the
    total slope); stable otherwise.
    """
    n = len(pds)
    mu = sum(pds, Fraction(0)) / n
    subsets = closed_subsets(n, arrows)
    slopes = [(sub, sum((pds[i] for i in sub), Fraction(0)) / len(sub))
              for sub in subsets]
    over = [t for t in slopes if t[1] > mu]
    if over:
        best = max(sl for _, sl in over)
        return "unstable", next(sub for sub, sl in over if sl == best), mu
    ties = [sub for sub, sl in slopes if sl == mu]
    if not ties:
        return "stable", None, mu
    comps = _components(n, arrows)
    if len(comps) > 1:
        pieces_ok = True
        for comp in comps:
            pos = {k: t for t, k in enumerate(comp)}
            sub_arrows = [(pos[a], pos[b]) for a, b in arrows
                          if a in pos and b in pos]
            sub_pds = [pds[k] for k in comp]
            if (sum(sub_pds, Fraction(0)) / len(comp) != mu
                    or slope_verdict(sub_pds, sub_arrows)[0] != "stable"):
                pieces_ok = False
                break
        if pieces_ok:
            return "polystable", None, mu
    return "strictly_semistable", ties[0], mu


def quotient_slope_check(pds: list[Fraction], arrows, alpha: Fraction
                         ) -> tuple[bool, tuple | None]:
    """Every invariant S must leave a quotient with pardeg(E/S) >= alpha rk(E/S).

    This is the two-step (0 < 1) reduction-degree test written out: for
    coordinate filtrations the flag pairing telescopes to the quotient's
    parabolic degree.
    """
    total = sum(pds, Fraction(0))
    for sub in closed_subsets(len(pds), arrows):
        rest = total - sum((pds[i] for i in sub), Fraction(0))
        if rest - alpha * (len(pds) - len(sub)) < 0:
            return False, sub
    return True, None


def mw_bound(n: int, g: int, s: int) -> Fraction:
    return Fraction(n * (2 * g - 2 + s), 2)


def hitchin_pardegs(k: int, g: int, s: int) -> list[Fraction]:
    """Monomials of S^{k-1}(L0^dual + L0), pardeg L0 = g-1+s/2, per-point
    weight (k-1)/2 split into an integer wrap plus a residue."""
    deg_a, deg_b = -(g - 1) - s, g - 1
    wrap = (k - 1) // 2
    resid = Fraction(k - 1, 2) - wrap
    return [Fraction((k - 1 - i) * deg_a + i * deg_b + wrap * s) + resid * s
            for i in range(k)]


def hitchin_arrows(k: int) -> list[tuple[int, int]]:
    """Superdiagonal constants plus the bottom-row differentials."""
    return sorted({(i, i + 1) for i in range(k - 1)}
                  | {(k - 1, j) for j in range(k - 1)})


# ------------------------------------------------------------ components ----

def _big(g, s):
    return 2 ** (2 * g + s - 1)


def _closed_surface_count(family: str, n: int | None, g: int) -> int:
    tor = 2 ** (2 * g)
    if family == "Sp2nR":
        return {1: tor, 2: 3 * tor + 4 * g - 4}.get(n, 3 * tor)
    if family == "SO0_2n":
        return 2 ** (2 * g + 1) + (8 * g - 4 if n == 3 else 0)
    return 1 if family == "SOstar2n" else tor


def component_totals(family: str, n: int | None, g: int, s: int, mode: str):
    """Expected (total_enumerated, total_closed_form), or ("error", code).

    ``mode`` is one of max, fixed-even, fixed-odd, punctured, nonparabolic,
    kd-twisted, as on the command line.
    """
    if mode in ("nonparabolic", "kd-twisted"):
        if s != 1:
            return "error", "nonparabolic_modes_need_single_point"
        if 2 * g - 1 <= 0:
            return "error", "not_hyperbolic"
        tor = 2 ** (2 * g)
        if mode == "nonparabolic":
            v = _closed_surface_count(family, n, g)
            return v, v
        if family == "Sp2nR" and n == 2:
            return 3 * tor + 2 * g - 3, 3 * tor + 2 * g - 3
        if family == "SO0_2n" and n == 3:
            return 2 ** (2 * g + 1) + 4 * g - 3, 2 ** (2 * g + 1) + 4 * g - 3
        return "error", "unsupported_mode_for_group"
    if s < 1:
        return "error", "needs_marked_points"
    if 2 * g - 2 + s <= 0:
        return "error", "not_hyperbolic"
    big, tor, two_s = _big(g, s), 2 ** (2 * g), 2 ** s
    even = mode == "fixed-even"
    if family == "Sp2nR":
        if mode == "punctured":
            v = big
        elif mode == "max":
            v = {1: big, 2: (two_s + 1) * big + two_s * (2 * g - 3 + s)}.get(
                n, (two_s + 1) * big)
        elif n == 1:
            v = tor if even else 0
        elif n == 2:
            v = big + (2 * g - 3 + s) + (tor if even else 0)
        else:
            v = big + (tor if even else 0)
        return v, v
    if mode == "punctured":
        return "error", "unsupported_mode_for_group"
    if family == "SUnn":
        v = big if mode == "max" else (tor if even else 0)
        return v, v
    if family == "SOstar2n":
        v = two_s if mode == "max" else 1
        return v, v
    if family == "SO0_2n" and n == 3:
        deg = 4 * g - 3 + 2 * s
        if mode == "max":
            return two_s * (big - 1 + deg), two_s * (big - 1 + deg)
        return big - 1 + deg, big + deg      # published table keeps the +1
    if family == "SO0_2n":
        v = 2 ** (2 * g + 2 * s - 1) if mode == "max" else big
        return v, v
    if family == "E7minus25":
        if mode == "max":
            return big, big
        return "error", "unsupported_mode_for_group"
    return "error", "unsupported_group_for_counting"


def table_counts(g: int, s: int) -> list[list[str]]:
    """Minimum-components column of the three tables, row by row."""
    big, tor, two_s = _big(g, s), 2 ** (2 * g), 2 ** s
    t1 = [big, (two_s + 1) * big + two_s * (2 * g - 3 + s), (two_s + 1) * big,
          big, two_s, two_s * (big - 1) + two_s * (4 * g - 3 + 2 * s),
          2 ** (2 * g + 2 * s - 1), big]
    out = [[str(v) for v in t1]]
    for even in (True, False):
        extra = tor if even else 0
        row = [tor if even else None, big + (2 * g - 3 + s) + extra,
               big + extra, tor if even else None, 1,
               big + (4 * g - 3 + 2 * s), big]
        out.append(["-" if v is None else str(v) for v in row])
    return out


def s1_expected(family: str, n: int | None, g: int) -> dict:
    parabolic = component_totals(family, n, g, 1, "max")[0]
    kd = component_totals(family, n, g, 1, "kd-twisted")
    return {"parabolic_count": parabolic,
            "table_count": _closed_surface_count(family, n, g),
            "kd_twisted_count": None if kd[0] == "error" else kd[0]}


def strubel(g: int, m: int) -> int:
    return 2 ** (2 * g + m - 1)


# Split catalog: (real dimension, exponents).
SPLIT_GROUPS = {
    "SL(2,R)": (3, (1,)), "SL(3,R)": (8, (1, 2)), "SL(4,R)": (15, (1, 2, 3)),
    "Sp(4,R)": (10, (1, 3)), "Sp(6,R)": (21, (1, 3, 5)),
    "SO(3,2)": (10, (1, 3)), "SO(4,3)": (21, (1, 3, 5)),
    "SO(3,3)": (15, (1, 3, 2)), "SO(4,4)": (28, (1, 3, 5, 3)),
}


def teich_dimension(name: str, g: int, s: int) -> int:
    dim, exps = SPLIT_GROUPS[name]
    return 2 * (g - 1) * dim + 2 * s * sum(exps)


def paradim(n: int, g: int, s: int) -> int:
    return (2 * g - 2 + s) * n * n + 1


def sparadim_full(n: int, g: int, s: int) -> int:
    return 2 * (g - 1) * n * n + 2 + s * n * (n - 1)


def vcoh_ranks(g: int, s: int, mode: str) -> tuple[int, int, int]:
    """Mayer-Vietoris for order 2 and the stated odd-order ranks coincide;
    the open surface loses h2."""
    return (1, 2 * g + s - 1, 0 if mode == "punctured" else s)


# -------------------------------------------------------------- orbifold ----

def par_to_orb_terms(m: int, ks, entries) -> list:
    """Entry (i,j): c w^d -> m c z^{m d + k_i - k_j}, as sorted (deg, coef)."""
    n = len(ks)
    out = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = {}
            for d, c in entries[i][j]:
                e = m * d + ks[i] - ks[j]
                acc[e] = acc.get(e, Fraction(0)) + m * q(c)
            out[i][j] = sorted((e, c) for e, c in acc.items() if c)
    return out


def orb_to_par_terms(m: int, ks, entries) -> list:
    """Entry (i,j): c z^e -> (c/m) w^{(e - k_i + k_j)/m}."""
    n = len(ks)
    out = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = {}
            for e, c in entries[i][j]:
                d, rem = divmod(e - ks[i] + ks[j], m)
                if rem:
                    raise ValueError("not equivariant")
                acc[d] = acc.get(d, Fraction(0)) + q(c) / m
            out[i][j] = sorted((d, c) for d, c in acc.items() if c)
    return out


def is_equivariant(m: int, ks, entries) -> bool:
    n = len(ks)
    return all(not (ks[i] < ks[j] and entries[i][j])
               and all((e - ks[i] + ks[j]) % m == 0 for e, _ in entries[i][j])
               for i in range(n) for j in range(n))


def vline_expected(genus: int, orders: dict, desing: int, isotropy: dict) -> dict:
    degree = desing + sum((Fraction(b, orders[x]) for x, b in isotropy.items()),
                          Fraction(0))
    return {"degree": degree, "kawasaki": 1 - genus + desing,
            "weights": {x: Fraction(b, orders[x]) for x, b in isotropy.items()
                        if b}}


def square_root_expected(genus: int, labels, desing: int, isotropy: dict):
    """(types as (e, rho-dict) in lexicographic rho order, torsion mult)."""
    mult = 2 ** (2 * genus)
    if any(isotropy.values()):
        return [], mult
    types = []
    for rho in itertools.product((0, 1), repeat=len(labels)):
        if sum(rho) % 2 == desing % 2:
            types.append(((desing - sum(rho)) // 2,
                          {x: 1 for x, r in zip(labels, rho) if r}))
    return types, mult


def character_count(genus: int, orders) -> int:
    even = sum(1 for k in orders if k % 2 == 0)
    return 2 ** (2 * genus) * (2 ** (even - 1) if even else 1)


def character_ends(genus: int, orders) -> tuple[tuple, tuple]:
    """First and last character in (ab, sigma) lexicographic order."""
    even_pos = [t for t, k in enumerate(orders) if k % 2 == 0]
    sigmas = []
    for bits in itertools.product((0, 1), repeat=len(even_pos)):
        if sum(bits) % 2 == 0:
            sig = [0] * len(orders)
            for t, v in zip(even_pos, bits):
                sig[t] = v
            sigmas.append(tuple(sig))
    sigmas.sort()
    return (((0,) * 2 * genus, sigmas[0]), ((1,) * 2 * genus, sigmas[-1]))
