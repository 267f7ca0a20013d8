"""Independent oracle computations for values frozen into the test suite.

Everything here is deliberately written from scratch (brute force, direct
substitution, exhaustive enumeration) and imports nothing from the package,
so the numbers it prints are an independent route to the same answers.
Run:  python3 tools/oracles.py
"""

from __future__ import annotations

import itertools
from fractions import Fraction


# ---------------------------------------------------- invariant subsets ----

def closed_subsets(n: int, arrows: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Proper nonempty S with: src in S and (dst<-src) an arrow => dst in S."""
    out = []
    for bits in range(1, 2 ** n - 1):
        s = {i for i in range(n) if bits >> i & 1}
        if all(not (j in s and i not in s) for (i, j) in arrows):
            out.append(tuple(sorted(s)))
    return sorted(out)


def section_subsets():
    # chain 1<-2<-3 in 1-based prose = arrows (0<-1),(1<-2) 0-based
    print("chain closed subsets:", closed_subsets(3, [(0, 1), (1, 2)]))
    print("2-cycle closed subsets:", closed_subsets(2, [(0, 1), (1, 0)]))


# ------------------------------------------------------- hitchin family ----

def hitchin_pardegs(k: int, g: int, s: int) -> list[Fraction]:
    """Via the symmetric-power route: monomial degrees of S^{k-1}(L0^v + L0)
    with per-point weight (k-1)/2 split into wrap (integer) + residue."""
    deg_a = -(g - 1) - s           # L0 dual, weight 1/2 each point
    deg_b = g - 1                  # L0, weight 1/2 each point
    wrap = (k - 1) // 2            # integer part of (k-1)/2
    resid = Fraction(k - 1, 2) - wrap   # 1/2 for k even, 0 for k odd
    out = []
    for i in range(k):
        d = (k - 1 - i) * deg_a + i * deg_b + wrap * s
        out.append(Fraction(d) + resid * s)
    return out

def section_hitchin():
    for (g, s) in [(2, 1), (1, 2), (0, 4)]:
        for k in range(2, 6):
            pd = hitchin_pardegs(k, g, s)
            print(f"hitchin k={k} (g,s)=({g},{s}): pardegs {pd} total {sum(pd)}")


# ------------------------------------------------------ relative degree ----

def dim_intersection(a_basis: list[list[Fraction]], b_basis: list[list[Fraction]]) -> int:
    """dim(A)+dim(B)-dim(A+B), ranks by fraction Gaussian elimination."""
    def rank(rows):
        rows = [list(r) for r in rows if any(r)]
        rk, piv = 0, 0
        ncols = len(rows[0]) if rows else 0
        while rows and piv < ncols:
            for i, r in enumerate(rows):
                if r[piv]:
                    rows[0], rows[i] = rows[i], rows[0]
                    lead = rows.pop(0)
                    rows = [[x - (r2[piv] / lead[piv]) * y for x, y in zip(r2, lead)]
                            if r2[piv] else r2 for r2 in rows]
                    rk += 1
                    break
            piv += 1
        return rk
    return rank(a_basis) + rank(b_basis) - rank(a_basis + b_basis)


def relative_degree_direct(w_steps, w_wts, b_steps, b_wts) -> Fraction:
    lw = list(w_wts) + [Fraction(0)]
    lb = list(b_wts) + [Fraction(0)]
    tot = Fraction(0)
    for i, wi in enumerate(w_steps):
        for j, bj in enumerate(b_steps):
            tot += (lw[i] - lw[i + 1]) * (lb[j] - lb[j + 1]) * dim_intersection(wi, bj)
    return tot


def basis_vector(n: int, k: int) -> list[Fraction]:
    return [Fraction(1 if t == k else 0) for t in range(n)]


def point_flag(weights) -> tuple[list[list[list[Fraction]]], list[Fraction]]:
    """The weighted flag at one point of a sum of n lines, as an increasing
    filtration: step l spans the lines of weight <= the l-th smallest weight
    and carries that weight."""
    n = len(weights)
    levels = sorted(set(weights))
    steps = [[basis_vector(n, k) for k in range(n) if weights[k] <= lv]
             for lv in levels]
    return steps, levels


def reduction_degree_direct(degrees, weights_at_points, steps, lam) -> Fraction:
    """Parabolic degree of a weighted coordinate reduction of a sum of lines,
    by the definition: sum_i (la_i - la_{i+1}) deg W_i (la trailing 0) plus
    the relative degree against the weighted flag at each marked point.
    weights_at_points holds, per point, the weight of every line there."""
    n = len(degrees)
    lw = list(lam) + [Fraction(0)]
    tot = Fraction(0)
    for i, st in enumerate(steps):
        tot += (lw[i] - lw[i + 1]) * sum(degrees[k] for k in st)
    red = [[basis_vector(n, k) for k in st] for st in steps]
    for wts in weights_at_points:
        f_steps, f_wts = point_flag(wts)
        tot += relative_degree_direct(red, lam, f_steps, f_wts)
    return tot


def section_reldeg():
    F = Fraction
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    full = [e1, e2]
    a = ([[e2], full], [F(-1), F(1)])
    print("reldeg(a,a) diag(1,-1):", relative_degree_direct(a[0], a[1], a[0], a[1]))
    b = ([[e1], full], [F(-1), F(1)])
    print("reldeg(a,b) swapped:", relative_degree_direct(a[0], a[1], b[0], b[1]))
    # generic-subspace counterexample for the filtration-form conversion
    v = [[F(1), F(1)]]
    c = ([v, full], [F(-1), F(1)])
    print("reldeg(c,a) span(e1+e2) vs span(e2):",
          relative_degree_direct(c[0], c[1], a[0], a[1]))


# --------------------------------------------------- component counting ----

def sp_cases(n: int, g: int, s: int, mode: str):
    """Case lists (label, count) straight from the printed case analyses."""
    w1 = 2 ** (2 * g + s - 1)
    if mode == "max_union":
        if n == 1:
            return [("square_roots", w1)]
        if n == 2:
            return [("w1_nonzero_pairs", (w1 - 1) * 2 ** s),
                    ("w1_zero_submaximal", (2 * g - 2 + s) * 2 ** s),
                    ("square_roots", w1)]
        return [("w1_w2_pairs", w1 * 2 ** s), ("square_roots", w1)]
    if mode == "fixed_even":
        if n == 1:
            return [("square_roots", 2 ** (2 * g))]
        if n == 2:
            return [("w1_nonzero", w1 - 1),
                    ("submaximal_degrees", 2 * g - 2 + s),
                    ("square_roots", 2 ** (2 * g))]
        return [("w1_values", w1), ("square_roots", 2 ** (2 * g))]
    if mode == "fixed_odd":
        if n == 1:
            return None  # empty moduli
        if n == 2:
            return [("w1_nonzero", w1 - 1), ("submaximal_degrees", 2 * g - 2 + s)]
        return [("w1_values", w1)]
    if mode == "punctured":
        return [("square_roots", w1)]
    raise ValueError(mode)


def enumerate_sp_bruteforce(n: int, g: int, s: int) -> int:
    """Materialize the max_union tuples explicitly and count."""
    d1 = 2 * g + s - 1
    total = 0
    if n == 1:
        return 2 ** d1
    for w1 in itertools.product((0, 1), repeat=d1):
        if n == 2 and not any(w1):
            continue
        for _w2 in itertools.product((0, 1), repeat=s):
            total += 1
    if n == 2:
        for _par in itertools.product((0, 1), repeat=s):
            total += 2 * g - 2 + s   # degrees 0 .. 2g-3+s
    total += 2 ** d1
    return total


def section_components():
    print("Sp4 (2,1) cases:", sp_cases(2, 2, 1, "max_union"),
          "total", sum(c for _, c in sp_cases(2, 2, 1, "max_union")))
    print("Sp4 (2,1) brute:", enumerate_sp_bruteforce(2, 2, 1))
    print("Sp6 (1,2) brute:", enumerate_sp_bruteforce(3, 1, 2))
    for (g, s) in [(2, 2), (0, 3), (1, 2), (3, 4)]:
        closed2 = (2 ** s + 1) * 2 ** (2 * g + s - 1) + 2 ** s * (2 * g - 3 + s)
        assert enumerate_sp_bruteforce(2, g, s) == closed2, (g, s)
    print("Sp4 grid identity ok")
    print("Sp4 fixed even (2,2):", sp_cases(2, 2, 2, "fixed_even"),
          "total", sum(c for _, c in sp_cases(2, 2, 2, "fixed_even")))

    # SO0(2,3) fixed-alpha case-analysis value vs printed table value
    for (g, s) in [(2, 1), (2, 2), (0, 3), (1, 2)]:
        enum = (2 ** (2 * g + s - 1) - 1) + (4 * g - 3 + 2 * s)
        printed = 2 ** (2 * g + s - 1) + (4 * g - 3 + 2 * s)
        print(f"SO0(2,3) fixed ({g},{s}): enumerated {enum} printed {printed}")


def table_cells(g: int, s: int):
    """Every printed table cell at (g,s): three dicts, row label -> count
    (None for an empty row), in printed row order."""
    p = lambda e: 2 ** e
    t1 = {
        "Sp(2,R)": p(2 * g + s - 1),
        "Sp(4,R)": (2 ** s + 1) * p(2 * g + s - 1) + 2 ** s * (2 * g - 3 + s),
        "Sp(2n,R) n>=3": (2 ** s + 1) * p(2 * g + s - 1),
        "SU(n,n)": p(2 * g + s - 1),
        "SO*(2n) n even": 2 ** s,
        "SO0(2,3)": 2 ** s * (p(2 * g + s - 1) - 1) + 2 ** s * (4 * g - 3 + 2 * s),
        "SO0(2,n) n>=4": p(2 * g + 2 * s - 1),
        "E7(-25)": p(2 * g + s - 1),
    }
    t2 = {
        "Sp(2,R)": p(2 * g),
        "Sp(4,R)": p(2 * g + s - 1) + (2 * g - 3 + s) + p(2 * g),
        "Sp(2n,R) n>=3": p(2 * g + s - 1) + p(2 * g),
        "SU(n,n)": p(2 * g),
        "SO*(2n) n even": 1,
        "SO0(2,3)": p(2 * g + s - 1) + (4 * g - 3 + 2 * s),
        "SO0(2,n) n>=4": p(2 * g + s - 1),
    }
    t3 = {
        "Sp(2,R)": None,
        "Sp(4,R)": p(2 * g + s - 1) + (2 * g - 3 + s),
        "Sp(2n,R) n>=3": p(2 * g + s - 1),
        "SU(n,n)": None,
        "SO*(2n) n even": 1,
        "SO0(2,3)": p(2 * g + s - 1) + (4 * g - 3 + 2 * s),
        "SO0(2,n) n>=4": p(2 * g + s - 1),
    }
    return t1, t2, t3


def section_tables():
    """Every printed table cell instantiated at the golden (g,s) pairs."""
    for (g, s) in [(2, 1), (2, 2), (0, 3), (1, 2)]:
        t1, t2, t3 = table_cells(g, s)
        print(f"--- tables at (g,s)=({g},{s})")
        print(" T1:", t1)
        print(" T2:", t2)
        print(" T3:", t3)


def s1_values(g: int):
    """Parabolic s=1, K(D)-twisted and closed-surface counts at genus g,
    for the two groups with a stated K(D)-twisted case analysis."""
    return {
        "Sp(4,R)": {
            "parabolic": 2 * (2 ** (2 * g) - 1) + 2 * (2 * g - 1) + 2 ** (2 * g),
            "kd_twisted": 2 * (2 ** (2 * g) - 1) + (2 * g - 1) + 2 ** (2 * g),
            "table": 3 * 2 ** (2 * g) + 4 * g - 4,
        },
        "SO0(2,3)": {
            "parabolic": 2 * (2 ** (2 * g) - 1) + 2 * (4 * g - 1),
            "kd_twisted": 2 * (2 ** (2 * g) - 1) + (4 * g - 1),
            "table": 2 ** (2 * g + 1) + 8 * g - 4,
        },
    }


def section_s1():
    for g in [2, 3]:
        v = s1_values(g)
        sp4, so = v["Sp(4,R)"], v["SO0(2,3)"]
        print(f"s=1 g={g}: Sp4 par {sp4['parabolic']} kd {sp4['kd_twisted']} "
              f"table {sp4['table']}; SO0(2,3) par {so['parabolic']} "
              f"kd {so['kd_twisted']} table {so['table']}")
    print("strubel(2,1):", 2 ** (2 * 2 + 1 - 1), " strubel(0,3):", 2 ** 2,
          " strubel(1,2):", 2 ** 3)


# ------------------------------------------------------ square roots ----

def square_root_list(g: int, desing: int, residues) -> tuple[list, int]:
    """Square roots of the V-line (desing, residues) over a genus-g surface
    whose marked points all have order 2, by search: every Seifert type
    (e, rho), rho in {0,1}^s lexicographic, whose square (2e + #{rho_i = 1},
    residues 0) is that bundle, and the 2^{2g} torsion choices per type.  A
    bundle with a non-zero residue is no square, so it has no type."""
    s = len(residues)
    types = [(e, rho) for rho in itertools.product((0, 1), repeat=s)
             for e in range(-abs(desing) - s, abs(desing) + s + 1)
             if 2 * e + sum(rho) == desing and not any(residues)]
    return types, 2 ** (2 * g)


def section_roots():
    for (g, s, d) in [(0, 3, 4), (1, 2, 7), (2, 1, 3), (1, 0, 6)]:
        types, mult = square_root_list(g, d, (0,) * s)
        print(f"square roots g={g} s={s} desing={d}: {len(types)} types x {mult}"
              f" = {len(types) * mult}")


def character_list(g: int, orders) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every Z2 character as (ab, sigma), lexicographic: ab ranges over all
    of Z_2^{2g}; sigma is 0 at each odd-order point and has even parity."""
    return [(ab, sig)
            for ab in itertools.product((0, 1), repeat=2 * g)
            for sig in itertools.product((0, 1), repeat=len(orders))
            if sum(sig) % 2 == 0
            and all(v == 0 or k % 2 == 0 for v, k in zip(sig, orders))]


def section_characters():
    for (g, s) in [(1, 3), (2, 0), (1, 2), (3, 6)]:
        cnt = len(character_list(g, (2,) * s))
        print(f"characters g={g} s={s} all order 2: {cnt}"
              f"  (2^(2g+s-1) = {2 ** (2 * g + s - 1) if s else 2 ** (2 * g)})")
    # one mixed-order point set: orders (2,3): sigma at odd-order point forced 0
    print("characters g=1 orders (2,3):", len(character_list(1, (2, 3))))


# ------------------------------------------------------------ MV ranks ----

def mv_h(a, b, rho):
    h0 = a[0] - rho[0]
    h1 = (b[0] - rho[0]) + (a[1] - rho[1])
    h2 = (b[1] - rho[1]) + (a[2] - rho[2])
    return (h0, h1, h2)


def mv_order2(g: int, s: int) -> tuple[int, int, int]:
    """The surface with s order-2 points: the punctured surface
    (1, 2g+s-1, 0) and s disk quotients (1, 1, 1) glued along s circles
    (1, 1, 0), every restriction onto the circles."""
    a = (1 + s, 2 * g + s - 1 + s, s)
    b = (s, s, 0)
    return mv_h(a, b, (s, s, 0))


def section_mv():
    for (g, s) in [(2, 3), (1, 1), (3, 6)]:
        print(f"MV order2 g={g} s={s}:", mv_order2(g, s))
    print("MV sphere:", mv_h((2, 0, 0), (1, 1, 0), (1, 0, 0)))


# ----------------------------------------------------------- dimension ----

def paradim(n: int, g: int, s: int) -> int:
    return (2 * g - 2 + s) * n * n + 1


def sparadim(n: int, g: int, s_mults) -> Fraction:
    """One list of flag multiplicities per marked point."""
    f = sum(Fraction(n * n - sum(k * k for k in ks), 2) for ks in s_mults)
    return 2 * (g - 1) * n * n + 2 + 2 * f


def teich_real(dim: int, ms, g: int, s: int) -> int:
    """Real dimension of a Teichmuller component: dim_R G and exponents ms."""
    return 2 * (g - 1) * dim + 2 * s * sum(ms)


def section_dims():
    print("paradim(2,2,1):", paradim(2, 2, 1), " paradim(3,1,2):", paradim(3, 1, 2))
    print("sparadim(2,2,[full]):", sparadim(2, 2, [[1, 1]]))
    print("sparadim(3,2,full x2):", sparadim(3, 2, [[1, 1, 1]] * 2))
    print("sparadim full-flag identity n^2(2g-2)+s n(n-1)+2 at (3,2,2):",
          9 * 2 + 2 * 6 + 2)

    exps = {"SL2": [1], "SL3": [1, 2], "SL4": [1, 2, 3],
            "Sp4": [1, 3], "Sp6": [1, 3, 5], "SO33": [1, 3, 2], "SO43": [1, 3, 5]}
    dims = {"SL2": 3, "SL3": 8, "SL4": 15, "Sp4": 10, "Sp6": 21, "SO33": 15, "SO43": 21}
    for k, ms in exps.items():
        l = len(ms)
        assert dims[k] == l + 2 * sum(ms), k
    print("catalog identity dim = l + 2 sum(m) ok for", sorted(exps))

    def rr_sum(ms, g, s):
        return sum(2 * ((2 * m + 1) * (g - 1) + m * s) for m in ms)
    for (g, s) in [(2, 1), (1, 2), (0, 4), (3, 4)]:
        for k, ms in exps.items():
            assert teich_real(dims[k], ms, g, s) == rr_sum(ms, g, s), (k, g, s)
    print("teich = 2 x RR sum on grid ok")
    for kk in (2, 3, 4):
        name = f"SL{kk}"
        for (g, s) in [(2, 1), (1, 2), (0, 4)]:
            named = 2 * (g - 1) * (kk * kk - 1) + s * (kk * kk - kk)
            assert named == teich_real(dims[name], exps[name], g, s)
    print("SL(k,R) named formula agreement k<=4 ok")
    print("teich PSL2-type (2,1):", teich_real(3, [1], 2, 1))
    print("complex SL2C (2,1): complex", 2 * 1 * 3 + 1 * 3)


# ------------------------------------------------------- local example ----

def _substitute(entries, window, degree, coef):
    """{(i, j): {degree(i, j, d): sum of coef(c)}} over the (deg, coef) terms
    of each entry, with zero coefficients, empty entries and degrees outside
    the window left out."""
    lo, hi = window
    out = {}
    for (i, j), terms in entries.items():
        acc: dict[int, Fraction] = {}
        for d, c in terms:
            e = degree(i, j, d)
            acc[e] = acc.get(e, Fraction(0)) + coef(Fraction(c))
        acc = {e: c for e, c in acc.items() if c and lo <= e <= hi}
        if acc:
            out[(i, j)] = acc
    return out


def par_to_orb_terms(m: int, ks, entries, window):
    """Entries {(i, j): [(deg, coef), ...]} of psi(w) dw/w, by direct
    substitution w = z^m: c w^d becomes m c z^{m d + k_i - k_j}."""
    return _substitute(entries, window,
                       lambda i, j, d: m * d + ks[i] - ks[j], lambda c: m * c)


def orb_to_par_terms(m: int, ks, entries, window):
    """The inverse substitution on an equivariant matrix in z: c z^e becomes
    (c/m) w^{(e - k_i + k_j)/m}; a non-integral exponent is a ValueError."""
    def degree(i, j, e):
        d, r = divmod(e - ks[i] + ks[j], m)
        if r:
            raise ValueError(f"z^{e} in entry ({i}, {j}) is not equivariant")
        return d
    return _substitute(entries, window, degree, lambda c: c / m)


def section_local():
    # n=2, m=2, k=(0,1): parabolic lower-left entry psi(w) = w  (dw/w form)
    m, ks = 2, (0, 1)
    z_terms = par_to_orb_terms(m, ks, {(1, 0): [(1, 1)]}, (-1, 8 * m))
    print("par->orb lower-left (w |-> terms):", sorted(z_terms[(1, 0)].items()))
    # inverse: z^3 coefficient 2 -> w^{(3-1)/2}=w^1 coefficient 2/2=1
    back = orb_to_par_terms(m, ks, {(1, 0): list(z_terms[(1, 0)].items())},
                            (-1, 8))
    print("orb->par back:", sorted(back[(1, 0)].items()))


def filtration_degree(step_pardegs, step_ranks, lam, alpha=Fraction(0)) -> Fraction:
    """sum_j (la_j - la_{j+1}) (pardeg V_j - alpha rk V_j), la trailing 0."""
    lw = list(lam) + [Fraction(0)]
    return sum(((lw[j] - lw[j + 1]) * (pd - alpha * rk)
                for j, (pd, rk) in enumerate(zip(step_pardegs, step_ranks))),
               Fraction(0))


def section_sp_filtration():
    # hitchin k=2 (g=2,s=1): pardegs (-3/2, 3/2); steps {neg}, all; lam=(-1,1);
    # the steps have pardegs -3/2 and 0 (the full space)
    val = filtration_degree([Fraction(-3, 2), Fraction(0)], [1, 2],
                            [Fraction(-1), Fraction(1)])
    print("sp filtration degree example:", val)


def mw_bound(n: int, g: int, s: int) -> Fraction:
    """Rank times half of deg K(D)."""
    return Fraction(n * (2 * g - 2 + s), 2)


def mw_interval(rk_plus: int, rk_minus: int, g: int, s: int) -> tuple[int, int]:
    """[-rk+ deg K(D), rk- deg K(D)]."""
    kd = 2 * g - 2 + s
    return (-rk_plus * kd, rk_minus * kd)


def section_mw():
    print("mw bound n=2 g=2 s=3:", mw_bound(2, 2, 3))
    print("mw bound n=3 g=0 s=4:", mw_bound(3, 0, 4))
    print("general interval rk+=1 rk-=1 g=2 s=1:", mw_interval(1, 1, 2, 1))


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("section_"):
            print(f"== {name[8:]} ==")
            fn()
