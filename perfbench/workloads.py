"""The three in-process workloads: verdict-sweep, component-grid and
orbifold-dictionary.

Each workload makes its operations pass by pass from the seed, runs one
operation per ``execute`` call (every call into parhiggs goes through the
tracer, so a traced run gets one span per call site), and judges each result
with ``check`` against the oracles, outside the timed region.  ``check``
returns None for a correct result, ``"known:<id>"`` for a failure the
known-defect register names, or a message for any other failure.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from statistics import median

import oracles as orc
from speed import INTERPRETER_WORK

SURFACES = [(0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (0, 4), (1, 3)]


class Workload:
    """Shared shape: ``setup`` makes the first pass; ``make_pass`` the rest."""

    reference = INTERPRETER_WORK

    def __init__(self, lib):
        self.lib = lib

    def setup(self, seed):
        return self.make_pass(seed, 0)


class Op:
    __slots__ = ("kind", "label", "data", "args")

    def __init__(self, kind, label, data, args=()):
        self.kind, self.label, self.data, self.args = kind, label, data, args


def pass_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def p50_us(values) -> float:
    return median(values) * 1e6 if values else 0.0


def _error_code(error):
    return getattr(error, "code", None)


def spans_by_label(tracer, name, log) -> dict[str, list[float]]:
    """Durations of the spans called ``name``, grouped by their op's label
    (``log`` holds one (label, latency, error code) entry per op id)."""
    out = {}
    for span_name, start, end, _, op_id in tracer.spans:
        if span_name == name:
            out.setdefault(log[op_id][0], []).append(end - start)
    return out


# ---------------------------------------------------------- verdict-sweep ----

def _verdict_differs(op, report, want):
    verdict, witness, slope = want
    if (report.verdict, report.witness, report.slope) != (verdict, witness, slope):
        return (f"{op.label}: verdict {report.verdict} {report.witness} "
                f"!= {verdict} {witness}")
    return None


def _rand_line(rng, labels) -> dict:
    return {"degree": rng.randint(-3, 3),
            "weights": {x: str(Fraction(rng.randrange(0, 4), 4)) for x in labels}}


def _involution_support(rng, n, pair_ok) -> list[list[int]]:
    """Symmetric pattern, each index in at most one pair, degree-gated."""
    pat, free = set(), list(range(n))
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
    return sorted([i, j] for i, j in pat)


def random_triple(rng, n, g, s) -> dict:
    """A degree-feasible Sp(2n,R) triple in the program's JSON shape."""
    labels = [f"x{i + 1}" for i in range(s)]
    v = [_rand_line(rng, labels) for _ in range(n)]
    p = [orc.line_pardeg(l, labels) for l in v]
    kd = 2 * g - 2 + s
    return {"surface": {"genus": g,
                        "points": [{"label": x, "order": 2} for x in labels]},
            "v_summands": v,
            "beta": _involution_support(rng, n, lambda i, j: -p[i] - p[j] <= kd),
            "gamma": _involution_support(rng, n, lambda i, j: p[i] + p[j] <= kd)}


class VerdictSweep(Workload):
    """Random Sp(2n,R) triples (n = 1..4, weighted to small n) and Hitchin
    models (k = 2..12) over small hyperbolic surfaces."""

    name = "verdict-sweep"

    def __init__(self, lib):
        super().__init__(lib)
        st = lib.stability
        self.sp_triple_from_json = st.sp_triple_from_json
        self.stability_verdict = st.stability_verdict
        self.toledo, self.sp_dual = st.toledo, st.sp_dual
        self.milnor_wood_bound = st.milnor_wood_bound
        self.alpha_check = st.alpha_stability_check_gl
        self.hitchin_model = st.hitchin_model
        self.pardeg = lib.parbun.pardeg
        self._hitchin = {}

    def _decode(self, text):
        return self.sp_triple_from_json(json.loads(text))

    def make_pass(self, seed, index):
        """A fixed mix per pass, fresh random models: each Hitchin rank
        k = 2..12 five times, and triples of n = 1..4 in 40/30/20/10 shares."""
        rng = pass_rng(seed, self.name, index)
        sizes = [("hitchin", k) for k in range(2, 13) for _ in range(5)]
        sizes += [("triple", n) for n, count in ((1, 258), (2, 194), (3, 129), (4, 64))
                  for _ in range(count)]
        rng.shuffle(sizes)
        ops = []
        for kind, size in sizes:
            g, s = rng.choice(SURFACES)
            if kind == "hitchin":
                ops.append(Op("hitchin", f"hitchin_k{size}", (size, g, s)))
                continue
            n = size
            data = random_triple(rng, n, g, s)
            as_json = rng.random() < 0.5
            payload = json.dumps(data) if as_json else \
                self.sp_triple_from_json(data)
            pds, arrows = orc.triple_summands(data)
            labels = [p["label"] for p in data["surface"]["points"]]
            pds = [orc.line_pardeg(l, labels) for l in pds]
            alpha = sum(pds, Fraction(0)) / len(pds) \
                if n <= 2 and rng.random() < 0.15 else None
            ops.append(Op("triple", f"rank{2 * n}", data,
                          (as_json, payload, alpha, pds, arrows)))
        return ops

    def execute(self, t, op):
        if op.kind == "hitchin":
            k, g, s = op.data
            model = t.call("stability.hitchin_model", self.hitchin_model, k, g, s)
            pds = [t.call("parbun.pardeg", self.pardeg, l, model.surface)
                   for l in model.summands]
            return model, pds, t.call("stability.verdict",
                                      self.stability_verdict, model)
        as_json, payload, alpha, _, _ = op.args
        triple = t.call("stability.json_decode", self._decode, payload) \
            if as_json else payload
        model = t.call("stability.triple_ops", triple.to_decomposable)
        report = t.call("stability.verdict", self.stability_verdict, model)
        tol = t.call("stability.triple_ops", self.toledo, triple)
        dual = t.call("stability.triple_ops", self.sp_dual, triple)
        tol_dual = t.call("stability.triple_ops", self.toledo, dual)
        surf = triple.surface
        bound = t.call("stability.triple_ops", self.milnor_wood_bound,
                       triple.n, surf.genus, surf.s)
        checked = None if alpha is None else \
            t.call("stability.alpha_check", self.alpha_check, model, alpha)
        return report, tol, tol_dual, bound, checked

    def check(self, op, result, error):
        if error is not None:
            return f"{op.label}: unexpected {error!r}"
        if op.kind == "hitchin":
            k, g, s = op.data
            model, pds, report = result
            want_pds = orc.hitchin_pardegs(k, g, s)
            if pds != want_pds or sorted(model.arrows) != orc.hitchin_arrows(k):
                return f"{op.label}: hitchin model differs"
            if op.data not in self._hitchin:     # 77 models, the costliest oracle
                self._hitchin[op.data] = orc.slope_verdict(want_pds,
                                                           orc.hitchin_arrows(k))
            return _verdict_differs(op, report, self._hitchin[op.data])
        report, tol, tol_dual, bound, checked = result
        _, _, alpha, pds, arrows = op.args
        data = op.data
        g, s = data["surface"]["genus"], len(data["surface"]["points"])
        n = len(data["v_summands"])
        wrong = _verdict_differs(op, report, orc.slope_verdict(pds, arrows))
        if wrong:
            return wrong
        want_tol = sum(pds[:n], Fraction(0))
        want_bound = orc.mw_bound(n, g, s)
        if (tol, tol_dual, bound) != (want_tol, -want_tol, want_bound):
            return f"{op.label}: toledo/dual/bound {tol} {tol_dual} {bound}"
        if report.verdict != "unstable" and abs(tol) > want_bound:
            return f"{op.label}: semistable with |toledo| {tol} > {want_bound}"
        if alpha is not None and checked != orc.quotient_slope_check(
                pds, arrows, alpha):
            return f"{op.label}: alpha check {checked}"
        return None

    def layer_metrics(self, tracer, log, first_pass, results):
        by_label = spans_by_label(tracer, "stability.verdict", log)
        out = {f"stability.verdict.{label}.p50_us": p50_us(by_label.get(label))
               for label in ("rank2", "rank4", "rank6", "rank8", "hitchin_k12")}
        sizes = [2 * len(op.data["v_summands"]) if op.kind == "triple"
                 else op.data[0] for op in first_pass]
        verdicts = [(res[2] if op.kind == "hitchin" else res[0]).verdict
                    for op, (res, _) in zip(first_pass, results)]
        out["stability.subsets_offered"] = sum(2 ** k - 2 for k in sizes)
        out["stability.verdict.unstable_share"] = \
            verdicts.count("unstable") / len(verdicts)
        return out


# --------------------------------------------------------- component-grid ----

# (key, family, n) for the eight grid families.
FAMILIES = [
    ("Sp2", "Sp2nR", 1), ("Sp4", "Sp2nR", 2), ("Sp6", "Sp2nR", 3),
    ("SU22", "SUnn", 2), ("SOstar4", "SOstar2n", 2), ("SO023", "SO0_2n", 3),
    ("SO024", "SO0_2n", 4), ("E7", "E7minus25", None),
]
SUPPORTED_MODES = {
    "Sp2nR": ("max", "fixed-even", "fixed-odd", "punctured"),
    "SUnn": ("max", "fixed-even", "fixed-odd"),
    "SOstar2n": ("max", "fixed-even", "fixed-odd"),
    "SO0_2n": ("max", "fixed-even", "fixed-odd"),
    "E7minus25": ("max",),
}
GRID = [(g, s) for g in range(5) for s in range(1, 5) if 2 * g - 2 + s > 0]
SPLIT_NAMES = sorted(orc.SPLIT_GROUPS)


def _count(key, fam, n, g, s, mode, cap=None) -> Op:
    return Op("count", f"count.{fam}", (key, fam, n, g, s, mode, cap))


class ComponentGrid(Workload):
    """Every calculator of the component layer over all hyperbolic (g, s)
    with g <= 4, s <= 4, plus one far-too-small cap request per family."""

    name = "component-grid"

    def __init__(self, lib):
        super().__init__(lib)
        comp = lib.components
        self.comp = comp
        self.modes = {
            "max": comp.CountMode.max_union(),
            "fixed-even": comp.CountMode.fixed_parity("even"),
            "fixed-odd": comp.CountMode.fixed_parity("odd"),
            "punctured": comp.CountMode.punctured(),
            "nonparabolic": comp.CountMode.nonparabolic(),
            "kd-twisted": comp.CountMode.kd_twisted(),
        }
        makers = {"Sp2nR": comp.sp2nr, "SUnn": comp.sunn,
                  "SOstar2n": comp.so_star_2n, "SO0_2n": comp.so0_2n}
        self.groups = {key: (makers[fam](n) if n else comp.e7_minus25())
                       for key, fam, n in FAMILIES}
        self.split = {name: comp.split_group(name) for name in SPLIT_NAMES}

    def make_pass(self, seed, index):
        rng = pass_rng(seed, self.name, index)
        ops = []
        for g, s in GRID:
            for key, fam, n in FAMILIES:
                for mode in SUPPORTED_MODES[fam]:
                    ops.append(_count(key, fam, n, g, s, mode))
                if s == 1:
                    ops.append(_count(key, fam, n, g, s, "nonparabolic"))
                    if key in ("Sp4", "SO023"):
                        ops.append(_count(key, fam, n, g, s, "kd-twisted"))
            ops.append(Op("tables", "tables", (g, s)))
            ops.append(Op("strubel", "strubel", (g, s)))
            ops.append(Op("teich", "teich",
                          (rng.choice(SPLIT_NAMES + ["Sp2", "Sp4", "Sp6"]), g, s)))
            n = rng.randint(1, 4)
            ops.append(Op("dim", "dim", ("paradim", n, g, s)))
            ops.append(Op("dim", "dim", ("sparadim", n, g, s)))
            ops.append(Op("dim", "dim", ("teich", rng.choice(SPLIT_NAMES), g, s)))
            for mode in ("order2", "punctured", "odd_order"):
                ops.append(Op("vcoh", "vcoh", (g, s, mode)))
        for key, fam, n in FAMILIES:
            for g in range(1, 5):
                ops.append(Op("s1", "s1", (key, fam, n, g)))
        # unsupported pairs, each refused with its documented code
        g, s = rng.choice([gs for gs in GRID if gs[1] > 1])
        for key, fam, n in FAMILIES:
            for mode in ("fixed-even", "punctured", "nonparabolic"):
                if mode not in SUPPORTED_MODES[fam]:
                    ops.append(_count(key, fam, n, g, s, mode))
        ops.append(Op("teich", "teich", ("SU22", g, s)))
        ops.append(Op("teich", "teich", ("E7", g, s)))
        # one cap-bounded request per family at the grid's largest surface,
        # the cap far below the count
        for key, fam, n in FAMILIES:
            ops.append(_count(key, fam, n, 4, 4, "max", cap=1))
        rng.shuffle(ops)
        return ops

    def execute(self, t, op):
        comp, kind = self.comp, op.kind
        if kind == "count":
            key, fam, _, g, s, mode, cap = op.data
            return t.call(f"components.count.{fam}", comp.count_components,
                          self.groups[key], g, s, self.modes[mode], cap)
        if kind == "tables":
            g, s = op.data
            tables = t.call("components.tables", comp.emit_tables, g, s)
            return tables, t.call("components.tables", comp.tables_markdown,
                                  tables, g, s)
        if kind == "s1":
            key, _, _, g = op.data
            return t.call("components.s1_report", comp.s1_reduction_report,
                          self.groups[key], g)
        if kind == "strubel":
            return t.call("components.strubel", comp.strubel_count, *op.data)
        if kind == "teich":
            name, g, s = op.data
            group = self.split.get(name) or self.groups[name]
            return t.call("components.teichmuller", comp.teichmuller_count,
                          group, g, s)
        if kind == "vcoh":
            return t.call("vcoh", self.lib.vcoh.v_cohomology_ranks, *op.data)
        formula, a, g, s = op.data
        dim = self.lib.dimension
        if formula == "paradim":
            return t.call("dimension", dim.dim_parabolic_gl, a, g, s)
        if formula == "sparadim":
            mults = dim.full_flag_multiplicities(a, s)
            return t.call("dimension", dim.dim_strongly_parabolic_gl, a, g, s, mults)
        data = t.call("dimension", dim.lie_catalog, a)
        return t.call("dimension", dim.teichmuller_dimension, data, g, s)

    def check(self, op, result, error):
        kind, code = op.kind, _error_code(error)
        if error is not None and code is None:
            return f"{op.label} {op.data}: unexpected {error!r}"
        if kind == "count":
            _, fam, n, g, s, mode, cap = op.data
            want = orc.component_totals(fam, n, g, s, mode)
            if want[0] == "error":
                return None if code == want[1] else \
                    f"{op.label} {op.data}: got {code or 'a count'}, want {want[1]}"
            if cap is not None:
                if code == "enumeration_cap_exceeded" and \
                        error.info.get("needed") == want[0]:
                    return None
                if error is None and result.total_enumerated == want[0]:
                    return "known:cap_not_obeyed"
                return f"{op.label} {op.data}: cap request gave {code or result}"
            if error is not None:
                return f"{op.label} {op.data}: unexpected {code}"
            got = (result.total_enumerated, result.total_closed_form)
            if got != want:
                return f"{op.label} {op.data}: totals {got} != {want}"
            if (result.verdict == "no_maximal_objects") != (want[0] == 0):
                return f"{op.label} {op.data}: verdict {result.verdict}"
            return None
        if kind == "teich":
            name, g, s = op.data
            split = name in orc.SPLIT_GROUPS or name.startswith("Sp")
            want = orc.strubel(g, s) if split else "not_split"
            got = code if error is not None else result
            return None if got == want else f"teich {op.data}: {got} != {want}"
        if error is not None:
            return f"{op.label} {op.data}: unexpected {code}"
        if kind == "tables":
            g, s = op.data
            tables, markdown = result
            got = [[row.count for row in table.rows] for table in tables]
            if got != orc.table_counts(g, s):
                return f"tables {op.data}: cells {got}"
            rows = [row for table in tables for row in table.rows]
            lines = set(markdown.splitlines())
            if any(f"| {r.label} | {r.count} | {r.teichmuller} |" not in lines
                   for r in rows):
                return f"tables {op.data}: markdown rows missing"
            return None
        if kind == "s1":
            _, fam, n, g = op.data
            got = {"parabolic_count": result.parabolic_count,
                   "table_count": result.table_count,
                   "kd_twisted_count": result.kd_twisted_count}
            want = orc.s1_expected(fam, n, g)
            return None if got == want else f"s1 {op.data}: {got} != {want}"
        if kind == "strubel":
            want = orc.strubel(*op.data)
        elif kind == "vcoh":
            ranks, _ = result
            result, want = ranks.astuple(), orc.vcoh_ranks(*op.data)
        else:
            formula, a, g, s = op.data
            want = {"paradim": orc.paradim, "sparadim": orc.sparadim_full,
                    "teich": orc.teich_dimension}[formula](a, g, s)
            if formula == "teich":
                result = result.real_dimension
        return None if result == want else f"{op.label} {op.data}: {result} != {want}"

    def layer_metrics(self, tracer, log, first_pass, results):
        counted, refused = [], []
        for name, start, end, _, op_id in tracer.spans:
            if name.startswith("components.count."):
                code = log[op_id][2]
                if code is None:
                    counted.append(end - start)
                elif code == "enumeration_cap_exceeded":
                    refused.append(end - start)
        counts = [(op, res, err) for op, (res, err) in zip(first_pass, results)
                  if op.kind == "count"]
        return {"components.count.counted.p50_ms": p50_us(counted) / 1e3,
                "components.count.refused.p50_ms": p50_us(refused) / 1e3,
                "components.count.refused.calls": sum(
                    1 for _, _, err in counts
                    if _error_code(err) == "enumeration_cap_exceeded"),
                "components.tuples_counted": sum(
                    res.total_enumerated for _, res, err in counts if err is None),
                "components.cap_violations": sum(
                    1 for op, _, err in counts if op.data[-1] is not None and err is None)}


# ---------------------------------------------------- orbifold-dictionary ----

def _rand_coef(rng) -> Fraction:
    return Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]),
                    rng.choice([1, 2, 3, 4, 6]))


def _local_data(rng, n: int, upstairs: bool):
    """Chart (m, exponents) and sparse n x n entries respecting the filtration,
    up to three terms per entry, w-degrees 0..4 (z-degrees m d + k_i - k_j)."""
    m = rng.choice([2, 3, 4, 6])
    ks = sorted(rng.randrange(m) for _ in range(n))
    terms = {}
    for i in range(n):
        for j in range(n):
            if ks[i] < ks[j] or rng.random() < 0.4:
                continue
            degrees = rng.sample(range(5), rng.randint(1, 3))
            terms[(i, j)] = [((m * d + ks[i] - ks[j]) if upstairs else d,
                              _rand_coef(rng)) for d in sorted(degrees)]
    entries = [[sorted(terms.get((i, j), [])) for j in range(n)] for i in range(n)]
    return n, m, ks, terms, entries


def _matrix_terms(mat) -> int:
    return sum(len(e) for row in mat.entries for e in row)


class OrbifoldDictionary(Workload):
    """Local par<->orb round trips with a JSON pass, V-line arithmetic,
    square roots and Z2-character enumeration."""

    name = "orbifold-dictionary"

    def __init__(self, lib):
        super().__init__(lib)
        self.orb = lib.orbifold
        self.pardeg = lib.parbun.pardeg
        self.surface = lib.surface

    def _encode(self, mat, m):
        return json.dumps(self.orb.laurent_to_json(mat, m))

    def _decode(self, text):
        return self.orb.laurent_from_json(json.loads(text))

    def _surface(self, genus, orders):
        sf = self.surface
        return sf.MarkedSurface(genus, tuple(sf.MarkedPoint(f"x{i + 1}", k)
                                             for i, k in enumerate(orders)))

    def make_pass(self, seed, index):
        """A fixed mix per pass, fresh random values: 45 round trips each way
        for every n = 1..6, 225 V-line rounds, 72 square-root queries, and
        one character enumeration per (genus <= 4, even points <= 6, odd
        points <= 1)."""
        rng = pass_rng(seed, self.name, index)
        orb = self.orb
        kinds = [(kind, n) for kind in ("p2o", "o2p") for n in range(1, 7)
                 for _ in range(45)]
        kinds += [("vline", None)] * 225 + [("roots", None)] * 72
        kinds += [("characters", (genus, n_even, n_odd)) for genus in range(5)
                  for n_even in range(7) for n_odd in range(2)]
        rng.shuffle(kinds)
        ops = []
        for kind, size in kinds:
            if kind in ("p2o", "o2p"):
                upstairs = kind == "o2p"
                n, m, ks, terms, entries = _local_data(rng, size, upstairs)
                chart = orb.LocalChart(m, tuple(ks)) if upstairs else None
                weights = [Fraction(k, m) for k in ks]
                ops.append(Op(kind, f"{kind}.n{n}", (n, m, ks, entries),
                              (terms, chart, weights)))
            elif kind == "vline":
                genus = rng.randint(0, 3)
                orders = [rng.randint(2, 6) for _ in range(rng.randint(0, 3))]
                iso = {f"x{i + 1}": rng.randrange(k) for i, k in enumerate(orders)}
                desing = rng.randint(-6, 6)
                ops.append(Op("vline", "vline", (genus, orders, desing, iso),
                              (self._surface(genus, orders),
                               orb.VLineBundle(desing, iso))))
            elif kind == "roots":
                genus, s = rng.randint(0, 3), rng.randint(0, 4)
                desing = rng.randint(-6, 6)
                if s == 0:
                    desing -= desing % 2
                iso = {f"x{i + 1}": 1 for i in range(s) if rng.random() < 0.1}
                ops.append(Op("roots", "roots", (genus, s, desing, iso),
                              (self._surface(genus, [2] * s),
                               orb.VLineBundle(desing, iso))))
            else:
                genus, n_even, n_odd = size
                orders = [rng.choice([2, 4, 6]) for _ in range(n_even)]
                orders += [rng.choice([3, 5]) for _ in range(n_odd)]
                rng.shuffle(orders)
                ops.append(Op("characters", "characters", (genus, orders),
                              (self._surface(genus, orders),)))
        return ops

    def execute(self, t, op):
        orb, kind = self.orb, op.kind
        if kind == "p2o":
            n, m, _, _ = op.data
            terms, _, weights = op.args
            higgs = t.call("orbifold.laurent_build", orb.laurent_matrix,
                           n, terms, (-1, 8), "dw/w")
            chart, z = t.call("orbifold.par_to_orb", orb.par_to_orb_local,
                              m, weights, higgs)
            ok = t.call("orbifold.equivariance", orb.equivariance_check, z, chart)
            text = t.call("orbifold.json_encode", self._encode, z, m)
            m2, z2 = t.call("orbifold.json_decode", self._decode, text)
            w2, back = t.call("orbifold.orb_to_par", orb.orb_to_par_local, chart, z2)
            return higgs, chart, z, ok, m2, z2, w2, back
        if kind == "o2p":
            n, m, _, _ = op.data
            terms, chart, _ = op.args
            z = t.call("orbifold.laurent_build", orb.laurent_matrix,
                       n, terms, (-1, 8 * m), "dz/z")
            ok = t.call("orbifold.equivariance", orb.equivariance_check, z, chart)
            weights, w = t.call("orbifold.orb_to_par", orb.orb_to_par_local, chart, z)
            text = t.call("orbifold.json_encode", self._encode, w, m)
            m2, w2 = t.call("orbifold.json_decode", self._decode, text)
            chart2, z2 = t.call("orbifold.par_to_orb", orb.par_to_orb_local,
                                m2, weights, w2)
            return z, ok, weights, w, m2, w2, chart2, z2
        if kind == "vline":
            surf, l = op.args
            deg = t.call("orbifold.vline", orb.vline_degree, l, surf)
            chi = t.call("orbifold.vline", orb.kawasaki_euler, l, surf)
            line = t.call("orbifold.vline", orb.vline_to_parabolic_line, l, surf)
            back = t.call("orbifold.vline", orb.parabolic_line_to_vline, line, surf)
            return deg, chi, line, back, t.call("parbun.pardeg", self.pardeg,
                                                line, surf)
        if kind == "roots":
            surf, l = op.args
            return t.call("orbifold.square_roots", orb.square_root_types, l, surf)
        return t.call("orbifold.characters", orb.z2_character_enumerate, *op.args)

    def check(self, op, result, error):
        if error is not None:
            return f"{op.label}: unexpected {error!r}"
        kind = op.kind
        if kind in ("p2o", "o2p"):
            n, m, ks, entries = op.data
            given = [[[(d, Fraction(c)) for d, c in e] for e in row] for row in entries]
            if kind == "p2o":
                higgs, chart, z, ok, m2, z2, w2, back = result
                good = (_plain(higgs) == given
                        and _plain(z) == orc.par_to_orb_terms(m, ks, entries)
                        and (chart.m, chart.exponents) == (m, tuple(ks))
                        and list(w2) == op.args[2] and back == higgs)
            else:
                z, ok, weights, w, m2, w2, chart2, z2 = result
                good = (_plain(z) == given
                        and _plain(w) == orc.orb_to_par_terms(m, ks, entries)
                        and list(weights) == op.args[2] and chart2 == op.args[1]
                        and w2 == w)
            good = (good and ok and m2 == m and z2 == z
                    and orc.is_equivariant(m, ks, _plain(z)))
            return None if good else f"{op.label}: round trip differs"
        if kind == "vline":
            genus, orders, desing, iso = op.data
            want = orc.vline_expected(genus, dict(zip(
                [f"x{i + 1}" for i in range(len(orders))], orders)), desing, iso)
            deg, chi, line, back, pd = result
            good = (deg == want["degree"] == pd and chi == want["kawasaki"]
                    and line.degree == desing and line.weight_at == want["weights"]
                    and back == op.args[1])
            return None if good else f"vline {op.data}: {deg} {chi} {pd}"
        if kind == "roots":
            genus, s, desing, iso = op.data
            types, mult = orc.square_root_expected(
                genus, [f"x{i + 1}" for i in range(s)], desing, iso)
            got = [(t.desing_degree, dict(t.isotropy)) for t in result.types]
            good = got == types and result.torsion_multiplicity == mult
            return None if good else f"roots {op.data}: {got}"
        genus, orders = op.data
        first, last = orc.character_ends(genus, orders)
        good = (len(result) == orc.character_count(genus, orders)
                and (result[0].ab, result[0].sigma) == first
                and (result[-1].ab, result[-1].sigma) == last)
        return None if good else f"characters {op.data}: {len(result)}"

    def layer_metrics(self, tracer, log, first_pass, results):
        out = {}
        by_label = {}
        for label, latency, _ in log:
            if label.startswith(("p2o.", "o2p.")):
                by_label.setdefault(label[4:], []).append(latency)
        for n in (2, 4, 6):
            out[f"orbifold.roundtrip.n{n}.p50_us"] = p50_us(by_label.get(f"n{n}"))
        terms = chars = 0
        for op, (res, _) in zip(first_pass, results):
            if op.kind in ("p2o", "o2p"):
                terms += sum(_matrix_terms(x) for x in res
                             if isinstance(x, self.orb.LaurentMatrix))
            elif op.kind == "characters":
                chars += len(res)
        out["orbifold.terms_processed"] = terms
        out["orbifold.characters_enumerated"] = chars
        return out


def _plain(mat) -> list:
    return [[list(e) for e in row] for row in mat.entries]
