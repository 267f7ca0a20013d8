"""Component-count tests: enumerations against closed forms and the tables."""

import os
import subprocess
import sys
import tracemalloc

import pytest

from parhiggs.codec import to_json
from parhiggs.components import (
    ComponentCountReport,
    CountMode,
    GroupDescriptor,
    InvariantTuple,
    count_components,
    e7_minus25,
    emit_tables,
    enumerate_invariants_sp,
    is_split,
    s1_reduction_report,
    so0_2n,
    so_star_2n,
    sp2nr,
    split_group,
    strubel_count,
    sunn,
    tables_markdown,
    teichmuller_count,
)
from parhiggs.components import _factor_sizes
from parhiggs.exact_core import DomainError
from parhiggs.vcoh import v_cohomology_ranks
from test_cli import REPO_ROOT, _limit_address_space

MAX = CountMode.max_union()
EVEN = CountMode.fixed_parity("even")
ODD = CountMode.fixed_parity("odd")
PUNCT = CountMode.punctured()

HYP_GRID = [(g, s) for g in range(4) for s in range(1, 5) if 2 * g - 2 + s > 0]


# --------------------------------------------------------------------------
# descriptors and modes


def test_group_descriptor_validation():
    with pytest.raises(DomainError) as e:
        so_star_2n(3)
    assert e.value.payload()["error"] == "so_star_needs_even_rank"
    with pytest.raises(DomainError):
        so0_2n(2)
    with pytest.raises(DomainError):
        GroupDescriptor("split")
    with pytest.raises(DomainError):
        GroupDescriptor("E7minus25", n=2)
    with pytest.raises(DomainError):
        GroupDescriptor("Spin7")
    for make in (sp2nr, sunn, so_star_2n, so0_2n):
        for n in (True, 2.0, 4.0):
            with pytest.raises(DomainError) as e:
                make(n)
            assert e.value.code == "group_needs_rank"
    assert sp2nr(1).display() == "Sp(2,R)=SL(2,R)"
    assert sp2nr(2).display() == "Sp(4,R)"
    assert sunn(3).display() == "SU(3,3)"
    assert so_star_2n(4).display() == "SO*(8)"
    assert so0_2n(3).display() == "SO0(2,3)"
    assert e7_minus25().display() == "E7^{-25}"
    assert split_group("SL(3,R)").display() == "SL(3,R)"


def test_count_mode_validation():
    with pytest.raises(DomainError):
        CountMode("maximal")
    with pytest.raises(DomainError):
        CountMode("max_fixed_alpha")
    with pytest.raises(DomainError):
        CountMode("max_union", parity="even")


def test_invariant_tuple_validation():
    with pytest.raises(DomainError):
        InvariantTuple("w1_w2", w1=(0, 1))  # w2 missing
    with pytest.raises(DomainError):
        InvariantTuple("square_root", root_index=0, degree=1)
    with pytest.raises(DomainError):
        InvariantTuple("w1_w2", w1=(0, 2), w2=(0,))
    with pytest.raises(DomainError):
        InvariantTuple("parabolic_degree", parabolic=(1,), degree=-1)


# --------------------------------------------------------------------------
# Sp(2n,R) counts


def test_sp4_max_union_breakdown_at_g2_s1():
    report = count_components(sp2nr(2), 2, 1, MAX)
    assert [c.label for c in report.cases] == [
        "w1_nonzero_pairs", "w1_zero_submaximal", "square_roots"]
    assert [c.enumerated for c in report.cases] == [30, 6, 16]
    assert [c.closed_form for c in report.cases] == [30, 6, 16]
    assert report.total_enumerated == 52
    assert report.total_closed_form == 52
    assert report.match
    assert report.count_kind == "minimum components"
    assert report.verdict is None


def test_sp2_max_union_g1_s2():
    report = count_components(sp2nr(1), 1, 2, MAX)
    assert [c.label for c in report.cases] == ["square_roots"]
    assert report.total_enumerated == 8
    assert report.match


def test_sp4_fixed_even_g2_s2():
    report = count_components(sp2nr(2), 2, 2, EVEN)
    assert [c.enumerated for c in report.cases] == [31, 4, 16]
    assert report.total_enumerated == 51
    assert report.total_closed_form == 2 ** 5 + 3 + 2 ** 4
    assert report.match


def test_sp_family_totals_across_grid():
    for g, s in HYP_GRID:
        big = 2 ** (2 * g + s - 1)
        assert count_components(sp2nr(1), g, s, MAX).total_enumerated == big
        sp4 = count_components(sp2nr(2), g, s, MAX)
        assert sp4.total_enumerated == \
            (2 ** s + 1) * big + 2 ** s * (2 * g - 3 + s)
        for n in (3, 4):
            spn = count_components(sp2nr(n), g, s, MAX)
            assert spn.total_enumerated == (2 ** s + 1) * big
        assert sp4.match and spn.match


def test_sp4_symbolic_identity_across_grid():
    # the case-analysis sum regroups to the published total
    for g, s in HYP_GRID:
        big = 2 ** (2 * g + s - 1)
        two_s = 2 ** s
        case_sum = two_s * (big - 1) + two_s * (2 * g - 2 + s) + big
        assert case_sum == (two_s + 1) * big + two_s * (2 * g - 3 + s)


def test_fixed_odd_sp2_empty_moduli():
    report = count_components(sp2nr(1), 2, 1, ODD)
    assert report.verdict == "no_maximal_objects"
    assert report.cases == ()
    assert report.total_enumerated == 0
    assert report.match


def test_fixed_parity_sp4_and_higher_rank():
    assert count_components(sp2nr(2), 2, 1, ODD).total_enumerated == 18
    assert count_components(sp2nr(3), 2, 1, ODD).total_enumerated == 16
    assert count_components(sp2nr(2), 2, 1, EVEN).total_enumerated == 34
    assert count_components(sp2nr(3), 2, 1, EVEN).total_enumerated == 32


def test_punctured_count_independent_of_rank():
    for g, s in [(2, 1), (1, 2), (0, 3)]:
        totals = {count_components(sp2nr(n), g, s, PUNCT).total_enumerated
                  for n in (1, 2, 3, 4)}
        assert totals == {2 ** (2 * g + s - 1)}


# --------------------------------------------------------------------------
# enumeration of invariant tuples


def test_enumeration_sizes_match_examples():
    assert len(enumerate_invariants_sp(2, 2, 1, MAX)) == 52
    assert len(enumerate_invariants_sp(3, 1, 2, MAX)) == 40
    roots_only = enumerate_invariants_sp(1, 2, 3, MAX)
    assert {t.kind for t in roots_only} == {"square_root"}
    assert len(roots_only) == 2 ** (2 * 2 + 3 - 1)


def test_enumeration_tuple_shapes():
    tuples = enumerate_invariants_sp(2, 1, 2, MAX)
    pairs = [t for t in tuples if t.kind == "w1_w2"]
    degrees = [t for t in tuples if t.kind == "parabolic_degree"]
    roots = [t for t in tuples if t.kind == "square_root"]
    assert all(len(t.w1) == 2 * 1 + 2 - 1 and len(t.w2) == 2 for t in pairs)
    assert all(any(b for b in t.w1) for t in pairs)  # w1 = 0 excluded (n=2)
    assert all(0 <= t.degree <= 2 * 1 - 3 + 2 for t in degrees)
    assert len(roots) == 2 ** (2 * 1 + 2 - 1)
    # deterministic lexicographic order
    assert tuples[0] == InvariantTuple("w1_w2", w1=(0, 0, 1), w2=(0, 0))
    assert tuples == enumerate_invariants_sp(2, 1, 2, MAX)


@pytest.mark.parametrize("n,g,s,mode,payload", [
    (0, 2, 1, MAX, {"error": "group_needs_rank", "family": "Sp2nR"}),
    (1.5, 2, 1, MAX, {"error": "group_needs_rank", "family": "Sp2nR"}),
    (0, 2, 0, MAX, {"error": "group_needs_rank", "family": "Sp2nR"}),
    (2, 2, 0, MAX, {"error": "needs_marked_points", "g": 2, "s": 0}),
    (2, 2, 1, CountMode("nonparabolic_kd_twisted_s1"),
     {"error": "mode_not_enumerable", "variant": "nonparabolic_kd_twisted_s1"}),
    (True, 2, 1, MAX, {"error": "group_needs_rank", "family": "Sp2nR"}),
])
def test_enumeration_refusals_in_order(n, g, s, mode, payload):
    # the rank is checked by the group descriptor, before the surface
    with pytest.raises(DomainError) as e:
        enumerate_invariants_sp(n, g, s, mode)
    assert e.value.payload() == payload


def test_enumeration_cap():
    with pytest.raises(DomainError) as e:
        enumerate_invariants_sp(2, 2, 1, MAX, cap=10)
    payload = e.value.payload()
    assert payload["error"] == "enumeration_cap_exceeded"
    assert payload["needed"] == 52
    with pytest.raises(DomainError):
        count_components(sp2nr(2), 2, 1, MAX, cap=10)


def test_count_builds_every_tuple_and_keeps_none():
    # about 35k tuples at (4, 4): a list of them takes about 4.5 MB
    for group in (sp2nr(2), sp2nr(3), so0_2n(4)):
        tracemalloc.start()
        try:
            report = count_components(group, 4, 4, MAX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.total_enumerated > 32_000
        assert peak < 1 << 20, (group, peak)


CAP = 10 ** 6


def test_cap_is_checked_before_materializing_every_family():
    # (g, s) = (12, 12): h1 = 35, h2 = 12; 2g-2+s = 34, 4g-3+2s = 69
    big, w2, tor = 2 ** 35, 2 ** 12, 2 ** 24
    needed = {
        (sp2nr(1), MAX): big,
        (sp2nr(1), EVEN): tor,
        (sp2nr(1), ODD): 0,
        (sp2nr(1), PUNCT): big,
        (sp2nr(2), MAX): w2 * (big - 1) + w2 * 34 + big,
        (sp2nr(2), EVEN): (big - 1) + 34 + tor,
        (sp2nr(2), ODD): (big - 1) + 34,
        (sp2nr(2), PUNCT): big,
        (sp2nr(3), MAX): w2 * big + big,
        (sp2nr(3), EVEN): big + tor,
        (sp2nr(3), ODD): big,
        (sp2nr(3), PUNCT): big,
        (sunn(2), MAX): big,
        (sunn(2), EVEN): tor,
        (sunn(2), ODD): 0,
        (so_star_2n(2), MAX): w2,
        (so_star_2n(2), EVEN): 1,
        (so_star_2n(2), ODD): 1,
        (so0_2n(3), MAX): w2 * (big - 1) + w2 * 69,
        (so0_2n(3), EVEN): (big - 1) + 69,
        (so0_2n(3), ODD): (big - 1) + 69,
        (so0_2n(4), MAX): w2 * big,
        (so0_2n(4), EVEN): big,
        (so0_2n(4), ODD): big,
        (e7_minus25(), MAX): big,
    }
    for (group, mode), want in needed.items():
        if want <= CAP:
            report = count_components(group, 12, 12, mode, cap=CAP)
            assert report.total_enumerated == want
            continue
        with pytest.raises(DomainError) as e:
            count_components(group, 12, 12, mode, cap=CAP)
        assert e.value.payload() == {"error": "enumeration_cap_exceeded",
                                     "needed": want, "cap": CAP}
        if group.family == "Sp2nR":
            with pytest.raises(DomainError) as e:
                enumerate_invariants_sp(group.n, 12, 12, mode, cap=CAP)
            assert e.value.payload()["needed"] == want


def test_s1_reduction_report_honours_cap():
    with pytest.raises(DomainError) as e:
        s1_reduction_report(sp2nr(2), 2, cap=10)
    assert e.value.payload() == {"error": "enumeration_cap_exceeded",
                                 "needed": 52, "cap": 10}
    assert s1_reduction_report(sp2nr(2), 2, cap=52).parabolic_count == 52


def test_factor_sizes_follow_v_cohomology_ranks():
    for g in range(5):
        for s in range(1, 6):
            ranks, _ = v_cohomology_ranks(g, s, "order2")
            z = _factor_sizes(g, s)
            assert z["w1"] == z["roots"] == 2 ** ranks.h1
            assert z["w1_nonzero"] == 2 ** ranks.h1 - 1
            assert z["w2"] == 2 ** ranks.h2
            assert z["torsion"] == z["roots_fixed"] == 2 ** (2 * g)
            assert z["degrees"] == 2 * g - 2 + s
            assert z["so_degrees"] == 4 * g - 3 + 2 * s


# --------------------------------------------------------------------------
# the other Hermitian families


def test_su_counts():
    assert count_components(sunn(2), 1, 3, MAX).total_enumerated == 16
    report = count_components(sunn(2), 1, 1, EVEN)
    assert report.total_enumerated == 4
    odd = count_components(sunn(3), 2, 1, ODD)
    assert odd.verdict == "no_maximal_objects"
    assert odd.total_enumerated == 0


def test_so_star_counts():
    assert count_components(so_star_2n(2), 2, 2, MAX).total_enumerated == 4
    assert count_components(so_star_2n(4), 2, 2, MAX).total_enumerated == 4
    assert count_components(so_star_2n(2), 2, 2, EVEN).total_enumerated == 1
    assert count_components(so_star_2n(2), 2, 2, ODD).total_enumerated == 1


def test_so023_max_union():
    report = count_components(so0_2n(3), 2, 1, MAX)
    assert [c.enumerated for c in report.cases] == [30, 14]
    assert report.total_enumerated == 44
    assert report.match


def test_so023_fixed_alpha_discrepancy_is_reported():
    for mode in (EVEN, ODD):
        report = count_components(so0_2n(3), 2, 1, mode)
        assert report.total_enumerated == 22
        assert report.total_closed_form == 23
        assert not report.match
        assert any("one fewer" in note for note in report.notes)


def test_so02n_counts_and_identity():
    for g, s in HYP_GRID:
        report = count_components(so0_2n(4), g, s, MAX)
        assert report.total_enumerated == 2 ** (2 * g + 2 * s - 1)
        assert report.total_enumerated == 2 ** s * 2 ** (2 * g + s - 1)
        assert report.match
    assert count_components(so0_2n(5), 2, 1, EVEN).total_enumerated == 16


def test_e7_counts():
    report = count_components(e7_minus25(), 2, 1, MAX)
    assert report.total_enumerated == 16
    assert any("further invariants" in note for note in report.notes)
    with pytest.raises(DomainError) as e:
        count_components(e7_minus25(), 2, 1, EVEN)
    assert e.value.payload()["error"] == "unsupported_mode_for_group"


def test_split_group_not_countable():
    with pytest.raises(DomainError):
        count_components(split_group("SL(3,R)"), 2, 1, MAX)


def test_enumerated_matches_closed_form_everywhere_consistent():
    groups = [sp2nr(1), sp2nr(2), sp2nr(3), sunn(1), sunn(2), so_star_2n(2),
              so0_2n(3), so0_2n(4), e7_minus25()]
    for g, s in HYP_GRID:
        for group in groups:
            for mode in (MAX, EVEN, ODD):
                if group.family == "E7minus25" and \
                        mode.variant == "max_fixed_alpha":
                    continue
                report = count_components(group, g, s, mode)
                expect_mismatch = (group.family == "SO0_2n" and group.n == 3
                                   and mode.variant == "max_fixed_alpha")
                assert report.match == (not expect_mismatch)


def test_hyperbolicity_and_marked_point_requirements():
    with pytest.raises(DomainError):
        count_components(sp2nr(2), 1, 0, MAX)
    with pytest.raises(DomainError):
        count_components(sp2nr(2), 0, 2, MAX)


# --------------------------------------------------------------------------
# Teichmuller components


def test_teichmuller_counts():
    assert teichmuller_count(sp2nr(1), 2, 1) == 16
    assert teichmuller_count(sp2nr(3), 0, 4) == 8
    assert teichmuller_count(split_group("SL(3,R)"), 2, 1) == 16
    assert teichmuller_count(sunn(1), 2, 1) == 16
    with pytest.raises(DomainError) as e:
        teichmuller_count(sunn(2), 2, 1)
    assert e.value.payload()["error"] == "not_split"
    for group in (so_star_2n(2), so0_2n(3), e7_minus25()):
        with pytest.raises(DomainError):
            teichmuller_count(group, 2, 1)


def test_is_split_policy():
    assert is_split(sp2nr(1)) and is_split(sp2nr(4))
    assert is_split(sunn(1)) and not is_split(sunn(2))
    assert is_split(split_group("SO(3,4)"))
    assert not is_split(so_star_2n(2))
    assert not is_split(so0_2n(4))
    assert not is_split(e7_minus25())


# --------------------------------------------------------------------------
# tables


TABLE1_EXPECT = {
    (2, 1): [16, 52, 48, 16, 2, 44, 32, 16],
    (2, 2): [32, 172, 160, 32, 4, 160, 128, 32],
    (0, 3): [4, 36, 36, 4, 8, 48, 32, 4],
    (1, 2): [8, 44, 40, 8, 4, 48, 32, 8],
}
TABLE2_EXPECT = {
    (2, 1): [16, 34, 32, 16, 1, 23, 16],
    (2, 2): [16, 51, 48, 16, 1, 41, 32],
    (0, 3): [1, 5, 5, 1, 1, 7, 4],
    (1, 2): [4, 13, 12, 4, 1, 13, 8],
}
TABLE3_EXPECT = {
    (2, 1): [None, 18, 16, None, 1, 23, 16],
    (2, 2): [None, 35, 32, None, 1, 41, 32],
    (0, 3): [None, 4, 4, None, 1, 7, 4],
    (1, 2): [None, 9, 8, None, 1, 13, 8],
}

ROW_LABELS = ["Sp(2,R)=SL(2,R)", "Sp(4,R)", "Sp(2n,R), for n>=3", "SU(n,n)",
              "SO*(2n), for n: even", "SO0(2,3)", "SO0(2,n), for n>=4"]


def _counts(table):
    return [None if row.count == "-" else int(row.count)
            for row in table.rows]


def test_table_values_at_reference_pairs():
    for (g, s), expected in TABLE1_EXPECT.items():
        t1, t2, t3 = emit_tables(g, s)
        assert _counts(t1) == expected
        assert _counts(t2) == TABLE2_EXPECT[(g, s)]
        assert _counts(t3) == TABLE3_EXPECT[(g, s)]


def test_table_row_labels_and_dashes():
    t1, t2, t3 = emit_tables(2, 1)
    assert [row.label for row in t1.rows] == ROW_LABELS + ["E7^{-25}"]
    assert [row.label for row in t2.rows] == ROW_LABELS
    assert [row.label for row in t3.rows] == ROW_LABELS
    # dashes preserved for empty/undefined cells
    assert t3.rows[0].count == "-"
    assert t3.rows[3].count == "-"
    assert t1.rows[3].teichmuller == "- (16 if n=1)"
    assert t2.rows[3].teichmuller == "- (16 if n=1)"
    assert t1.rows[4].teichmuller == "-"
    assert t1.rows[5].teichmuller == "1"
    # Teichmuller cells for the split rows
    assert t1.rows[0].teichmuller == "16"
    assert t2.rows[2].teichmuller == "16"
    assert t3.rows[1].teichmuller == "-"


def test_table_teichmuller_cells_match_teichmuller_count():
    for g, s in [(2, 1), (1, 2), (0, 3)]:
        t1, _, _ = emit_tables(g, s)
        for idx in (0, 1, 2):
            assert int(t1.rows[idx].teichmuller) == \
                teichmuller_count(sp2nr(idx + 1), g, s)


def test_tables_match_count_reports():
    # Table 1 column against count_components totals, row for row
    for g, s in [(2, 1), (1, 2), (0, 3), (2, 2)]:
        t1, t2, t3 = emit_tables(g, s)
        groups = [sp2nr(1), sp2nr(2), sp2nr(3), sunn(2), so_star_2n(2),
                  so0_2n(3), so0_2n(4), e7_minus25()]
        for row, group in zip(t1.rows, groups):
            report = count_components(group, g, s, MAX)
            assert int(row.count) == report.total_enumerated
        for idx, group in enumerate(groups[:-1]):
            even = count_components(group, g, s, EVEN)
            odd = count_components(group, g, s, ODD)
            # fixed-parity tables print the published closed form
            assert _counts(t2)[idx] == (even.total_closed_form or None)
            assert _counts(t3)[idx] == (odd.total_closed_form or None)


def test_tables_markdown_rendering():
    tables = emit_tables(2, 1)
    text = tables_markdown(tables, 2, 1)
    assert text == tables_markdown(emit_tables(2, 1), 2, 1)
    assert "| Sp(4,R) | 52 | 16 |" in text
    assert "| Sp(2,R)=SL(2,R) | - | - |" in text
    assert text.count("| --- | --- | --- |") == 3
    assert "one fewer" in text  # discrepancy footnote


# --------------------------------------------------------------------------
# boundary counts and the s=1 reduction


def test_strubel_counts():
    assert strubel_count(2, 1) == 16
    assert strubel_count(0, 3) == 4
    assert strubel_count(1, 2) == 8
    with pytest.raises(DomainError):
        strubel_count(2, 0)
    # independence of the rank: the punctured enumeration gives the same
    # total for every n
    for n in (1, 2, 3):
        assert count_components(sp2nr(n), 1, 2, PUNCT).total_enumerated == \
            strubel_count(1, 2)


@pytest.mark.parametrize("g,m,code", [
    (2, 0, "needs_marked_points"),
    (0, 1, "not_hyperbolic"),
    (0, 2, "not_hyperbolic"),
    (-1, 3, "bad_genus"),
])
def test_strubel_count_errors(g, m, code):
    with pytest.raises(DomainError) as err:
        strubel_count(g, m)
    assert err.value.code == code


def test_strubel_count_reads_the_case_table():
    # a child limited to 1 GiB: materializing the 2^31 tuples would fail
    proc = subprocess.run(
        [sys.executable, "-c", "from parhiggs.components import strubel_count;"
                               "print(strubel_count(14, 4))"],
        capture_output=True, text=True, timeout=30,
        preexec_fn=_limit_address_space,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                 PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 2 ** 31


def test_s1_reduction_sp4():
    report = s1_reduction_report(sp2nr(2), 2)
    assert report.parabolic_count == 52
    assert report.kd_twisted_count == 49
    assert report.table_count == 52
    assert [v for _, v in report.kd_twisted_cases] == [30, 3, 16]
    assert any("K(D)-twisted count 3*2^{2g}+2g-3" in n for n in report.notes)


def test_s1_reduction_so023():
    report = s1_reduction_report(so0_2n(3), 2)
    assert report.parabolic_count == 44
    assert report.kd_twisted_count == 37
    assert report.table_count == 44
    assert [v for _, v in report.kd_twisted_cases] == [30, 7]


def test_s1_reduction_sp2_and_others():
    report = s1_reduction_report(sp2nr(1), 2)
    assert report.parabolic_count == 16
    assert report.table_count == 16
    assert report.kd_twisted_count is None
    star = s1_reduction_report(so_star_2n(2), 2)
    assert star.parabolic_count == 2
    assert star.table_count == 1
    assert any("square roots" in note for note in star.notes)
    for group in (sp2nr(3), sunn(2), so0_2n(4), e7_minus25()):
        rep = s1_reduction_report(group, 2)
        assert rep.parabolic_count == rep.table_count


def test_nonparabolic_modes():
    report = count_components(sp2nr(2), 2, 1, CountMode.nonparabolic())
    assert report.total_enumerated == 3 * 16 + 4 * 2 - 4 == 52
    kd = count_components(sp2nr(2), 2, 1, CountMode.kd_twisted())
    assert kd.total_enumerated == 49
    assert count_components(so0_2n(3), 2, 1,
                            CountMode.kd_twisted()).total_enumerated == 37
    with pytest.raises(DomainError) as e:
        count_components(sp2nr(2), 2, 2, CountMode.nonparabolic())
    assert e.value.payload()["error"] == "nonparabolic_modes_need_single_point"
    with pytest.raises(DomainError):
        count_components(sunn(2), 2, 1, CountMode.kd_twisted())


# --------------------------------------------------------------------------
# serialization


def test_report_json_shape():
    report = count_components(sp2nr(2), 2, 1, MAX)
    obj = to_json(report)
    assert obj["group"] == to_json(sp2nr(2))
    assert obj["group"]["display"] == "Sp(4,R)"
    assert obj["mode"] == to_json(MAX) == {"variant": "max_union"}
    assert obj["total_enumerated"] == 52
    assert obj["match"] is True
    assert obj["cases"][0] == {"label": "w1_nonzero_pairs",
                               "enumerated": 30, "closed_form": 30}
    assert obj["count_kind"] == "minimum components"
    odd = to_json(count_components(sp2nr(1), 2, 1, ODD))
    assert odd["verdict"] == "no_maximal_objects"


def test_s1_report_json_shape():
    obj = to_json(s1_reduction_report(sp2nr(2), 2))
    assert obj["parabolic_count"] == 52
    assert obj["kd_twisted_count"] == 49
    assert obj["table_count"] == 52
    assert obj["kd_twisted_cases"][1] == {"label": "submaximal_degrees",
                                          "count": 3}
