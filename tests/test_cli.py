"""End-to-end checks of the command-line interface.

Every subcommand is run in-process through ``main(argv)``; stdout is parsed
and validated against the JSON schema shipped in ``schemas/``.  One test
confirms the entry-point wiring: it builds a console-script launcher from
this checkout's own ``[project.scripts]`` entry in ``pyproject.toml`` and runs
it in a subprocess against the checkout's ``src``, so no install is needed and
no other ``parhiggs`` on PATH is used.  Output determinism is asserted
byte-for-byte.
"""

import csv
import io
import json
import os
import resource
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import jsonschema
import pytest

from parhiggs import components as comp
from parhiggs.cli import DEFAULT_CAP, main
from parhiggs.codec import to_json
from parhiggs.stability import hitchin_model, hitchin_sp_triple

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = REPO_ROOT / "schemas"

LINE_JSON = json.dumps({"degree": -1, "weights": {"x1": "1/2"}})
BUNDLE_JSON = json.dumps({
    "rank": 2,
    "degree": 1,
    "flags": {"x1": {"mult": [1, 1], "weights": ["1/4", "3/4"]}},
})
TRIPLE_JSON = json.dumps(to_json(hitchin_sp_triple(2, 2, 1)))
MODEL_JSON = json.dumps(to_json(hitchin_model(2, 2, 1)))


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def validate(payload, schema_name):
    schema_path = SCHEMA_DIR / f"{schema_name}.schema.json"
    jsonschema.validate(payload, json.loads(schema_path.read_text()))


# --------------------------------------------------------------------------
# schema conformance for every subcommand


SCHEMA_CASES = [
    ("pardeg-line",
     ["pardeg", "--g", "1", "--s", "1", "--line", LINE_JSON], "pardeg"),
    ("pardeg-bundle",
     ["pardeg", "--g", "1", "--s", "1", "--bundle", BUNDLE_JSON], "pardeg"),
    ("stability-triple", ["stability", "--triple", TRIPLE_JSON], "stability"),
    ("stability-model", ["stability", "--model", MODEL_JSON], "stability"),
    ("toledo", ["toledo", "--triple", TRIPLE_JSON], "toledo"),
    ("mw", ["mw", "--n", "2", "--g", "2", "--s", "1"], "mw"),
    ("mw-interval",
     ["mw", "--n", "2", "--g", "2", "--s", "1",
      "--rk-plus", "1", "--rk-minus", "1"], "mw"),
    ("hitchin", ["hitchin", "--k", "3", "--g", "2", "--s", "1"], "hitchin"),
    ("hitchin-triple",
     ["hitchin", "--k", "2", "--g", "2", "--s", "1", "--triple"], "hitchin"),
    ("components-max",
     ["components", "--group", "sp4", "--g", "2", "--s", "1"], "components"),
    ("components-empty",
     ["components", "--group", "sp2", "--g", "2", "--s", "1",
      "--mode", "fixed-odd"], "components"),
    ("components-su-even",
     ["components", "--group", "su", "--n", "2", "--g", "1", "--s", "2",
      "--mode", "fixed-even"], "components"),
    ("components-nonparabolic",
     ["components", "--group", "so0-23", "--g", "2", "--s", "1",
      "--mode", "nonparabolic"], "components"),
    ("components-kd",
     ["components", "--group", "sp4", "--g", "2", "--s", "1",
      "--mode", "kd-twisted"], "components"),
    ("tables", ["tables", "--g", "2", "--s", "1", "--format", "json"],
     "tables"),
    ("dims-paradim",
     ["dims", "--formula", "paradim", "--n", "2", "--g", "2", "--s", "1"],
     "dims"),
    ("dims-sparadim",
     ["dims", "--formula", "sparadim", "--n", "2", "--g", "2", "--s", "1",
      "--flags", "full"], "dims"),
    ("dims-complex",
     ["dims", "--formula", "complex", "--dim-c", "3", "--g", "2", "--s", "1",
      "--name", "SL(2,C)"], "dims"),
    ("dims-teich",
     ["dims", "--formula", "teich", "--lie-group", "Sp(4,R)",
      "--g", "2", "--s", "1"], "dims"),
    ("vcoh", ["vcoh", "--g", "2", "--s", "3"], "vcoh"),
    ("orbifold",
     ["orbifold", "--g", "1", "--s", "2", "--desing-degree", "3",
      "--isotropy", "1,0"], "orbifold"),
    ("characters",
     ["characters", "--g", "1", "--s", "3", "--enumerate"], "characters"),
    ("roots", ["roots", "--g", "1", "--s", "2", "--desing-degree", "0"],
     "roots"),
    ("s1-report", ["s1-report", "--group", "sp4", "--g", "2"], "s1_report"),
]


@pytest.mark.parametrize("argv,schema",
                         [(argv, schema) for _, argv, schema in SCHEMA_CASES],
                         ids=[case_id for case_id, _, _ in SCHEMA_CASES])
def test_json_output_matches_schema(capsys, argv, schema):
    code, payload = run_json(capsys, argv)
    assert code == 0
    validate(payload, schema)


@pytest.mark.parametrize("argv",
                         [argv for _, argv, _ in SCHEMA_CASES],
                         ids=[case_id for case_id, _, _ in SCHEMA_CASES])
def test_output_is_deterministic(capsys, argv):
    code_a, out_a = run(capsys, argv)
    code_b, out_b = run(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b


# --------------------------------------------------------------------------
# value spot checks


def test_pardeg_line_value(capsys):
    code, payload = run_json(
        capsys, ["pardeg", "--g", "1", "--s", "1", "--line", LINE_JSON])
    assert code == 0
    assert payload == {"pardeg": "-1/2"}


def test_pardeg_bundle_reports_slope(capsys):
    code, payload = run_json(
        capsys, ["pardeg", "--g", "1", "--s", "1", "--bundle", BUNDLE_JSON])
    assert code == 0
    assert payload == {"pardeg": "2", "parslope": "1", "rank": 2}


def test_stability_of_rank_two_canonical_model(capsys):
    code, payload = run_json(capsys, ["stability", "--triple", TRIPLE_JSON])
    assert code == 0
    assert payload["verdict"] == "stable"
    assert payload["witness"] is None
    assert payload["feasibility_violations"] == []


def test_toledo_of_canonical_model_is_maximal(capsys):
    code, payload = run_json(capsys, ["toledo", "--triple", TRIPLE_JSON])
    assert code == 0
    assert payload == {"toledo": "3/2", "bound": "3/2",
                       "is_maximal": True, "n": 1}


def test_mw_bound_value(capsys):
    code, payload = run_json(capsys, ["mw", "--n", "2", "--g", "2", "--s", "1"])
    assert code == 0
    assert payload == {"bound": "3"}


def test_mw_refuses_a_negative_rank(capsys):
    code, payload = run_json(capsys, ["mw", "--n", "-3", "--g", "2", "--s", "1"])
    assert code == 2
    assert payload == {"error": "negative_rank", "n": -3}
    validate(payload, "error")
    code, payload = run_json(capsys, ["mw", "--n", "0", "--g", "2", "--s", "1"])
    assert code == 0
    assert payload == {"bound": "0"}


def test_mw_interval_is_symmetric_for_equal_ranks(capsys):
    code, payload = run_json(
        capsys, ["mw", "--n", "2", "--g", "2", "--s", "1",
                 "--rk-plus", "1", "--rk-minus", "1"])
    assert code == 0
    assert payload["interval"] == {"lower": "-3", "upper": "3"}


def test_hitchin_even_rank_is_stable_and_maximal(capsys):
    code, payload = run_json(
        capsys, ["hitchin", "--k", "2", "--g", "2", "--s", "1", "--triple"])
    assert code == 0
    assert payload["total_pardeg"] == "0"
    assert payload["verdict"] == "stable"
    assert payload["is_maximal"] is True
    assert payload["toledo"] == payload["bound"]


def test_components_reference_point(capsys):
    code, payload = run_json(
        capsys, ["components", "--group", "sp4", "--g", "2", "--s", "1"])
    assert code == 0
    assert payload["total_enumerated"] == 52
    assert payload["total_closed_form"] == 52
    assert payload["match"] is True
    assert [c["enumerated"] for c in payload["cases"]] == [30, 6, 16]


def test_components_empty_mode_reports_verdict(capsys):
    code, payload = run_json(
        capsys, ["components", "--group", "sp2", "--g", "2", "--s", "1",
                 "--mode", "fixed-odd"])
    assert code == 0
    assert payload["cases"] == []
    assert payload["total_enumerated"] == 0
    assert payload["verdict"] == "no_maximal_objects"


def test_components_accepts_sp2n_spelling(capsys):
    _, by_name = run_json(
        capsys, ["components", "--group", "sp6", "--g", "1", "--s", "2"])
    _, by_param = run_json(
        capsys, ["components", "--group", "sp2n", "--n", "3",
                 "--g", "1", "--s", "2"])
    assert by_name == by_param


@pytest.mark.parametrize("argv,group", [
    (["--group", "so-star", "--n", "2"], "SO*(4)"),
    (["--group", "sostar", "--n", "2"], "SO*(4)"),
    (["--group", "so0-2n", "--n", "4"], "SO0(2,4)"),
    (["--group", "so02n", "--n", "4"], "SO0(2,4)"),
    (["--group", "e7"], "E7^{-25}"),
], ids=["so-star", "sostar", "so0-2n", "so02n", "e7"])
def test_components_group_spellings(capsys, argv, group):
    code, payload = run_json(
        capsys, ["components", *argv, "--g", "2", "--s", "1"])
    assert code == 0
    validate(payload, "components")
    assert payload["group"]["display"] == group


def test_characters_count(capsys):
    code, payload = run_json(capsys, ["characters", "--g", "1", "--s", "3"])
    assert code == 0
    assert payload == {"count": 16}


def test_characters_enumeration_matches_count(capsys):
    code, payload = run_json(
        capsys, ["characters", "--g", "1", "--s", "3", "--enumerate"])
    assert code == 0
    assert payload["count"] == 16
    assert len(payload["characters"]) == 16
    for ch in payload["characters"]:
        assert len(ch["ab"]) == 2
        assert len(ch["sigma"]) == 3
        assert sum(ch["sigma"]) % 2 == 0


def test_characters_with_odd_orders(capsys):
    code, payload = run_json(
        capsys, ["characters", "--g", "1", "--s", "2", "--orders", "3,2"])
    assert code == 0
    assert payload == {"count": 4}


def test_vcoh_order_two_ranks(capsys):
    code, payload = run_json(capsys, ["vcoh", "--g", "2", "--s", "3"])
    assert code == 0
    assert (payload["h0"], payload["h1"], payload["h2"]) == (1, 6, 3)
    assert payload["euler"] == -2


def test_orbifold_kawasaki_is_offset_desing_degree(capsys):
    code, payload = run_json(
        capsys, ["orbifold", "--g", "1", "--s", "2", "--desing-degree", "3",
                 "--isotropy", "1,0"])
    assert code == 0
    assert payload["degree"] == "7/2"
    assert payload["kawasaki_euler"] == 3
    assert payload["square_root_total"] == 0


def test_orbifold_without_square_root_prints_null(capsys):
    # no marked points and an odd degree: square_root_types refuses
    code, payload = run_json(
        capsys, ["orbifold", "--g", "2", "--s", "0", "--desing-degree", "1"])
    assert code == 0
    validate(payload, "orbifold")
    assert payload["square_root_total"] is None


def test_roots_total_is_types_times_torsion(capsys):
    code, payload = run_json(
        capsys, ["roots", "--g", "1", "--s", "2", "--desing-degree", "0"])
    assert code == 0
    assert payload["type_count"] == len(payload["types"]) == 2
    assert payload["torsion_multiplicity"] == 4
    assert payload["total"] == 8


def test_roots_obeys_the_cap(capsys):
    # 2^15 types at s = 16, refused before any is built
    code, payload = run_json(
        capsys, ["roots", "--g", "1", "--s", "16", "--desing-degree", "0",
                 "--cap", "10"])
    assert code == 2
    assert payload == {"error": "enumeration_cap_exceeded", "needed": 32768,
                       "cap": 10}
    code, payload = run_json(
        capsys, ["roots", "--g", "1", "--s", "2", "--desing-degree", "0",
                 "--cap", "2"])
    assert code == 0 and payload["type_count"] == 2


def test_dims_values(capsys):
    _, paradim = run_json(
        capsys, ["dims", "--formula", "paradim", "--n", "2",
                 "--g", "2", "--s", "1"])
    assert paradim == {"formula": "paradim", "dimension": 13}
    _, sparadim = run_json(
        capsys, ["dims", "--formula", "sparadim", "--n", "2",
                 "--g", "2", "--s", "1", "--flags", "full"])
    assert sparadim == {"formula": "sparadim", "dimension": 12}
    # the trivial flag adds nothing: 2(g-1)n^2 + 2
    _, trivial = run_json(
        capsys, ["dims", "--formula", "sparadim", "--n", "2",
                 "--g", "2", "--s", "1", "--flags", "trivial"])
    assert trivial == {"formula": "sparadim", "dimension": 10}


def test_dims_teich_real_dimension(capsys):
    code, payload = run_json(
        capsys, ["dims", "--formula", "teich", "--lie-group", "SL(2,R)",
                 "--g", "2", "--s", "1"])
    assert code == 0
    assert payload["real_dimension"] == 8
    assert payload["group"] == "SL(2,R)"


def test_s1_report_values(capsys):
    code, payload = run_json(capsys, ["s1-report", "--group", "sp4",
                                      "--g", "2"])
    assert code == 0
    assert payload["parabolic_count"] == 52
    assert payload["kd_twisted_count"] == 49
    assert payload["table_count"] == 52


# --------------------------------------------------------------------------
# output formats


def test_tables_defaults_to_markdown(capsys):
    code, out = run(capsys, ["tables", "--g", "2", "--s", "1"])
    assert code == 0
    assert out.startswith("# Connected-component tables at genus 2, "
                          "marked points 1\n")
    assert "| Sp(4,R) | 52 | 16 |" in out


def test_tables_csv_quotes_labels(capsys):
    code, out = run(capsys, ["tables", "--g", "2", "--s", "1",
                             "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "table,label,count,teichmuller"
    assert '1,"Sp(4,R)",52,16' in lines


def test_components_markdown_format(capsys):
    code, out = run(capsys, ["components", "--group", "sp4", "--g", "2",
                             "--s", "1", "--format", "markdown"])
    assert code == 0
    assert "| case | enumerated | closed form |" in out
    assert "| total (minimum components) | 52 | 52 |" in out
    assert "match: true" in out


def test_components_csv_format(capsys):
    code, out = run(capsys, ["components", "--group", "sp4", "--g", "2",
                             "--s", "1", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case,enumerated,closed_form"
    assert lines[-1] == "total,52,52"


def test_generic_markdown_fallback(capsys):
    code, out = run(capsys, ["mw", "--n", "2", "--g", "2", "--s", "1",
                             "--format", "markdown"])
    assert code == 0
    assert out.splitlines()[0] == "| field | value |"
    assert "| bound | 3 |" in out


def test_generic_csv_fallback(capsys):
    code, out = run(capsys, ["mw", "--n", "2", "--g", "2", "--s", "1",
                             "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["field,value", "bound,3"]


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
def test_generic_formats_inline_nested_values(capsys, fmt):
    argv = ["hitchin", "--k", "2", "--g", "2", "--s", "1", "--triple"]
    _, payload = run_json(capsys, argv)
    code, out = run(capsys, [*argv, "--format", fmt])
    assert code == 0
    if fmt == "csv":
        cells = dict(csv.reader(io.StringIO(out)))
    else:
        cells = dict(line[2:-2].split(" | ", 1)
                     for line in out.splitlines()[2:])
    nested = [key for key, value in payload.items()
              if isinstance(value, (dict, list))]
    assert sorted(nested) == ["model", "pardegs", "sp_triple"]
    for key in nested:
        assert cells[key] == json.dumps(payload[key], sort_keys=True,
                                        separators=(",", ":"))


def test_emit_tables_appends_markdown_after_blank_line(capsys):
    code, out = run(capsys, ["components", "--group", "sp4", "--g", "2",
                             "--s", "1", "--emit-tables"])
    assert code == 0
    payload_text, trailer = out.split("\n\n", 1)
    payload = json.loads(payload_text)
    validate(payload, "components")
    expected = comp.tables_markdown(comp.emit_tables(2, 1), 2, 1)
    assert trailer.rstrip("\n") == expected.rstrip("\n")


def test_tables_json_matches_library(capsys):
    code, payload = run_json(capsys, ["tables", "--g", "2", "--s", "1",
                                      "--format", "json"])
    assert code == 0
    tables = comp.emit_tables(2, 1)
    assert [t["title"] for t in payload["tables"]] == \
        [t.title for t in tables]
    assert payload["tables"][0]["rows"][1] == \
        {"label": "Sp(4,R)", "count": "52", "teichmuller": "16"}


# --------------------------------------------------------------------------
# exit codes and error objects


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "components" in out and "s1-report" in out


def test_unknown_command_exits_two(capsys):
    assert main(["bogus"]) == 2


def test_missing_command_exits_two(capsys):
    assert main([]) == 2


ERROR_CASES = [
    ("not-hyperbolic", ["characters", "--g", "0", "--s", "1"],
     "not_hyperbolic"),
    ("pardeg-neither", ["pardeg", "--g", "1", "--s", "1"],
     "need_exactly_one_of"),
    ("pardeg-both",
     ["pardeg", "--g", "1", "--s", "1", "--line", LINE_JSON,
      "--bundle", BUNDLE_JSON], "need_exactly_one_of"),
    ("stability-neither", ["stability"], "need_exactly_one_of"),
    ("bad-json", ["stability", "--model", "{oops"], "bad_json_argument"),
    ("line-empty-object",
     ["pardeg", "--g", "1", "--s", "1", "--line", "{}"], "bad_json_argument"),
    ("line-list", ["pardeg", "--g", "1", "--s", "1", "--line", "[]"],
     "bad_json_argument"),
    ("line-float-degree",
     ["pardeg", "--g", "1", "--s", "1", "--line", '{"degree": 1.7}'],
     "bad_json_argument"),
    ("line-bool-degree",
     ["pardeg", "--g", "1", "--s", "1", "--line", '{"degree": true}'],
     "bad_json_argument"),
    ("line-weight-of-5000-digits",
     ["pardeg", "--g", "1", "--s", "1", "--line",
      json.dumps({"degree": 0, "weights": {"x1": "1" * 5000}})], "bad_rational"),
    ("triple-short-arrow",
     ["stability", "--triple",
      json.dumps(dict(json.loads(TRIPLE_JSON), beta=[[0]]))],
     "bad_json_argument"),
    ("triple-long-arrow",
     ["stability", "--triple",
      json.dumps(dict(json.loads(TRIPLE_JSON), beta=[[0, 0, 1]]))],
     "bad_json_argument"),
    ("model-no-surface",
     ["stability", "--model",
      json.dumps({k: v for k, v in json.loads(MODEL_JSON).items()
                  if k != "surface"})], "bad_json_argument"),
    ("flags-string-multiplicity",
     ["dims", "--formula", "sparadim", "--n", "2", "--g", "2", "--s", "1",
      "--flags", '[[1,"a"]]'], "bad_json_argument"),
    ("mw-one-rank",
     ["mw", "--n", "2", "--g", "2", "--s", "1", "--rk-plus", "1"],
     "need_both_or_neither"),
    ("split-not-countable",
     ["components", "--group", "split:SL(3,R)", "--g", "2", "--s", "1"],
     "unsupported_group_for_counting"),
    ("sp2n-needs-n",
     ["components", "--group", "sp2n", "--g", "2", "--s", "1"],
     "group_needs_n"),
    ("su-needs-n",
     ["components", "--group", "su", "--g", "2", "--s", "1"],
     "group_needs_n"),
    ("so-star-needs-n",
     ["components", "--group", "so-star", "--g", "2", "--s", "1"],
     "group_needs_n"),
    ("so0-2n-needs-n",
     ["components", "--group", "so0-2n", "--g", "2", "--s", "1"],
     "group_needs_n"),
    ("unknown-group",
     ["components", "--group", "bogus", "--g", "2", "--s", "1"],
     "unknown_group"),
    ("odd-sp-name",
     ["components", "--group", "sp3", "--g", "2", "--s", "1"],
     "unknown_group"),
    ("nonparabolic-needs-one-point",
     ["components", "--group", "sp4", "--g", "2", "--s", "2",
      "--mode", "nonparabolic"], "nonparabolic_modes_need_single_point"),
    ("kd-unsupported-group",
     ["components", "--group", "su", "--n", "2", "--g", "2", "--s", "1",
      "--mode", "kd-twisted"], "unsupported_mode_for_group"),
    ("bad-cap", ["characters", "--g", "1", "--s", "3", "--cap", "0"],
     "bad_cap"),
    ("cap-exceeded",
     ["characters", "--g", "1", "--s", "3", "--enumerate", "--cap", "5"],
     "enumeration_cap_exceeded"),
    ("orders-length",
     ["characters", "--g", "1", "--s", "3", "--orders", "2,2"],
     "orders_length_mismatch"),
    ("dims-missing-n",
     ["dims", "--formula", "paradim", "--g", "2", "--s", "1"],
     "missing_argument"),
    ("dims-missing-dim-c",
     ["dims", "--formula", "complex", "--g", "2", "--s", "1"],
     "missing_argument"),
    ("dims-missing-lie-group",
     ["dims", "--formula", "teich", "--g", "2", "--s", "1"],
     "missing_argument"),
    ("dims-unknown-lie-group",
     ["dims", "--formula", "teich", "--lie-group", "G2", "--g", "2",
      "--s", "1"], "unknown_group_name"),
    ("orders-not-integer",
     ["characters", "--g", "1", "--s", "2", "--orders", "2,x"],
     "bad_integer_list"),
    ("isotropy-length",
     ["roots", "--g", "1", "--s", "2", "--desing-degree", "0",
      "--isotropy", "1"], "bits_length_mismatch"),
    ("isotropy-not-integer",
     ["orbifold", "--g", "1", "--s", "2", "--desing-degree", "0",
      "--isotropy", "a,b"], "bad_integer_list"),
]


@pytest.mark.parametrize("argv,error_code",
                         [(argv, err) for _, argv, err in ERROR_CASES],
                         ids=[case_id for case_id, _, _ in ERROR_CASES])
def test_domain_errors_exit_two_with_error_object(capsys, argv, error_code):
    code, payload = run_json(capsys, argv)
    assert code == 2
    assert payload["error"] == error_code
    validate(payload, "error")


# --s -1 on every subcommand that takes --s, with the code that refuses it
NEGATIVE_S_CASES = [
    ("pardeg", ["pardeg", "--line", LINE_JSON], "bad_marked_points"),
    ("mw", ["mw", "--n", "2"], "bad_marked_points"),
    ("hitchin", ["hitchin", "--k", "2"], "bad_marked_points"),
    ("components", ["components", "--group", "sp4"], "bad_marked_points"),
    ("tables", ["tables"], "bad_marked_points"),
    ("dims-paradim", ["dims", "--formula", "paradim", "--n", "2"],
     "bad_marked_points"),
    ("dims-sparadim", ["dims", "--formula", "sparadim", "--n", "2"],
     "bad_marked_points"),
    ("dims-complex", ["dims", "--formula", "complex", "--dim-c", "3"],
     "bad_marked_points"),
    ("dims-teich", ["dims", "--formula", "teich", "--lie-group", "Sp(4,R)"],
     "bad_marked_points"),
    ("vcoh", ["vcoh"], "bad_marked_points"),
    ("orbifold", ["orbifold", "--desing-degree", "1"],
     "bad_marked_points"),
    ("characters", ["characters"], "bad_marked_points"),
    ("roots", ["roots", "--desing-degree", "0"], "bad_marked_points"),
]


@pytest.mark.parametrize("argv,error_code",
                         [(argv, err) for _, argv, err in NEGATIVE_S_CASES],
                         ids=[case_id for case_id, _, _ in NEGATIVE_S_CASES])
def test_negative_marked_points_are_refused(capsys, argv, error_code):
    code = main([*argv, "--g", "2", "--s", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = json.loads(captured.out)
    validate(payload, "error")
    assert payload["error"] == error_code
    if error_code == "bad_marked_points":
        assert payload == {"error": "bad_marked_points", "s": -1}


@pytest.mark.parametrize(
    "argv", [argv for _, argv, err in ERROR_CASES if err == "bad_json_argument"],
    ids=[case_id for case_id, _, err in ERROR_CASES
         if err == "bad_json_argument"])
def test_bad_json_argument_names_its_flag(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = json.loads(captured.out)
    validate(payload, "error")
    # the flag is the argument just before the JSON text
    flag = next(a for a, b in zip(argv, argv[1:]) if b[:1] in "{[")
    assert payload["field"] == flag.removeprefix("--")


@pytest.mark.parametrize("argv,flag", [
    (["characters", "--g", "1", "--s", "2", "--orders", "2,x"], "orders"),
    (["roots", "--g", "1", "--s", "2", "--desing-degree", "0",
      "--isotropy", "1,1.5"], "isotropy"),
])
def test_bad_integer_list_names_its_flag(capsys, argv, flag):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert json.loads(captured.out) == {"error": "bad_integer_list",
                                        "field": flag, "value": argv[-1]}


@pytest.mark.parametrize("argv,detail", [
    (["characters", "--g", "1", "--s", "3", "--cap", "abc"],
     "argument --cap: invalid int value: 'abc'"),
    (["characters", "--g", "x", "--s", "3"],
     "argument --g: invalid int value: 'x'"),
    (["characters", "--g", "1"], "the following arguments are required: --s"),
    (["characters", "--g", "1", "--s", "3", "--format", "xml"], "--format"),
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
])
def test_rejected_arguments_give_an_error_object(capsys, argv, detail):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    payload = json.loads(captured.out)
    validate(payload, "error")
    assert payload["error"] == "bad_argument"
    assert detail in payload["detail"]


def test_rationals_in_error_payloads_are_written_as_p_over_q(capsys):
    code, payload = run_json(
        capsys, ["pardeg", "--g", "1", "--s", "1", "--line",
                 '{"degree": 0, "weights": {"x1": "3/2"}}'])
    assert code == 2
    assert payload == {"error": "weight_out_of_range", "weight": "3/2"}


def test_not_hyperbolic_error_payload(capsys):
    code, payload = run_json(capsys, ["characters", "--g", "0", "--s", "1"])
    assert code == 2
    assert payload == {"error": "not_hyperbolic", "g": 0, "s": 1}


def test_cap_exceeded_reports_needed_size(capsys):
    code, payload = run_json(
        capsys, ["components", "--group", "sp4", "--g", "2", "--s", "1",
                 "--cap", "10"])
    assert code == 2
    assert payload == {"error": "enumeration_cap_exceeded",
                       "needed": 52, "cap": 10}


def test_cap_env_variable_is_honoured(capsys, monkeypatch):
    monkeypatch.setenv("PARHIGGS_CAP", "5")
    code, payload = run_json(
        capsys, ["characters", "--g", "1", "--s", "3", "--enumerate"])
    assert code == 2
    assert payload["error"] == "enumeration_cap_exceeded"


def test_cap_env_variable_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("PARHIGGS_CAP", "abc")
    code, payload = run_json(capsys, ["characters", "--g", "1", "--s", "3"])
    assert code == 2
    assert payload == {"error": "bad_cap", "cap": "abc"}
    validate(payload, "error")


def test_cap_flag_overrides_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("PARHIGGS_CAP", "5")
    code, payload = run_json(
        capsys, ["characters", "--g", "1", "--s", "3", "--enumerate",
                 "--cap", str(DEFAULT_CAP)])
    assert code == 0
    assert payload["count"] == 16


def test_hitchin_above_rank_limit_is_refused_promptly():
    # run in a child so a regression to a 2^40 loop fails on the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "parhiggs.cli", "hitchin", "--k", "40",
         "--g", "2", "--s", "1"],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                 PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 2, proc.stderr
    payload = json.loads(proc.stdout)
    validate(payload, "error")
    assert payload == {"error": "rank_too_large", "n": 40, "limit": 20}


def test_a_reader_closing_stdout_early_gets_no_traceback():
    # the child blocks on a full pipe until the reader closes it after ten
    # bytes, as `parhiggs characters ... | head -c 10` does
    with subprocess.Popen(
            [sys.executable, "-m", "parhiggs.cli", "characters", "--g", "6",
             "--s", "2", "--enumerate"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                     PYTHONDONTWRITEBYTECODE="1")) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr and stderr == ""


def _limit_address_space():
    # a regression that materializes past the cap fails with MemoryError
    # instead of exhausting the host
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv,needed", [
    # SO0(2,3) at (12,12): 2^12 (2^35 - 1) nonzero-w1 pairs and
    # 2^12 * 69 degree classes
    (["components", "--group", "so0-23", "--g", "12", "--s", "12"],
     2 ** 12 * (2 ** 35 - 1) + 2 ** 12 * 69),
    # Sp(4,R) at (12,1): 2 (2^24 - 1) pairs, 2 * 23 degrees, 2^24 roots
    (["s1-report", "--group", "sp4", "--g", "12"],
     2 * (2 ** 24 - 1) + 2 * 23 + 2 ** 24),
], ids=["components-so0-23", "s1-report-sp4"])
def test_default_cap_refuses_large_counts_promptly(argv, needed):
    proc = subprocess.run(
        [sys.executable, "-m", "parhiggs.cli", *argv],
        capture_output=True, text=True, timeout=30,
        preexec_fn=_limit_address_space,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                 PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 2, proc.stderr
    payload = json.loads(proc.stdout)
    validate(payload, "error")
    assert payload == {"error": "enumeration_cap_exceeded",
                       "needed": needed, "cap": DEFAULT_CAP}


def test_s1_report_honours_cap_flag(capsys):
    code, payload = run_json(
        capsys, ["s1-report", "--group", "sp4", "--g", "2", "--cap", "10"])
    assert code == 2
    assert payload == {"error": "enumeration_cap_exceeded",
                       "needed": 52, "cap": 10}


# --------------------------------------------------------------------------
# console-script wiring


# The launcher pip writes for a console script (distlib's template).
LAUNCHER_TEMPLATE = """\
#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def test_console_script_is_installed_and_runs(tmp_path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    scripts = pyproject["project"]["scripts"]
    ep = EntryPoint(name="parhiggs", value=scripts["parhiggs"],
                    group="console_scripts")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "parhiggs"
    launcher.write_text(LAUNCHER_TEMPLATE.format(
        python=sys.executable, module=ep.module,
        import_name=ep.attr.split(".")[0], func=ep.attr))
    launcher.chmod(0o755)
    env = dict(os.environ,
               PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
               PYTHONPATH=str(REPO_ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(["parhiggs", "characters", "--g", "1", "--s", "3"],
                          capture_output=True, text=True, timeout=60,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"count": 16}
