"""Command-line front end: every calculator behind one deterministic binary.

Subcommands: pardeg, stability, toledo, mw, hitchin, components, tables,
dims, vcoh, orbifold, characters, roots, s1-report.  Output is JSON by
default (Markdown for ``tables``), switchable with ``--format``; identical
inputs produce byte-identical output.  Validation failures exit with code 2
and a machine-readable error object ({"error": code, ...}) on stdout.  The
enumeration cap (default 10^6 tuples) can be overridden with ``--cap`` or
the ``PARHIGGS_CAP`` environment variable.

Start-up is lazy: each handler imports its calculator module when it runs,
and the parser gives arguments only to the subcommand being run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .codec import JsonShapeError, from_json, to_json
from .exact_core import DomainError
from .surface import (
    MarkedPoint,
    MarkedSurface,
    require_hyperbolic,
    standard_surface,
)

if TYPE_CHECKING:
    from .components import ComponentCountReport, GroupDescriptor
    from .orbifold import VLineBundle

__all__ = ["main"]

DEFAULT_CAP = 10 ** 6


@dataclass(frozen=True)
class CommandOutput:
    """A handler's result; markdown and csv render on demand, so only the
    format asked for is built."""
    payload: dict
    markdown: Callable[[], str] | None = None
    csv: Callable[[], str] | None = None
    trailer: str | None = None
    default_format: str = "json"


# --------------------------------------------------------------------------
# serialization helpers


def _dump(payload: dict) -> str:
    return json.dumps(to_json(payload), sort_keys=True, indent=2)


def _inline(value) -> str:
    converted = to_json(value)
    if isinstance(converted, str):
        return converted
    return json.dumps(converted, sort_keys=True, separators=(",", ":"))


def _generic_markdown(payload: dict) -> str:
    lines = ["| field | value |", "| --- | --- |"]
    for key in sorted(payload):
        lines.append(f"| {key} | {_inline(payload[key])} |")
    return "\n".join(lines)


def _csv(rows) -> str:
    import csv
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().rstrip("\n")


def _generic_csv(payload: dict) -> str:
    return _csv([["field", "value"],
                 *([key, _inline(payload[key])] for key in sorted(payload))])


# --------------------------------------------------------------------------
# argument helpers


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated integers given to --what."""
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise DomainError("bad_integer_list", field=what, value=text) from None


def _build_surface(g: int, s: int, orders_text: str | None) -> MarkedSurface:
    points = standard_surface(0, s).points  # refuses s < 0
    if orders_text is not None:
        orders = _parse_ints(orders_text, "orders")
        if len(orders) != s:
            raise DomainError("orders_length_mismatch", expected=s,
                              got=len(orders))
        points = tuple(MarkedPoint(p.label, k) for p, k in zip(points, orders))
    surface = MarkedSurface(g, points)
    # the library oracles accept spherical input; the CLI sticks to the
    # hyperbolic range every downstream formula is stated for
    require_hyperbolic(surface)
    return surface


def _load_json(text: str, what: str, cls):
    """The --what argument read as an instance of cls."""
    try:
        return from_json(cls, json.loads(text))
    except (json.JSONDecodeError, JsonShapeError) as exc:
        raise DomainError("bad_json_argument", field=what,
                          detail=str(exc)) from exc


_SP_NAME = re.compile(r"^sp(\d+)$")

# --mode -> the CountMode's (variant, parity)
_MODES = {
    "max": ("max_union", None),
    "fixed-even": ("max_fixed_alpha", "even"),
    "fixed-odd": ("max_fixed_alpha", "odd"),
    "punctured": ("punctured", None),
    "nonparabolic": ("nonparabolic_s1", None),
    "kd-twisted": ("nonparabolic_kd_twisted_s1", None),
}


# the spellings that read their family parameter from --n, and the
# components function building each family
_FAMILIES_WITH_N = {"sp2n": "sp2nr", "su": "sunn",
                    "so-star": "so_star_2n", "sostar": "so_star_2n",
                    "so0-2n": "so0_2n", "so02n": "so0_2n"}


def _parse_group(name: str, n: int | None) -> GroupDescriptor:
    from . import components as comp
    text = name.lower()
    match = _SP_NAME.match(text)
    if match:
        value = int(match.group(1))
        if value % 2 != 0 or value < 2:
            raise DomainError("unknown_group", name=name)
        return comp.sp2nr(value // 2)
    family = _FAMILIES_WITH_N.get(text)
    if family is not None:
        if n is None:
            raise DomainError("group_needs_n", name=name)
        return getattr(comp, family)(n)
    if text in ("so0-23", "so023"):
        return comp.so0_2n(3)
    if text == "e7":
        return comp.e7_minus25()
    if name.startswith("split:"):
        return comp.split_group(name.split(":", 1)[1])
    raise DomainError("unknown_group", name=name)


def _resolve_cap(args) -> int:
    if args.cap is not None:
        cap = args.cap
    else:
        text = os.environ.get("PARHIGGS_CAP", str(DEFAULT_CAP))
        try:
            cap = int(text)
        except ValueError:
            raise DomainError("bad_cap", cap=text) from None
    if cap <= 0:
        raise DomainError("bad_cap", cap=cap)
    return cap


# --------------------------------------------------------------------------
# subcommand handlers


def _cmd_pardeg(args, cap) -> CommandOutput:
    from .parbun import ParabolicBundle, ParabolicLineBundle, pardeg, parslope
    surface = _build_surface(args.g, args.s, args.orders)
    if (args.line is None) == (args.bundle is None):
        raise DomainError("need_exactly_one_of", fields=["line", "bundle"])
    if args.line is not None:
        line = _load_json(args.line, "line", ParabolicLineBundle)
        return CommandOutput({"pardeg": pardeg(line, surface)})
    bundle = _load_json(args.bundle, "bundle", ParabolicBundle)
    return CommandOutput({"pardeg": pardeg(bundle, surface),
                          "parslope": parslope(bundle, surface),
                          "rank": bundle.rank})


def _cmd_stability(args, cap) -> CommandOutput:
    from .stability import (DecomposableHiggsModel, SpTripleModel,
                            arrow_feasibility_violations, stability_verdict)
    if (args.model is None) == (args.triple is None):
        raise DomainError("need_exactly_one_of", fields=["model", "triple"])
    if args.model is not None:
        model = _load_json(args.model, "model", DecomposableHiggsModel)
    else:
        triple = _load_json(args.triple, "triple", SpTripleModel)
        model = triple.to_decomposable()
    return CommandOutput(dict(
        to_json(stability_verdict(model)),
        feasibility_violations=arrow_feasibility_violations(model)))


def _cmd_toledo(args, cap) -> CommandOutput:
    from .stability import SpTripleModel, is_maximal, milnor_wood_bound, toledo
    triple = _load_json(args.triple, "triple", SpTripleModel)
    surface = triple.surface
    bound = milnor_wood_bound(triple.n, surface.genus, surface.s)
    return CommandOutput({"toledo": toledo(triple), "bound": bound,
                          "is_maximal": is_maximal(triple), "n": triple.n})


def _cmd_mw(args, cap) -> CommandOutput:
    from .stability import general_mw_interval, milnor_wood_bound
    payload = {"bound": milnor_wood_bound(args.n, args.g, args.s)}
    if (args.rk_plus is None) != (args.rk_minus is None):
        raise DomainError("need_both_or_neither",
                          fields=["rk-plus", "rk-minus"])
    if args.rk_plus is not None:
        lower, upper = general_mw_interval(args.rk_plus, args.rk_minus,
                                           args.g, args.s)
        payload["interval"] = {"lower": lower, "upper": upper}
    return CommandOutput(payload)


def _cmd_hitchin(args, cap) -> CommandOutput:
    from .stability import (hitchin_model, hitchin_sp_triple, is_maximal,
                            milnor_wood_bound, stability_verdict, toledo)
    model = hitchin_model(args.k, args.g, args.s)
    report = stability_verdict(model)
    pds = model.pardegs()
    payload = {
        "model": model,
        "pardegs": pds,
        "total_pardeg": sum(pds, Fraction(0)),
        "verdict": report.verdict,
    }
    if args.triple:
        triple = hitchin_sp_triple(args.k, args.g, args.s)
        payload["sp_triple"] = triple
        payload["toledo"] = toledo(triple)
        payload["bound"] = milnor_wood_bound(triple.n, args.g, args.s)
        payload["is_maximal"] = is_maximal(triple)
    return CommandOutput(payload)


def _components_markdown(report: ComponentCountReport) -> str:
    lines = [f"## {report.group.display()}, genus {report.genus}, "
             f"marked points {report.marked_points}, "
             f"mode {report.mode.variant}"
             + (f" ({report.mode.parity})" if report.mode.parity else ""),
             "",
             "| case | enumerated | closed form |",
             "| --- | --- | --- |"]
    for case in report.cases:
        lines.append(f"| {case.label} | {case.enumerated} | "
                     f"{case.closed_form} |")
    lines.append(f"| total ({report.count_kind}) | "
                 f"{report.total_enumerated} | {report.total_closed_form} |")
    lines.append("")
    lines.append(f"match: {str(report.match).lower()}")
    if report.verdict:
        lines.append(f"verdict: {report.verdict}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _components_csv(report: ComponentCountReport) -> str:
    return _csv([["case", "enumerated", "closed_form"],
                 *([case.label, case.enumerated, case.closed_form]
                   for case in report.cases),
                 ["total", report.total_enumerated, report.total_closed_form]])


def _cmd_components(args, cap) -> CommandOutput:
    from . import components as comp
    group = _parse_group(args.group, args.n)
    mode = comp.CountMode(*_MODES[args.mode])
    report = comp.count_components(group, args.g, args.s, mode, cap=cap)
    trailer = None
    if args.emit_tables:
        trailer = comp.tables_markdown(comp.emit_tables(args.g, args.s),
                                       args.g, args.s)
    return CommandOutput(to_json(report),
                         markdown=lambda: _components_markdown(report),
                         csv=lambda: _components_csv(report),
                         trailer=trailer)


def _tables_csv(tables) -> str:
    return _csv([["table", "label", "count", "teichmuller"],
                 *([index, row.label, row.count, row.teichmuller]
                   for index, table in enumerate(tables, start=1)
                   for row in table.rows)])


def _cmd_tables(args, cap) -> CommandOutput:
    from .components import emit_tables, tables_markdown
    tables = emit_tables(args.g, args.s)
    return CommandOutput({"tables": tables, "genus": args.g,
                          "marked_points": args.s},
                         markdown=lambda: tables_markdown(tables, args.g,
                                                          args.s),
                         csv=lambda: _tables_csv(tables),
                         default_format="markdown")


def _parse_flag_spec(text: str, n: int, s: int):
    from . import dimension as dim
    if text == "full":
        return dim.full_flag_multiplicities(n, s)
    if text == "trivial":
        return ((n,),) * s
    return _load_json(text, "flags", tuple[tuple[int, ...], ...])


_DIMS_REQUIRED = {"paradim": "n", "sparadim": "n", "complex": "dim_c",
                  "teich": "lie_group"}


def _cmd_dims(args, cap) -> CommandOutput:
    from . import dimension as dim
    needed = _DIMS_REQUIRED[args.formula]
    if getattr(args, needed) is None:
        raise DomainError("missing_argument",
                          field=needed.replace("_", "-"),
                          formula=args.formula)
    if args.formula == "paradim":
        value = dim.dim_parabolic_gl(args.n, args.g, args.s)
        return CommandOutput({"formula": "paradim", "dimension": value})
    if args.formula == "sparadim":
        mults = _parse_flag_spec(args.flags, args.n, args.s)
        value = dim.dim_strongly_parabolic_gl(args.n, args.g, args.s, mults)
        return CommandOutput({"formula": "sparadim", "dimension": value})
    if args.formula == "complex":
        data = dim.complex_group_data(args.name, args.dim_c)
        report = dim.dim_complex_group(data, args.g, args.s)
        payload = dict(to_json(report), formula="complex", group=data.name)
        return CommandOutput(payload)
    data = dim.lie_catalog(args.lie_group)
    report = dim.teichmuller_dimension(data, args.g, args.s,
                                       rk_m_c=args.rk_mc)
    payload = dict(to_json(report), formula="teich", group=data.name)
    return CommandOutput(payload)


def _cmd_vcoh(args, cap) -> CommandOutput:
    from .vcoh import v_cohomology_ranks
    require_hyperbolic(standard_surface(args.g, args.s))
    ranks, provenance = v_cohomology_ranks(args.g, args.s, args.mode)
    return CommandOutput({"h0": ranks.h0, "h1": ranks.h1, "h2": ranks.h2,
                          "euler": ranks.euler(), "mode": args.mode,
                          "provenance": provenance})


def _vline_from_args(args, surface) -> VLineBundle:
    from .orbifold import VLineBundle
    bits = _parse_ints(args.isotropy, "isotropy") \
        if args.isotropy else (0,) * surface.s
    if len(bits) != surface.s:
        raise DomainError("bits_length_mismatch", field="isotropy",
                          expected=surface.s, got=len(bits))
    isotropy = {label: bit for label, bit in zip(surface.labels(), bits)}
    return VLineBundle(args.desing_degree, isotropy)


def _cmd_orbifold(args, cap) -> CommandOutput:
    from .orbifold import (kawasaki_euler, pic_v_structure, square_root_types,
                           vline_degree)
    surface = _build_surface(args.g, args.s, args.orders)
    vline = _vline_from_args(args, surface)
    payload = {
        "degree": vline_degree(vline, surface),
        "kawasaki_euler": kawasaki_euler(vline, surface),
        "pic_identity_component":
            pic_v_structure(surface).identity_component_label(),
    }
    try:
        payload["square_root_total"] = square_root_types(
            vline, surface).total
    except DomainError:
        payload["square_root_total"] = None
    return CommandOutput(payload)


def _cmd_characters(args, cap) -> CommandOutput:
    from .orbifold import z2_character_count, z2_character_enumerate
    surface = _build_surface(args.g, args.s, args.orders)
    payload = {"count": z2_character_count(surface)}
    if args.enumerate:
        payload["characters"] = z2_character_enumerate(surface, cap=cap)
    return CommandOutput(payload)


def _cmd_roots(args, cap) -> CommandOutput:
    from .orbifold import square_root_types
    surface = _build_surface(args.g, args.s, args.orders)
    vline = _vline_from_args(args, surface)
    family = square_root_types(vline, surface)
    return CommandOutput({
        "types": family.types,
        "type_count": len(family.types),
        "torsion_multiplicity": family.torsion_multiplicity,
        "total": family.total,
    })


def _cmd_s1_report(args, cap) -> CommandOutput:
    from .components import s1_reduction_report
    group = _parse_group(args.group, args.n)
    report = s1_reduction_report(group, args.g, cap=cap)
    return CommandOutput(to_json(report))


# --------------------------------------------------------------------------
# parser


def _add_surface_flags(sub, with_orders=True):
    sub.add_argument("--g", type=int, required=True, help="genus")
    sub.add_argument("--s", type=int, required=True,
                     help="number of marked points")
    if with_orders:
        sub.add_argument("--orders", help="comma-separated isotropy orders "
                                          "(default: all 2)")


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as an error object, not usage text."""

    def error(self, message):
        raise DomainError("bad_argument", detail=message)


def _pardeg_args(sub):
    _add_surface_flags(sub)
    sub.add_argument("--line", help="parabolic line bundle JSON")
    sub.add_argument("--bundle", help="parabolic bundle JSON")


def _stability_args(sub):
    sub.add_argument("--model", help="decomposable model JSON")
    sub.add_argument("--triple", help="Sp(2n,R) triple JSON")


def _toledo_args(sub):
    sub.add_argument("--triple", required=True, help="Sp(2n,R) triple JSON")


def _mw_args(sub):
    sub.add_argument("--n", type=int, required=True)
    _add_surface_flags(sub, with_orders=False)
    sub.add_argument("--rk-plus", type=int, dest="rk_plus")
    sub.add_argument("--rk-minus", type=int, dest="rk_minus")


def _hitchin_args(sub):
    sub.add_argument("--k", type=int, required=True)
    _add_surface_flags(sub, with_orders=False)
    sub.add_argument("--triple", action="store_true",
                     help="include the Sp form (k even)")


def _components_args(sub):
    sub.add_argument("--group", required=True,
                     help="sp2|sp4|sp2n|su|so-star|so0-23|so0-2n|e7|split:NAME")
    sub.add_argument("--n", type=int, help="family parameter where needed")
    _add_surface_flags(sub, with_orders=False)
    sub.add_argument("--mode", choices=sorted(_MODES), default="max")
    sub.add_argument("--emit-tables", action="store_true", dest="emit_tables",
                     help="append the three Markdown tables")


def _tables_args(sub):
    _add_surface_flags(sub, with_orders=False)


def _dims_args(sub):
    sub.add_argument("--formula", required=True,
                     choices=("paradim", "sparadim", "complex", "teich"))
    sub.add_argument("--n", type=int, help="rank for paradim/sparadim")
    _add_surface_flags(sub, with_orders=False)
    sub.add_argument("--flags", default="full",
                     help="'full', 'trivial', or JSON multiplicities")
    sub.add_argument("--dim-c", type=int, dest="dim_c",
                     help="complex dimension for --formula complex")
    sub.add_argument("--name", default="complex group",
                     help="group name for --formula complex")
    sub.add_argument("--lie-group", dest="lie_group",
                     help="catalog name for --formula teich")
    sub.add_argument("--rk-mc", type=int, dest="rk_mc",
                     help="rank of E(m^C) for the statement reading")


def _vcoh_args(sub):
    _add_surface_flags(sub, with_orders=False)
    sub.add_argument("--mode", default="order2",
                     choices=("order2", "punctured", "odd_order"))


def _vline_args(sub):
    _add_surface_flags(sub)
    sub.add_argument("--desing-degree", type=int, required=True,
                     dest="desing_degree")
    sub.add_argument("--isotropy", help="comma-separated residues")


def _characters_args(sub):
    _add_surface_flags(sub)
    sub.add_argument("--enumerate", action="store_true")


def _s1_report_args(sub):
    sub.add_argument("--group", required=True)
    sub.add_argument("--n", type=int)
    sub.add_argument("--g", type=int, required=True)


# name -> (help line, the function adding its arguments, handler), in the
# order of the top-level help
_COMMANDS = {
    "pardeg": ("parabolic degree of a line/bundle", _pardeg_args, _cmd_pardeg),
    "stability": ("stability verdict for a model", _stability_args,
                  _cmd_stability),
    "toledo": ("Toledo invariant of a triple", _toledo_args, _cmd_toledo),
    "mw": ("Milnor-Wood bound (and interval)", _mw_args, _cmd_mw),
    "hitchin": ("Hitchin-section model at rank k", _hitchin_args,
                _cmd_hitchin),
    "components": ("connected-component counts", _components_args,
                   _cmd_components),
    "tables": ("instantiate the component tables", _tables_args, _cmd_tables),
    "dims": ("moduli dimension formulas", _dims_args, _cmd_dims),
    "vcoh": ("V-surface cohomology ranks", _vcoh_args, _cmd_vcoh),
    "orbifold": ("line V-bundle invariants", _vline_args, _cmd_orbifold),
    "characters": ("Z2 character counts", _characters_args, _cmd_characters),
    "roots": ("square-root types of a V-bundle", _vline_args, _cmd_roots),
    "s1-report": ("single-puncture reduction", _s1_report_args,
                  _cmd_s1_report),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv.  Every subcommand is registered, so the
    top-level help and the choices are complete, but only the one argv
    names gets its arguments.  That is the first argument naming a
    subcommand: no earlier argument can be the subcommand argparse picks,
    as the top level takes no option with a value."""
    parser = _Parser(
        prog="parhiggs",
        description="Exact invariants of parabolic G-Higgs bundle moduli.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "markdown", "csv"),
                        help="output format (default json; markdown for "
                             "'tables')")
    common.add_argument("--cap", type=int,
                        help=f"enumeration cap (default {DEFAULT_CAP}, or "
                             "PARHIGGS_CAP)")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=lambda **kw: _Parser(
                                     parents=[common], **kw))
    named = next((arg for arg in argv if arg in _COMMANDS), None)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_line)
        if name == named:
            add_arguments(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
        cap = _resolve_cap(args)
        output = _COMMANDS[args.command][2](args, cap)
    except SystemExit as exc:      # --help
        return int(exc.code) if exc.code else 0
    except DomainError as err:
        print(_dump(err.payload()))
        return 2

    fmt = args.format or output.default_format
    if fmt == "json":
        text = _dump(output.payload)
    elif fmt == "markdown":
        text = output.markdown() if output.markdown is not None \
            else _generic_markdown(output.payload)
    else:
        text = output.csv() if output.csv is not None \
            else _generic_csv(output.payload)
    print(text)
    if output.trailer is not None:
        print()
        print(output.trailer)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
