"""Every command line ends, in bounded time, in one schema-valid JSON object.

Hypothesis draws argvs for every subcommand from the options its argparse
definition in ``cli._COMMANDS`` adds: ints from -2 to 64, small JSON
documents (at most 8 summands) and mutated or truncated ones, comma lists
of ints, group and catalog names, with ``--format json`` and a ``--cap``
from 1 to 10^4.  Each argv runs in-process under a 5 s alarm, so an
enumeration that the cap does not bound fails the test instead of hanging
it.  It must exit 0 or 2 and print one JSON object valid against the
subcommand's schema, or against the error schema on exit 2.
"""

import argparse
import contextlib
import io
import json
import signal
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from parhiggs.cli import _COMMANDS, main
from parhiggs.codec import to_json
from parhiggs.parbun import ParabolicBundle, ParabolicFlag, ParabolicLineBundle
from parhiggs.stability import hitchin_model, hitchin_sp_triple
from test_codec import check_schema

ALARM_S = 5


class Overrun(Exception):
    """The alarm went off while an argv ran."""


def _overrun(signum, frame):
    raise Overrun


def run_bounded(argv: list[str]) -> tuple[int, str]:
    """main(argv) in-process: its exit code and stdout, or Overrun once it
    has run for ALARM_S seconds."""
    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue()


# ---------------------------------------------------------- strategies ----

SMALL_INTS = st.one_of(st.integers(-2, 4), st.integers(-2, 64))
INT_LISTS = st.one_of(
    st.lists(st.one_of(st.just(2), SMALL_INTS), max_size=8).map(
        lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", ",", "2,", "1,x", "2 ,3", "1.5", "-0"]))
NAMES = st.sampled_from(
    ["sp2", "sp4", "sp6", "sp3", "sp2n", "su", "so-star", "so0-23", "so0-2n",
     "e7", "split:SL(3,R)", "split:Sp(4,R)", "split:x", "SL(3,R)", "Sp(4,R)",
     "SO(3,2)", "SO(4,4)", "SL(2,C)", "full", "trivial", "junk", ""])

# the JSON options, each with documents of its own type; any option may
# also be given another's
DOCS = {
    "--line": [to_json(ParabolicLineBundle(d, {"x1": "1/2"})) for d in (-1, 2)],
    "--bundle": [to_json(ParabolicBundle(
        2, 1, {"x1": ParabolicFlag((1, 1), ("1/4", "3/4"))}))],
    "--model": [to_json(hitchin_model(k, g, s))
                for k in range(2, 9) for g, s in ((2, 1), (0, 3))],
    "--triple": [to_json(hitchin_sp_triple(k, 2, 1)) for k in (2, 4, 6, 8)],
    "--flags": [[[1, 1], [2]], [[2]], [[1, 1]]],
}
ANY_DOC = st.sampled_from([doc for docs in DOCS.values() for doc in docs])
LEAVES = st.one_of(st.integers(-2, 64),
                   st.sampled_from(["1/2", "0", "-1/3", "x", "", 1.5, True, None,
                                    [], {}, [0, 1], {"x1": "1/2"}]))


def _paths(doc, path=()):
    """The path of every value inside doc, outermost first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replaced(doc, path, leaf):
    """doc with the value at path replaced by leaf, or its key dropped when
    leaf is None and the value sits in an object."""
    if not path:
        return leaf
    key, rest = path[0], path[1:]
    if isinstance(doc, dict):
        out = dict(doc)
        if rest or leaf is not None:
            out[key] = _replaced(doc[key], rest, leaf)
        else:
            del out[key]
        return out
    out = list(doc)
    out[key] = _replaced(doc[key], rest, leaf)
    return out


@st.composite
def json_texts(draw, docs):
    doc = draw(st.one_of(st.sampled_from(docs), ANY_DOC))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _replaced(doc, path, draw(LEAVES))
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


# the text options that are no JSON document
TEXTS = {"--orders": INT_LISTS, "--isotropy": INT_LISTS, "--group": NAMES,
         "--lie-group": NAMES, "--name": NAMES}


def _options(command: str) -> list[argparse.Action]:
    parser = argparse.ArgumentParser(add_help=False)
    _COMMANDS[command][1](parser)
    return parser._actions


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for action in _options(command):
        if not (action.required or draw(st.booleans())):
            continue
        option = action.option_strings[0]
        if action.nargs == 0:
            argv.append(option)
        elif action.choices is not None:
            argv += [option, draw(st.sampled_from(sorted(action.choices)))]
        else:
            value = SMALL_INTS.map(str) if action.type is int else \
                TEXTS[option] if option in TEXTS else json_texts(DOCS[option])
            argv += [option, draw(value)]
    cap = draw(st.integers(1, 10 ** 4))
    return argv + ["--format", "json", "--cap", str(cap)]


# ---------------------------------------------------------------- tests ----

@settings(max_examples=800, deadline=None)
@given(argv=argvs())
def test_every_argv_ends_in_one_schema_valid_object(argv):
    code, out = run_bounded(argv)
    assert code in (0, 2)
    payload, end = json.JSONDecoder().raw_decode(out)
    assert type(payload) is dict
    rest = out[end:]
    # components --emit-tables follows its object with the Markdown tables
    if code == 0 and "--emit-tables" in argv:
        assert rest.startswith("\n\n# ")
    else:
        assert rest == "\n"
    check_schema(payload, "error" if code == 2 else argv[0].replace("-", "_"))


def test_orbifold_counts_square_roots_without_building_them():
    # 2^59 types times 2^4 torsion choices: building the types would not end
    argv = ["orbifold", "--g", "2", "--s", "60", "--desing-degree", "0"]
    code, out = run_bounded(argv)
    assert code == 0
    assert json.loads(out)["square_root_total"] == 2 ** 63
    assert min(_seconds(argv) for _ in range(3)) < 0.1


def _seconds(argv: list[str]) -> float:
    start = time.perf_counter()
    run_bounded(argv)
    return time.perf_counter() - start
