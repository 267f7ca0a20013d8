"""The JSON form of every payload and every JSON input.

Writing: a Fraction becomes "p/q" (or "n"), a set a sorted list, a tuple or
list a list, a mapping a dict (each writer sorts its keys), and a value class
(``exact_core.frozen_value``) its fields, six of them under a shorter key
(``_KEYS``).  A class whose JSON shape its fields cannot give reshapes that
object in its own ``_json_shape(obj)`` method.

Reading is driven by the value class's field types and refuses what JSON
would only coerce: integers must be JSON integers, strings JSON strings,
rationals "p/q" strings or integers.  A key may be missing only where its
field has a default in ``_value_fields``; unknown keys are refused.  Each
type has one reader, built once.  Every JSON object is read by one
generated, straight-line function (``object_reader``), as ``frozen_value``
generates its ``__init__``: a value class's reader is that function over its fields,
and a caller with its own object shape, such as the Laurent-matrix JSON of
``orbifold``, declares the shape's fields to it.

A value class with a ``_rules`` method (each one the CLI reads from JSON)
is built from the fields, each already of its declared type, by its
store-only ``_store`` (``exact_core.frozen_value``); its ``_rules()`` then
checks what that type cannot say (ranges, cross-field rules) and fills its
kept values.  Its constructor runs its type rules and the same ``_rules``,
so JSON input is type-checked once and each rule is called from one place.
Any other value class's reader ends in its constructor.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from types import FunctionType, UnionType
from typing import get_args, get_origin, get_type_hints

from .exact_core import REQUIRED, DomainError, rat_from_str

__all__ = ["JsonShapeError", "to_json", "from_json", "decoder", "object_reader"]

# field name -> JSON key, where they differ
_KEYS = {"weight_at": "weights", "flag_at": "flags", "multiplicities": "mult",
         "desing_degree": "desing", "beta_arrows": "beta",
         "gamma_arrows": "gamma"}


class JsonShapeError(DomainError):
    """JSON input without the shape of the type it is read as; ``at`` is the
    path of keys to the offending value, e.g. ``$.v_summands.degree``."""

    def __init__(self, expected: str, keys: tuple[str, ...] = ()):
        self.expected, self.keys = expected, keys
        super().__init__("bad_json", at="".join(["$", *(f".{k}" for k in keys)]),
                         expected=expected)


# ------------------------------------------------------------- writing ----

def to_json(value):
    """The JSON value of ``value`` (ints, strings, booleans and None as is)."""
    if isinstance(value, Fraction):
        return str(value)  # "p/q", or "n" when the denominator is 1
    if isinstance(value, (set, frozenset)):
        return [to_json(v) for v in sorted(value)]
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, Mapping):
        return {k: to_json(v) for k, v in value.items()}
    if hasattr(value, "_value_fields"):
        return _value_json(value)
    return value


@cache
def _writer(cls: type) -> tuple[tuple[tuple[str, str], ...], bool]:
    """A value class's (field, JSON key) pairs; whether it has _json_shape."""
    keys = tuple((name, _KEYS.get(name, name)) for name, _ in cls._value_fields)
    return keys, hasattr(cls, "_json_shape")


def _value_json(value) -> dict:
    keys, reshaped = _writer(type(value))
    obj = {key: to_json(getattr(value, name)) for name, key in keys}
    return value._json_shape(obj) if reshaped else obj


# ------------------------------------------------------------- reading ----

def from_json(cls, obj):
    """Read the JSON value ``obj`` as an instance of the type ``cls``."""
    return decoder(cls)(obj)


def _exactly(tp: type, expected: str):
    """A reader passing on values of exactly this type (so a bool is not an
    int)."""
    def read(obj):
        if type(obj) is not tp:
            raise JsonShapeError(expected)
        return obj
    return read


def _rational(obj) -> Fraction:
    if type(obj) is not str and type(obj) is not int:
        raise JsonShapeError('a rational "p/q"')
    return rat_from_str(obj)


# a field of these types (and of Fraction) is checked in place by
# object_reader's generated function
_INLINE = {int: "an integer", str: "a string"}
_SCALARS = {tp: _exactly(tp, expected) for tp, expected in _INLINE.items()}
_SCALARS[Fraction] = _rational
_list, _object = _exactly(list, "a list"), _exactly(dict, "an object")


@cache
def decoder(tp):
    """The reader of one type, built once per type: ``decoder(tp)(obj)`` is
    ``from_json(tp, obj)``, for callers that read many values of one type."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    if hasattr(tp, "_value_fields"):  # each field under its JSON key
        hints = get_type_hints(tp)
        rules = hasattr(tp, "_rules")
        return object_reader([(_KEYS.get(name, name), hints[name], default)
                              for name, default in tp._value_fields],
                             tp._store if rules else tp, rules)
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType and len(args) == 2 and args[1] is type(None):
        inner = decoder(args[0])
        return lambda obj: None if obj is None else inner(obj)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = decoder(args[0])
        return lambda obj: tuple([item(x) for x in _list(obj)])
    if origin is tuple and set(args) == {int}:
        size, expected = len(args), f"a list of {len(args)}"

        def ints(obj):
            if type(obj) is not list or len(obj) != size:
                raise JsonShapeError(expected)
            for x in obj:
                if type(x) is not int:
                    raise JsonShapeError("an integer")
            return tuple(obj)
        return ints
    if origin is frozenset:
        item = decoder(args[0])
        return lambda obj: frozenset([item(x) for x in _list(obj)])
    if origin is Mapping and args[0] is str:
        value = decoder(args[1])
        return lambda obj: {k: value(v) for k, v in _object(obj).items()}
    raise TypeError(f"no JSON form for {tp!r}")


def object_reader(fields, build=None, rules=False):
    """A reader of one JSON object shape, generated as one function.

    ``fields`` lists (JSON key, type or reader, default) in read order, the
    default ``REQUIRED`` where the key must be given; a reader is a function,
    anything else a type.  An int, str or Fraction field is checked in
    place; any other field goes to its reader, and a refusal there gets the
    key prefixed to its path.  A missing key with a default takes the
    default; one without is refused.  Unknown keys are refused after every
    field is read; the values are then passed to ``build`` as positional
    arguments, or returned as a tuple when ``build`` is None.  With
    ``rules``, the built value's ``_rules()`` is called before it is
    returned.
    """
    env = {"_build": build, "_Err": JsonShapeError, "_rat": rat_from_str}
    body = ["if type(obj) is not dict:", "    raise _Err('an object')",
            f"n = {sum(d is REQUIRED for _, _, d in fields)}"]
    for i, (key, tp, default) in enumerate(fields):
        v = f"v{i}"
        if tp is Fraction:
            check = [f"if type({v}) is str or type({v}) is int:",
                     f"    {v} = _rat({v})", "else:",
                     f"    raise _Err('a rational \"p/q\"', ({key!r},))"]
        elif tp in _INLINE:
            check = [f"if type({v}) is not {tp.__name__}:",
                     f"    raise _Err({_INLINE[tp]!r}, ({key!r},))"]
        else:
            env[f"_r{i}"] = tp if isinstance(tp, FunctionType) else decoder(tp)
            check = ["try:", f"    {v} = _r{i}({v})", "except _Err as err:",
                     f"    raise _Err(err.expected, ({key!r},) + err.keys) from None"]
        body += ["try:", f"    {v} = obj[{key!r}]", "except KeyError:"]
        if default is REQUIRED:
            body.append(f"    raise _Err({f'an object with key {key!r}'!r}) from None")
            body += check
        else:
            env[f"_d{i}"] = default
            body += [f"    {v} = _d{i}", "else:", "    n += 1"]
            body += ["    " + line for line in check]
    known = "an object with keys among " + ", ".join(sorted(k for k, _, _ in fields))
    values = ", ".join(f"v{i}" for i in range(len(fields)))
    body += ["if n != len(obj):", f"    raise _Err({known!r})"]
    if rules:
        body += [f"value = _build({values})", "value._rules()", "return value"]
    else:
        body.append(f"return _build({values})" if build else f"return ({values},)")
    exec("def read(obj):\n" + "".join(f"    {line}\n" for line in body), env)
    return env["read"]
