"""The JSON form of every payload and every JSON input.

Writing: a Fraction becomes "p/q" (or "n"), a set a sorted list, a tuple or
list a list, a mapping a dict (each writer sorts its keys), and a value class
(``exact_core.frozen_value``) its fields, six of them under a shorter key
(``_KEYS``).  A class whose JSON shape its fields cannot give reshapes that
object in its own ``_json_shape(obj)`` method.

Reading is driven by the value class's field types and refuses what JSON
would only coerce: integers must be JSON integers, strings JSON strings,
rationals "p/q" strings or integers.  A key may be missing only where its
field has a class-level default; unknown keys are refused.  Each type has
one reader, built once: a value class's reader is generated from its fields
as one straight-line function (``_value_decoder``), as ``frozen_value``
generates its ``__init__``.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .exact_core import DomainError, rat_from_str

__all__ = ["JsonShapeError", "to_json", "from_json", "decoder"]

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


# a field of these types is checked in place by its class's generated reader
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
    if hasattr(tp, "_value_fields"):
        return _value_decoder(tp)
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


def _value_decoder(cls):
    """The reader of the value class ``cls``, generated as one function.

    It reads the fields in declaration order, each under its JSON key: an
    int or str field is checked in place, any other field goes to its own
    reader, and a refusal there gets the key prefixed to its path.  A
    missing key with a default takes the default; one without is refused.
    Unknown keys are refused after every field is read, and the constructor
    is then called with the fields as positional arguments.
    """
    hints = get_type_hints(cls)
    fields = cls._value_fields
    keys = [_KEYS.get(name, name) for name, _ in fields]
    env = {"_cls": cls, "_Err": JsonShapeError}
    env.update({f"_d_{name}": cls.__dict__[name]
                for name, required in fields if not required})
    body = ["    if type(obj) is not dict:\n",
            "        raise _Err('an object')\n",
            f"    n = {sum(required for _, required in fields)}\n"]
    for (name, required), key in zip(fields, keys):
        v, tp = f"v_{name}", hints[name]
        body.append(f"    if {key!r} in obj:\n        {v} = obj[{key!r}]\n")
        if tp in _INLINE:
            body.append(f"        if type({v}) is not {tp.__name__}:\n"
                        f"            raise _Err({_INLINE[tp]!r}, ({key!r},))\n")
        else:
            env[f"_r_{name}"] = decoder(tp)
            body.append(f"        try:\n            {v} = _r_{name}({v})\n"
                        "        except _Err as err:\n"
                        f"            raise _Err(err.expected, ({key!r},) + err.keys)"
                        " from None\n")
        if required:
            body.append("    else:\n"
                        f"        raise _Err({f'an object with key {key!r}'!r})\n")
        else:
            body.append(f"        n += 1\n    else:\n        {v} = _d_{name}\n")
    known = "an object with keys among " + ", ".join(sorted(keys))
    body.append(f"    if n != len(obj):\n        raise _Err({known!r})\n"
                f"    return _cls({', '.join(f'v_{name}' for name, _ in fields)})\n")
    exec(f"def read(obj):\n{''.join(body)}", env)
    return env["read"]
