"""Generic codec between dataclasses and the JSON records of the run store.

`to_record(obj)` turns a dataclass into JSON values: nested dataclasses become
dicts and tuples become lists. `from_record(cls, data)` inverts it from the
declared field types, and rejects a key that is not a field as `cls(**data)`
does. Each class's field plan is built once from its type hints; a list,
tuple or dict of plain JSON values (an embedding vector, say) is copied in
one call rather than walked item by item.

A class whose stored form is not just its fields defines `to_record(self)`
and the classmethod `from_record(cls, data)`, which the codec calls instead;
they can use `encode_fields`/`decode_fields` for the plain-field part.

`from_record` trusts the JSON types of its input: `check_record` and
`check_type` check input from outside the program (a config file, a metadata
sidecar, a run manifest) first.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from typing import Any, Callable

from .errors import ClaimcheckError

Codec = tuple[Callable[[Any], Any], Callable[[Any], Any]]

_PLAIN = (str, int, float, bool, type(None), Any)


def _same(value: Any) -> Any:
    return value


def to_record(obj: Any) -> Any:
    return _codec(type(obj))[0](obj)


def from_record(cls: type, data: Any) -> Any:
    return _codec(cls)[1](data)


def encode_fields(obj: Any) -> dict[str, Any]:
    return {name: encode(getattr(obj, name))
            for name, (encode, _) in _plan(type(obj)).items()}


def decode_fields(cls: type, data: dict[str, Any]) -> Any:
    fields = dict(data)
    for name, decode in _decoders(cls).items():
        if name in fields:
            fields[name] = decode(fields[name])
    return cls(**fields)


_hints = functools.cache(typing.get_type_hints)


@functools.cache
def _plan(cls: type) -> dict[str, Codec]:
    hints = _hints(cls)
    return {f.name: _codec(hints[f.name]) for f in dataclasses.fields(cls)}


@functools.cache
def _decoders(cls: type) -> dict[str, Callable[[Any], Any]]:
    """The field decoders of `cls` that are not the identity."""
    return {name: decode for name, (_, decode) in _plan(cls).items()
            if decode is not _same}


@functools.cache
def _codec(tp: Any) -> Codec:
    if tp in _PLAIN:
        return _same, _same
    if dataclasses.is_dataclass(tp):
        return (getattr(tp, "to_record", encode_fields),
                getattr(tp, "from_record", functools.partial(decode_fields, tp)))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return _union_codec(args)
    if origin is dict:
        encode, decode = _codec(args[1])
        if encode is decode is _same:
            return dict, dict
        return (lambda value: {k: encode(v) for k, v in value.items()},
                lambda data: {k: decode(v) for k, v in data.items()})
    if origin is tuple and args[-1] is not Ellipsis:
        codecs = [_codec(arg) for arg in args]
        if all(encode is decode is _same for encode, decode in codecs):
            return list, tuple
        return (lambda value: [c[0](v) for c, v in zip(codecs, value)],
                lambda data: tuple(c[1](v) for c, v in zip(codecs, data)))
    if origin in (list, tuple):
        encode, decode = _codec(args[0])
        if encode is decode is _same:
            return list, origin
        return (lambda value: [encode(v) for v in value],
                lambda data: origin([decode(v) for v in data]))
    raise TypeError(f"no record codec for {tp!r}")


def _union_codec(args: tuple[Any, ...]) -> Codec:
    options = [arg for arg in args if arg is not type(None)]
    if len(options) == 1:  # X | None
        encode, decode = _codec(options[0])
        return (lambda value: None if value is None else encode(value),
                lambda data: None if data is None else decode(data))
    # Plain arms pass through; each other arm is chosen by the value's type
    # when writing and by the JSON container it comes back as when reading.
    encoders, decoders = {}, {}
    for arg in options:
        if arg not in _PLAIN:
            stored = dict if dataclasses.is_dataclass(arg) \
                or typing.get_origin(arg) is dict else list
            if stored in decoders:
                raise TypeError(f"ambiguous record union {args!r}")
            encoders[typing.get_origin(arg) or arg], decoders[stored] = \
                _codec(arg)
    return (lambda value: encoders.get(type(value), _same)(value),
            lambda data: decoders.get(type(data), _same)(data))


_JSON_TYPES = {bool: "boolean", int: "integer", float: "number",
               str: "string", list: "array", tuple: "array", dict: "object"}


def check_record(cls: type, data: Any, what: str, prefix: str = "") -> None:
    """Raise ClaimcheckError unless `data` is a JSON object whose keys are
    fields of dataclass `cls`, with a key for each field without a default,
    and whose values have the JSON types of their fields' annotations
    (`check_type`). Each message names the input, `what` ("config", say),
    and the key."""
    if not isinstance(data, dict):
        raise ClaimcheckError(
            f"{what} {prefix.rstrip('.') or 'file'} must be a JSON object")
    fields, hints = _plan(cls), _hints(cls)
    for f in dataclasses.fields(cls):
        if f.name not in data and f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            raise ClaimcheckError(f"{what} has no '{prefix}{f.name}'")
    for key, value in data.items():
        if key not in fields:
            raise ClaimcheckError(f"unknown {what} key: {prefix}{key}")
        check_type(hints[key], value, what, f"{prefix}{key}")


@functools.cache
def _shape(hint: Any) -> tuple[Any, tuple[Any, ...]]:
    return typing.get_origin(hint) or hint, typing.get_args(hint)


def check_type(hint: Any, value: Any, what: str, key: str) -> None:
    """`value` must have the JSON type of `hint` (an integer passes as a
    number, null as `X | None`, and anything as `Any`), and so must each
    member of a list, fixed-length tuple or dict; a dataclass hint's value
    goes through `check_record`."""
    origin, args = _shape(hint)
    if origin is Any:
        return
    if dataclasses.is_dataclass(origin):
        check_record(origin, value, what, f"{key}.")
        return
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is not None:
            (arm,) = set(args) - {type(None)}
            check_type(arm, value, what, key)
        return
    want = _JSON_TYPES[origin]
    got = _JSON_TYPES.get(type(value), "null")
    if got != want and (want, got) != ("number", "integer"):
        raise ClaimcheckError(f"{what} {key} must be a JSON {want}, not {got}")
    if origin is dict:
        for name, item in value.items():
            check_type(args[1], item, what, f"{key}.{name}")
    elif origin is tuple and len(value) != len(args):
        raise ClaimcheckError(f"{what} {key} must be a JSON array of "
                              f"{len(args)} items, not {len(value)}")
    elif origin in (list, tuple):
        for i, item in enumerate(value):
            member = args[i] if origin is tuple else args[0]
            check_type(member, item, what, f"{key}[{i}]")
