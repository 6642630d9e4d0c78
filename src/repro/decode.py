"""One typed codec for everything persisted.

A JSON value is checked against the dataclass it becomes, each type's
plan built once from its annotations: a reader and its inverse writer.
A wrong type (``int`` refuses ``bool``), a missing key (of a field
without a default), an extra key, or a ``ValueError`` from the
constructor (a value rule no annotation states) is a
:class:`DecodeError` naming its path, such as ``collection.start_seed``;
each door wraps it in its own error.  A ``tuple[A, B]`` is a JSON list
of exactly that many elements.  :func:`encode` writes what
:func:`decode` reads: a ``None``-default field holding ``None`` is left
out (except inside a union member's fields, which are all written), a
frozenset is written as a sorted list, fields keep their declared
order, and a value that is not of its type is passed on unwritten, so
decoding the result names it.  The predicate leaves keep their tagged
forms: ``{"$key": [method, thread, occurrence]}`` for a
:class:`MethodKey`, ``{"type": name, "fields": {...}}`` for a
:func:`register_union` base, and inside those fields ``{"$pred": ...}``
and ``{"$tuple": [...]}``.  Nothing of ``repro`` is imported here: the
simulator registers :class:`MethodKey` as a leaf and the predicate
model registers its union base.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Literal, Union, get_args, get_origin, get_type_hints

Check = Callable[[object], object]


class DecodeError(ValueError):
    """A value does not match its type: ``path`` says where (empty at
    the root), ``reason`` says why."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path}: {reason}" if path else reason)
        self.path, self.reason = path, reason

    def under(self, segment: str) -> "DecodeError":
        """This error one level up, under a field name or ``[...]``."""
        joiner = "" if not self.path or self.path[0] == "[" else "."
        return DecodeError(segment + joiner + self.path, self.reason)


#: base -> (the tag of a nested member, member dataclasses by name)
_UNIONS: dict[type, tuple[str, dict[str, type]]] = {}
#: leaf type -> (its tag, what it is, its payload's shape, the builder,
#: its inverse)
_LEAVES: dict[type, tuple[str, str, str, Callable, Callable]] = {}


def register_union(base: type, tag: str, members: dict[str, type]) -> None:
    """Decode ``base`` as ``{"type": name, "fields": {...}}`` (the
    predicate model registers its base: this module cannot import it)."""
    _UNIONS[base] = (tag, members)


def register_leaf(
    tp: type, tag: str, what: str, shape: str, build: Callable,
    unbuild: Callable,
) -> None:
    """Decode ``tp`` as ``{tag: payload}``: ``build(payload)`` returns
    the value, or ``None`` when the payload is not ``shape``;
    ``unbuild(value)`` returns the payload."""
    _LEAVES[tp] = (tag, what, shape, build, unbuild)


def decode(tp: object, raw: object, path: str = "") -> object:
    """``raw`` (parsed JSON) checked against ``tp`` and built."""
    try:
        return _plan(tp, False)[0](raw)
    except DecodeError as exc:
        raise (exc.under(path) if path else exc) from None


def encode(value: object, tp: object = None) -> object:
    """The JSON value :func:`decode` reads back as ``value``, written by
    the plan of ``tp`` (by default ``value``'s own type)."""
    return _plan(type(value) if tp is None else tp, False)[1](value)


def _mismatch(expected: str, value: object) -> DecodeError:
    shown = repr(value)
    shown = shown if len(shown) <= 60 else f"{shown[:57]}..."
    return DecodeError("", f"expected {expected}, got {shown}")


def _exact(expected: str, *kinds: type, values: frozenset = None) -> Check:
    def check(value: object) -> object:
        if type(value) not in kinds or values is not None and value not in values:
            raise _mismatch(expected, value)
        return value

    return check


def _same(value: object) -> object:
    return value


_SCALARS = {
    str: _exact("a string", str),
    int: _exact("an int", int),
    float: _exact("a number", int, float),
    bool: _exact("a bool", bool),
    object: _same,
}


@functools.cache
def _plan(tp: object, tagged: bool) -> tuple[Check, Check]:
    """The reader of annotation ``tp`` (a JSON value checked and built)
    and its writer (``tagged`` inside a union member's fields)."""
    origin, args = get_origin(tp), get_args(tp)
    if tp is object and tagged:
        return _tagged_value, _tagged_write
    if tp in _SCALARS:
        return _SCALARS[tp], _same
    if tp in _LEAVES:
        tag, what, shape, build, unbuild = _LEAVES[tp]
        read = functools.partial(_leaf, tag, what, shape, build)
        return read, lambda value: {tag: unbuild(value)}
    if tp in _UNIONS:
        pair = (_member, _write_member)
        return tuple(functools.partial(f, tp, tagged) for f in pair)
    if dataclasses.is_dataclass(tp):
        return _dataclass(tp, tagged)
    if origin is Literal:
        expected = "one of " + ", ".join(map(repr, args))
        kinds = {type(a) for a in args}
        return _exact(expected, *kinds, values=frozenset(args)), _same
    if origin is Union and len(args) == 2 and type(None) in args:
        inner = _plan(next(a for a in args if a is not type(None)), tagged)
        return tuple(
            lambda value, f=f: None if value is None else f(value) for f in inner
        )
    if tp is dict or origin is dict and args[0] is str:
        read, write = _plan(args[1] if args else object, tagged)

        def write_dict(value: object) -> object:
            if type(value) is not dict:
                return value  # passed on for decode to name
            return {k: write(v) for k, v in value.items()}

        return _each(read, dict), write_dict
    if origin is tuple and args[1:] != (...,) and not tagged:
        return _fixed_tuple([_plan(a, tagged) for a in args])
    if origin in (list, frozenset) or origin is tuple and args[1:] == (...,):
        read, write = _plan(args[0], tagged)
        items = _each(read, list)
        order = sorted if origin is frozenset else list

        def write_items(value: object) -> object:
            if not isinstance(value, (list, tuple, set, frozenset)):
                return value  # passed on for decode to name
            return order(map(write, value))

        if origin is tuple and tagged:
            return (
                lambda value: tuple(items(_untag(value, "$tuple", "a tuple"))),
                lambda value: {"$tuple": write_items(value)},
            )
        return lambda value: origin(items(value)), write_items
    raise TypeError(f"no decoder for the annotation {tp!r}")


def _each(item: Check, kind: type) -> Check:
    """A JSON list (``kind`` list) or object with every element checked."""
    expected = "a list" if kind is list else "an object"

    def check(value: object) -> object:
        if type(value) is not kind:
            raise _mismatch(expected, value)
        out = {}
        for key, element in value.items() if kind is dict else enumerate(value):
            try:
                if kind is dict and type(key) is not str:
                    raise _mismatch("a string key", key)
                out[key] = item(element)
            except DecodeError as exc:
                raise exc.under(f"[{key!r}]") from None
        return out if kind is dict else list(out.values())

    return check


def _fixed_tuple(plans: list[tuple[Check, Check]]) -> tuple[Check, Check]:
    """A ``tuple[A, B]``: a JSON list of exactly that many elements."""
    expected = f"a list of {len(plans)}"

    def check(value: object) -> object:
        if type(value) is not list or len(value) != len(plans):
            raise _mismatch(expected, value)
        out = []
        for i, ((read, _), element) in enumerate(zip(plans, value)):
            try:
                out.append(read(element))
            except DecodeError as exc:
                raise exc.under(f"[{i}]") from None
        return tuple(out)

    def write(value: object) -> object:
        if not isinstance(value, tuple) or len(value) != len(plans):
            return value  # passed on for decode to name
        return [w(element) for (_, w), element in zip(plans, value)]

    return check, write


def _dataclass(cls: type, tagged: bool) -> tuple[Check, Check]:
    hints = get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    plans = {f.name: _plan(hints[f.name], tagged) for f in fields}
    required = frozenset(
        f.name for f in fields
        if f.default is f.default_factory is dataclasses.MISSING
    )
    # Outside a union member's fields, a None-default field holding
    # None is left out.
    omitted = frozenset() if tagged else frozenset(
        f.name for f in fields if f.default is None
    )
    valid = ", ".join(sorted(plans))

    def check(value: object) -> object:
        if type(value) is not dict:
            raise _mismatch("an object", value)
        built = {}
        for name, element in value.items():
            if name not in plans:
                raise DecodeError("", f"unknown key {name!r} (valid: {valid})")
            try:
                built[name] = plans[name][0](element)
            except DecodeError as exc:
                raise exc.under(name) from None
        if len(built) < len(plans) and not required <= built.keys():
            raise DecodeError("", f"missing key {min(required - built.keys())!r}")
        try:
            return cls(**built)
        except ValueError as exc:
            raise DecodeError("", str(exc)) from None

    def write(value: object) -> object:
        if not isinstance(value, cls):
            return value  # passed on for decode to name
        out = {}
        for name, (_, write_field) in plans.items():
            element = getattr(value, name)
            if element is not None or name not in omitted:
                out[name] = write_field(element)
        return out

    return check, write


def _untag(value: object, tag: str, what: str) -> object:
    """The payload of ``{tag: payload}``, which holds ``what``."""
    if type(value) is not dict or value.keys() != {tag}:
        raise _mismatch(f'{what} {{"{tag}": ...}}', value)
    return value[tag]


def _leaf(tag: str, what: str, shape: str, build: Callable, value: object):
    raw = _untag(value, tag, what)
    built = build(raw)
    if built is None:
        raise _mismatch(f"{what} {shape}", raw)
    return built


def _member(base: type, tagged: bool, value: object) -> object:
    tag, members = _UNIONS[base]
    what = f"a {base.__name__}"
    if tagged:
        value = _untag(value, tag, what)
    if type(value) is not dict or value.keys() != {"type", "fields"}:
        raise _mismatch(f'{what} {{"type": ..., "fields": {{...}}}}', value)
    name = value["type"]
    if type(name) is not str or name not in members:
        raise _mismatch(f"one of {', '.join(sorted(members))}", name).under("type")
    try:
        return _plan(members[name], True)[0](value["fields"])
    except DecodeError as exc:
        raise exc.under(name) from None


def _write_member(base: type, tagged: bool, value: object) -> dict:
    tag, members = _UNIONS[base]
    name = type(value).__name__
    if members.get(name) is not type(value):
        raise ValueError(f"cannot encode a {name} as a {base.__name__}")
    written = {"type": name, "fields": _plan(type(value), True)[1](value)}
    return {tag: written} if tagged else written


def _tagged_value(value: object) -> object:
    """An ``object`` field in tagged form: any JSON value, its tagged
    parts decoded."""
    if type(value) is list:
        return [_tagged_value(v) for v in value]
    if type(value) is not dict:
        return value
    tags = {spec[0]: leaf for leaf, spec in _LEAVES.items()}
    tags["$tuple"] = tuple[object, ...]
    tags.update((tag, base) for base, (tag, _) in _UNIONS.items())
    if len(value) != 1 or next(iter(value)) not in tags:
        raise _mismatch(f"a tagged value {' or '.join(tags)}", value)
    return _plan(tags[next(iter(value))], True)[0](value)


def _tagged_write(value: object) -> object:
    """The inverse of :func:`_tagged_value`: leaves, union members and
    tuples tagged, lists and JSON scalars as they are."""
    if type(value) in _LEAVES:
        return _plan(type(value), True)[1](value)
    base = next((b for b in _UNIONS if isinstance(value, b)), None)
    if base is not None:
        return _plan(base, True)[1](value)
    if isinstance(value, tuple):
        return _plan(tuple[object, ...], True)[1](value)
    if isinstance(value, list):
        return [_tagged_write(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValueError(
        f"cannot encode {value!r} of type {type(value).__name__}"
    )
