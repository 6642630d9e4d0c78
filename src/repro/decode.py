"""One typed decoder for everything persisted.

A JSON value is checked against the dataclass it becomes, each type's
check plan built once from its annotations.  A wrong type (``int``
refuses ``bool``), a missing key (of a field without a default), an
extra key, or a ``ValueError`` from the constructor (a value rule no
annotation states) is a :class:`DecodeError` naming its path, such as
``collection.start_seed``; each door wraps it in its own error.  The
predicate leaves keep their tagged forms: ``{"$key": [method, thread,
occurrence]}`` for a :class:`MethodKey`, ``{"type": name, "fields":
{...}}`` for a :func:`register_union` base, and inside those fields
``{"$pred": ...}`` and ``{"$tuple": [...]}``.  Nothing of ``repro``
is imported here: the simulator registers :class:`MethodKey` as a leaf
and the predicate model registers its union base.
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
#: leaf type -> (its tag, what it is, its payload's shape, the builder)
_LEAVES: dict[type, tuple[str, str, str, Callable]] = {}


def register_union(base: type, tag: str, members: dict[str, type]) -> None:
    """Decode ``base`` as ``{"type": name, "fields": {...}}`` (the
    predicate model registers its base: this module cannot import it)."""
    _UNIONS[base] = (tag, members)


def register_leaf(
    tp: type, tag: str, what: str, shape: str, build: Callable
) -> None:
    """Decode ``tp`` as ``{tag: payload}``: ``build(payload)`` returns
    the value, or ``None`` when the payload is not ``shape``."""
    _LEAVES[tp] = (tag, what, shape, build)


def decode(tp: object, raw: object, path: str = "") -> object:
    """``raw`` (parsed JSON) checked against ``tp`` and built."""
    try:
        return _plan(tp, False)(raw)
    except DecodeError as exc:
        raise (exc.under(path) if path else exc) from None


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


_SCALARS = {
    str: _exact("a string", str),
    int: _exact("an int", int),
    float: _exact("a number", int, float),
    bool: _exact("a bool", bool),
    object: lambda value: value,
}


@functools.cache
def _plan(tp: object, tagged: bool) -> Check:
    """The check for annotation ``tp`` (``tagged`` inside a union
    member's fields)."""
    origin, args = get_origin(tp), get_args(tp)
    if tp is object and tagged:
        return _tagged_value
    if tp in _SCALARS:
        return _SCALARS[tp]
    if tp in _LEAVES:
        return functools.partial(_leaf, *_LEAVES[tp])
    if tp in _UNIONS:
        return functools.partial(_member, tp, tagged)
    if dataclasses.is_dataclass(tp):
        return _dataclass(tp, tagged)
    if origin is Literal:
        expected = "one of " + ", ".join(map(repr, args))
        return _exact(expected, *{type(a) for a in args}, values=frozenset(args))
    if origin is Union and len(args) == 2 and type(None) in args:
        inner = _plan(next(a for a in args if a is not type(None)), tagged)
        return lambda value: None if value is None else inner(value)
    if tp is dict or origin is dict and args[0] is str:
        return _each(_plan(args[1] if args else object, tagged), dict)
    if origin in (list, frozenset) or origin is tuple and args[1:] == (...,):
        items = _each(_plan(args[0], tagged), list)
        if origin is tuple and tagged:
            return lambda value: tuple(items(_untag(value, "$tuple", "a tuple")))
        return lambda value: origin(items(value))
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


def _dataclass(cls: type, tagged: bool) -> Check:
    hints = get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    checks = {f.name: _plan(hints[f.name], tagged) for f in fields}
    required = frozenset(
        f.name for f in fields
        if f.default is f.default_factory is dataclasses.MISSING
    )
    valid = ", ".join(sorted(checks))

    def check(value: object) -> object:
        if type(value) is not dict:
            raise _mismatch("an object", value)
        built = {}
        for name, element in value.items():
            if name not in checks:
                raise DecodeError("", f"unknown key {name!r} (valid: {valid})")
            try:
                built[name] = checks[name](element)
            except DecodeError as exc:
                raise exc.under(name) from None
        if len(built) < len(checks) and not required <= built.keys():
            raise DecodeError("", f"missing key {min(required - built.keys())!r}")
        try:
            return cls(**built)
        except ValueError as exc:
            raise DecodeError("", str(exc)) from None

    return check


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
        return _plan(members[name], True)(value["fields"])
    except DecodeError as exc:
        raise exc.under(name) from None


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
    return _plan(tags[next(iter(value))], True)(value)
