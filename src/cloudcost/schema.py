"""Strict reading of the JSON input documents: model, catalog, purchase plan,
provider map and assessment items.

A loader passes :func:`read` the text, a ``build`` that makes its records
from the decoded JSON, and its error class. ``build``, and every helper it
calls, reports a defect one way: it raises :class:`Defect` with the value's
path and the reason, itself or through one of the checks below. Only
:func:`read` turns a defect into the loader's error, through that class's
``at``; so the error class is named once per loader, and every reader
locates its defects alike (``<path>: <reason>``, or a model's one
diagnostic).
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable

from .errors import CloudCostError, InputError


class Defect(Exception):
    """A value that fails a check; ``args`` are its path and the reason."""


def read_input(path: str) -> str:
    """The text of a UTF-8 input file (model, catalog, plan, map, items, ratings).

    Bytes that are not UTF-8 raise :class:`InputError` naming the path;
    ``OSError`` passes through.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read(text: str, build: Callable[[object], object], error: type[CloudCostError],
         source: str | None = None) -> object:
    """``build`` of the JSON document ``text``; every defect raises ``error``.

    A syntax error names its line and column, and nesting too deep to decode
    is an error too; both follow ``source`` (the file the text was read from)
    when there is one.
    """
    where = "" if source is None else f"{source}: "
    try:
        data = json.loads(text)
    except RecursionError:  # the decoder recurses once per nested array or object
        raise error(f"{where}nesting too deep") from None
    except ValueError as exc:
        if isinstance(exc, json.JSONDecodeError):
            raise error(f"{where}syntax error at line {exc.lineno}, column {exc.colno}: "
                        f"{exc.msg}") from exc
        # the only other ValueError: Python's limit on integer literal length
        raise error(f"{where}number out of range: an integer literal of more than "
                    f"{sys.get_int_max_str_digits()} digits") from None
    try:
        if not text.isascii() or "\\u" in text:  # only such text can hold a lone surrogate or a NUL
            _reject_surrogates_and_nuls(data)
        return build(data)
    except Defect as defect:
        raise error.at(*defect.args) from None


def _reject_surrogates_and_nuls(data: object) -> None:
    """Fails at the first string or key of ``data``, in document order, with
    a surrogate or a NUL. JSON's paired ``\\uXXXX`` escapes decode to one
    character, so any surrogate left is lone, and no UTF-8 output can encode
    it. A NUL, which JSON carries only as ``\\u0000``, is no name or text any
    output should hold: ``csv`` writes it raw or, on Python 3.10, refuses it."""
    stack = [("", data)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, str):
            _check_string(value, path, "string")
        elif isinstance(value, dict):
            for key in value:
                _check_string(key, path, f"key {key!r}")
            stack.extend((_member(path, key), item) for key, item in reversed(value.items()))
        elif isinstance(value, list):
            stack.extend((f"{path}[{i}]", value[i]) for i in reversed(range(len(value))))


def _check_string(text: str, path: str, what: str) -> None:
    if "\0" in text:
        raise Defect(path or "$", f"{what} holds a NUL character")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise Defect(path or "$", f"{what} holds a lone surrogate, "
                                  "which no UTF-8 output can encode") from None


def _member(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def fields(value: object, path: str, required: tuple[str, ...] = (),
           optional: tuple[str, ...] = ()) -> dict:
    """``value``: an object with every required key and no key not allowed.

    Unknown keys are reported before missing ones, each sorted. Every accepted
    object pays for the check, so the sets are built only for the message."""
    if not isinstance(value, dict):
        raise Defect(path, f"expected an object, got {type(value).__name__}")
    for key in value:
        if key not in required and key not in optional:
            unknown = sorted(set(value) - set(required) - set(optional))
            raise Defect(path, f"unknown key(s): {', '.join(unknown)}")
    for key in required:
        if key not in value:
            missing = sorted(set(required) - set(value))
            raise Defect(path, f"missing required key(s): {', '.join(missing)}")
    return value


def choice(value: object, path: str, choices: tuple[str, ...], noun: str) -> str:
    """``value``, one of ``choices``; anything else is an unknown ``noun``."""
    if value not in choices:
        raise Defect(path, f"unknown {noun} {value!r}")
    return value


def string(obj: dict, key: str, path: str) -> str:
    """Member ``key`` of the object at ``path``, a string."""
    value = obj[key]
    if not isinstance(value, str):
        raise Defect(_member(path, key), f"expected a string, got {type(value).__name__}")
    return value


def nonempty_string(obj: dict, key: str, path: str) -> str:
    """Member ``key`` of the object at ``path``, a string that is not empty."""
    value = string(obj, key, path)
    if not value:
        raise Defect(_member(path, key), "expected a non-empty string")
    return value


def number(obj: dict, key: str, path: str) -> float:
    """Member ``key`` of the object at ``path``, a number, as a float."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise Defect(_member(path, key), f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range
        raise Defect(_member(path, key), "number out of range") from None


def array(obj: dict, key: str, path: str) -> list:
    """Member ``key`` of the object at ``path``, an array; empty when absent."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise Defect(_member(path, key), "expected an array")
    return value


def nonempty_array(obj: dict, key: str, path: str) -> list:
    """Member ``key`` of the object at ``path``, an array of at least one item."""
    value = obj[key]
    if not isinstance(value, list) or not value:
        raise Defect(_member(path, key), "expected a non-empty array")
    return value


def strings(obj: dict, key: str, path: str, noun: str = "strings") -> tuple[str, ...]:
    """Member ``key`` of the object at ``path``, an array of ``noun``
    (strings); empty when absent."""
    value = obj.get(key, [])
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise Defect(_member(path, key), f"expected an array of {noun}")
    return tuple(value)
