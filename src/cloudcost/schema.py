"""Strict reading of the JSON input documents: model, catalog, purchase plan,
provider map and assessment items.

A loader passes :func:`read` the text and a ``build`` that makes its records
from the decoded JSON with the located checks below. A failed check raises a
private defect, which :func:`read` turns into the loader's own error class
through that class's ``at``; so checks run only inside such a ``build``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Callable

from .errors import CloudCostError, InputError


class _Defect(Exception):
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


def read(text: str, build: Callable[[Any], Any], error: type[CloudCostError],
         source: str | None = None) -> Any:
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
    except _Defect as defect:
        raise error.at(*defect.args) from None


def _reject_surrogates_and_nuls(data: Any) -> None:
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
        raise _Defect(path or "$", f"{what} holds a NUL character")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise _Defect(path or "$", f"{what} holds a lone surrogate, "
                                   "which no UTF-8 output can encode") from None


def _member(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def fields(value: Any, path: str, required: tuple[str, ...] = (),
           optional: tuple[str, ...] = ()) -> dict:
    """``value``: an object with every required key and no key not allowed.

    Unknown keys are reported before missing ones, each sorted. Every accepted
    object pays for the check, so the sets are built only for the message."""
    if not isinstance(value, dict):
        raise _Defect(path, f"expected an object, got {type(value).__name__}")
    for key in value:
        if key not in required and key not in optional:
            unknown = sorted(set(value) - set(required) - set(optional))
            raise _Defect(path, f"unknown key(s): {', '.join(unknown)}")
    for key in required:
        if key not in value:
            missing = sorted(set(required) - set(value))
            raise _Defect(path, f"missing required key(s): {', '.join(missing)}")
    return value


def choice(value: Any, path: str, choices: tuple[str, ...], noun: str) -> str:
    """``value``, one of ``choices``; anything else is an unknown ``noun``."""
    if value not in choices:
        raise _Defect(path, f"unknown {noun} {value!r}")
    return value


def string(obj: dict, key: str, path: str) -> str:
    """Member ``key`` of the object at ``path``, a string."""
    value = obj[key]
    if not isinstance(value, str):
        raise _Defect(_member(path, key), f"expected a string, got {type(value).__name__}")
    return value


def number(obj: dict, key: str, path: str) -> float:
    """Member ``key`` of the object at ``path``, a number, as a float."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Defect(_member(path, key), f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range
        raise _Defect(_member(path, key), "number out of range") from None


def array(obj: dict, key: str, path: str) -> list:
    """Member ``key`` of the object at ``path``, an array; empty when absent."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise _Defect(_member(path, key), "expected an array")
    return value


def strings(obj: dict, key: str, path: str, noun: str = "strings") -> tuple[str, ...]:
    """Member ``key`` of the object at ``path``, an array of ``noun``
    (strings); empty when absent."""
    value = obj.get(key, [])
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise _Defect(_member(path, key), f"expected an array of {noun}")
    return tuple(value)
