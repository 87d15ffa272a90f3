"""The checks every repository document shares (``repro.obs.doccheck``).

Five validators guard the JSON documents this package writes and
reads: ``validate_profile``, ``validate_audit``, ``validate_ledger``,
``validate_diff`` and ``validate_slog``.  Each keeps only its own
document's invariants (the miss-class partition, ``hit_delta``,
"identical ⇒ no divergence"); the checks they all repeat are the plain
functions here: the object / ``schema_version`` / ``kind`` header,
required keys, rows of objects, non-negative integer counters, an
ordered ``ci95``, and JSON write/load.

A failed check raises :class:`ValueError` as ``invalid <document>:
<violation>``, naming the first violation.  Messages are formatted only
on failure: the ledger is validated on every warm plan decode and the
request log on every serve request.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, NoReturn, Optional, Sequence, Union


def fail(doc: str, message: str) -> NoReturn:
    """Raise the ``invalid <doc>: <message>`` error."""
    raise ValueError(f"invalid {doc}: {message}")


def require(cond: object, doc: str, message: str) -> None:
    """:func:`fail` with ``message`` unless ``cond`` holds."""
    if not cond:
        fail(doc, message)


def header(
    payload: object,
    doc: str,
    version: int,
    kind: Union[str, Sequence[str], None] = None,
) -> dict:
    """Check the object / ``schema_version`` / ``kind`` header.

    ``kind`` is the kind the document must carry, or a tuple of the
    kinds it may carry; None for documents without one.  Returns the
    payload.
    """
    if not isinstance(payload, dict):
        fail(doc, "document is not an object")
    if payload.get("schema_version") != version:
        fail(doc, f"schema_version != {version}")
    if kind is not None:
        kinds = (kind,) if isinstance(kind, str) else tuple(kind)
        if payload.get("kind") not in kinds:
            fail(doc, f"kind {payload.get('kind')!r} not in {kinds}")
    return payload


def keys(
    obj: object,
    names: Iterable[str],
    doc: str,
    where: str,
    index: Optional[int] = None,
) -> dict:
    """Check ``obj`` is an object carrying every key in ``names``.

    ``where`` names the object in messages, as ``where[index]`` when an
    ``index`` is given (a row of a list).  Returns the object.
    """
    if not isinstance(obj, dict):
        fail(doc, f"{_label(where, index)} is not an object")
    for name in names:
        if name not in obj:
            fail(doc, f"{_label(where, index)} missing '{name}'")
    return obj


def section(
    payload: dict,
    key: str,
    doc: str,
    names: Iterable[str] = (),
    optional: bool = False,
) -> Optional[dict]:
    """The object under ``payload[key]``, carrying every key in ``names``.

    With ``optional``, an absent (or null) section returns None.
    """
    value = payload.get(key)
    if value is None and optional:
        return None
    if not isinstance(value, dict):
        fail(doc, f"'{key}' is missing or not an object")
    return keys(value, names, doc, key)


def numbers(obj: dict, names: Iterable[str], doc: str, where: str) -> None:
    """Check every key in ``names`` of ``obj`` holds a number."""
    for name in names:
        if not isinstance(obj.get(name), (int, float)):
            fail(doc, f"{where}.{name} is not a number")


def rows(
    payload: dict,
    key: str,
    doc: str,
    names: Iterable[str] = (),
    nonempty: bool = False,
) -> list:
    """The list under ``payload[key]``: objects carrying every key in
    ``names``, and at least one of them with ``nonempty``."""
    value = payload.get(key)
    if not isinstance(value, list) or (nonempty and not value):
        fail(doc, f"'{key}' is not a {'non-empty ' if nonempty else ''}list")
    for index, row in enumerate(value):
        keys(row, names, doc, key, index)
    return value


def counters(mapping: object, doc: str, where: str) -> dict:
    """Check ``mapping`` maps names to non-negative integers."""
    if not isinstance(mapping, dict):
        fail(doc, f"{where} is not an object")
    for name, value in mapping.items():
        if not isinstance(value, int) or value < 0:
            fail(doc, f"{where}[{name}] is not a non-negative int")
    return mapping


def ordered_ci(obj: dict, doc: str, where: str) -> None:
    """Check ``obj["ci95"]`` is a ``[lo, hi]`` pair with ``lo <= hi``."""
    lo, hi = obj["ci95"]
    if not lo <= hi:
        fail(doc, f"{where}.ci95 is not ordered")


def write_json(
    path: str, payload: dict, indent: int = 2, newline: bool = False
) -> None:
    """Write a validated document as sorted-key JSON.

    ``newline`` ends the file with one; the audit and diff documents
    are written without it.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=indent, sort_keys=True)
        if newline:
            fh.write("\n")


def load_json(path: str, validate: Callable[[object], dict]) -> dict:
    """Read a JSON document and return it through ``validate``."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate(json.load(fh))


def _label(where: str, index: Optional[int]) -> str:
    return where if index is None else f"{where}[{index}]"
