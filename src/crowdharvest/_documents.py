"""Every CSV and JSON document the package reads or writes goes through here.

The writers take a header and formatted rows, or a JSON value. The readers
are strict: an unreadable file, a wrong CSV header, a malformed row, text
that is not JSON, and an unknown, missing or mistyped key each raise.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import sys
import types
from collections.abc import Callable, Iterable, Sequence
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_args

import numpy as np

from .errors import IngestionError, InvalidParameterError


def read_text(path: str | Path) -> str:
    """The text of an input file."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc


def write_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A CSV document: the header line, then one line per row of formatted cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read_csv(text: str, header: Sequence[str], parse_row: Callable[[list[str]], object]) -> list:
    """``parse_row`` of each non-blank row of a CSV document with this header.

    A row that ``parse_row`` rejects with ``ValueError`` or ``IndexError``
    is malformed, and all malformed rows are reported together.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or [c.strip() for c in rows[0]] != list(header):
        raise IngestionError(f"expected header {','.join(header)!r}")
    parsed, bad = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not any(c.strip() for c in row):
            continue
        try:
            parsed.append(parse_row(row))
        except (ValueError, IndexError):
            bad.append((lineno, ",".join(row)))
    if bad:
        raise IngestionError(
            f"{len(bad)} malformed rows (first at line {bad[0][0]})", bad_rows=bad
        )
    return parsed


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"not a JSON document: {exc}") from exc


def _float(value) -> float:
    # strings too: YAML 1.1 reads an exponent without a decimal point (1e-9) as a string
    if value is None or isinstance(value, bool):
        raise InvalidParameterError(f"expected a number, got {value!r}")
    return float(value)


def _int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"expected an integer, got {value!r}")
    return int(value)


def _exactly(kind: type) -> Callable:
    def cast(value):
        if not isinstance(value, kind):
            raise InvalidParameterError(f"expected a {kind.__name__}, got {value!r}")
        return value

    return cast


def _list(value) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise InvalidParameterError(f"expected a list, got {value!r}")
    return value


def _float_pair(value) -> tuple[float, float]:
    if len(_list(value)) != 2:
        raise InvalidParameterError(f"expected a [lo, hi] pair, got {value!r}")
    return _float(value[0]), _float(value[1])


def _array(value) -> np.ndarray:
    array = np.asarray(value)
    if not np.issubdtype(array.dtype, np.number):
        raise InvalidParameterError(f"expected an array of numbers, got {value!r}")
    return array


# How a field is read, by its annotation; see _cast for the composite ones.
_FIELD_CASTS = {
    "float": _float,
    "int": _int,
    "str": _exactly(str),
    "bool": _exactly(bool),
    "tuple[float, float]": _float_pair,
    "np.ndarray": _array,
}


def _named(path: str, read: Callable, value):
    """``read(value)``, with any error it raises naming the key ``path``."""
    try:
        return read(value)
    except (TypeError, ValueError) as exc:  # InvalidParameterError is a ValueError
        raise InvalidParameterError(f"{path}: {exc}") from exc


def _tagged(classes: tuple[type, ...], value, path: str):
    """One of ``classes``, chosen by the ``kind`` that ``asdict`` writes."""
    kinds = {cls.kind: cls for cls in classes}
    kind = value.get("kind") if isinstance(value, dict) else None
    if kind not in kinds:
        raise InvalidParameterError(
            f"{path}: unknown kind {kind!r}, expected one of {sorted(kinds)}"
        )
    return dataclass_from_dict(kinds[kind], {k: v for k, v in value.items() if k != "kind"}, path)


def _cast(annotation: str, owner: type) -> Callable:
    """How a field of ``owner`` annotated ``annotation`` is read from a value at a key path.

    Besides the annotations in ``_FIELD_CASTS``: ``X | None``,
    ``tuple[X, ...]``, a dataclass named in ``owner``'s module, and a
    union of dataclasses told apart by their ``kind`` field.
    """
    if annotation in _FIELD_CASTS:
        read = _FIELD_CASTS[annotation]
        return lambda value, path: _named(path, read, value)
    if annotation.endswith(" | None"):
        cast = _cast(annotation[: -len(" | None")], owner)
        return lambda value, path: None if value is None else cast(value, path)
    if annotation.startswith("tuple[") and annotation.endswith(", ...]"):
        cast = _cast(annotation[len("tuple[") : -len(", ...]")], owner)
        return lambda value, path: tuple(
            cast(item, f"{path}[{i}]") for i, item in enumerate(_named(path, _list, value))
        )
    target = vars(sys.modules[owner.__module__])[annotation]
    if isinstance(target, types.UnionType):
        return lambda value, path: _tagged(get_args(target), value, path)
    return lambda value, path: dataclass_from_dict(target, value, path)


def dataclass_from_dict(cls, d: dict, path: str = ""):
    """The dataclass ``cls`` read strictly from ``d``, the form ``dataclasses.asdict`` writes.

    This is the one reader of JSON documents, serialised processes and
    regions, and scenario configs. An unknown key, a missing field that
    has no default, a value that does not read as its field's annotation,
    or a value that ``cls`` rejects raises :class:`InvalidParameterError`
    naming the key path from the document's root (``rats[0].spatial_process``);
    ``path`` is the path of ``d`` itself, empty at the root.
    """
    where = f"{path}: " if path else ""
    if not isinstance(d, dict):
        raise InvalidParameterError(f"{where}expected a mapping, got {d!r}")
    init_fields = {f.name: f for f in fields(cls) if f.init}
    unknown = sorted(set(d) - set(init_fields))
    if unknown:
        raise InvalidParameterError(f"{where}unknown key(s) {unknown}")
    missing = [
        name for name, f in init_fields.items()
        if name not in d and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise InvalidParameterError(f"{where}missing key(s) {missing}")
    kwargs = {
        name: _cast(init_fields[name].type, cls)(value, f"{path}.{name}" if path else name)
        for name, value in d.items()
    }
    return _named(path, lambda kw: cls(**kw), kwargs) if path else cls(**kwargs)
