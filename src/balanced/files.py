"""File formats: configuration / coordinate / Euclidean / lattice JSON and
the plain-text 0/1 adjacency format.  Rationals travel as strings; floats
never appear in exact-mode files."""

from __future__ import annotations

import json
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Union

from .exact import Configuration, StructuralError, rational
from .lattice import LatticeGram, bundled_lattice
from .numerics import CoordinateSet

import numpy as np


class InputError(ValueError):
    """Malformed input file; the CLI reports these with exit code 2."""


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top-level JSON value must be an object")
    return doc


def configuration_to_dict(c: Configuration) -> dict:
    doc = {}
    if c.label is not None:
        doc["label"] = c.label
    if c.point_labels is not None:
        doc["labels"] = list(c.point_labels)
    text = np.array([str(u) for u in c.gram.values], dtype=object)
    doc["gram"] = text[c.gram.colours].tolist()
    return doc


def _gram_rows(doc: dict, where: str) -> list:
    if "gram" not in doc:
        raise InputError(f"{where}: missing 'gram' field")
    gram = doc["gram"]
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise InputError(f"{where}: 'gram' must be a list of rows")
    return gram


def _label(doc: dict, where: str):
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError(f"{where}: 'label' must be a string")
    return label


def configuration_from_dict(doc: dict, where: str = "configuration") -> Configuration:
    gram = _gram_rows(doc, where)
    label = _label(doc, where)
    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(s, str) for s in labels)
    ):
        raise InputError(f"{where}: 'labels' must be a list of strings")
    try:
        return Configuration.from_gram(
            gram,
            label=label,
            point_labels=tuple(labels) if labels is not None else None,
        )
    except StructuralError as exc:
        raise InputError(f"{where}: {exc}") from exc


def read_configuration(path) -> Configuration:
    return configuration_from_dict(_load_json(path), where=str(path))


_CONTAINERS = (list, tuple, dict)


class _Quoted(dict):
    """The JSON text of each distinct string, encoded on first use."""

    def __missing__(self, s):
        self[s] = text = _quote(s)
        return text


def _dumps(o, indent: str, quoted: _Quoted) -> str:
    """json.dumps(o, indent=2) for a value nested at `indent`.

    An indent makes json.dumps encode every scalar in Python.  Here a list of
    strings, such as a Gram row, joins the text of each distinct string, and a
    list of numbers is one C-encoder call whose separators are then replaced.
    JSON text escapes every newline in a string, so a scalar never spans lines.
    """
    if isinstance(o, str):
        return quoted[o]
    if not isinstance(o, _CONTAINERS) or not o:
        return json.dumps(o)  # a scalar or an empty container: no newline either way
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(o, dict):
        if not all(isinstance(k, str) for k in o):  # keys json.dumps converts
            return json.dumps(o, indent=2).replace("\n", "\n" + indent)
        body = sep.join(quoted[k] + ": " + _dumps(v, inner, quoted) for k, v in o.items())
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(o[0], str):
        try:  # a list of strings, such as a Gram row
            return f"[\n{inner}{sep.join(map(quoted.__getitem__, o))}\n{indent}]"
        except TypeError:  # an item is not a string
            pass
    if any(isinstance(x, (str, *_CONTAINERS)) for x in o):
        body = sep.join(_dumps(x, inner, quoted) for x in o)
    else:  # numbers, booleans and nulls, whose text holds no ", "
        body = json.dumps(o)[1:-1].replace(", ", sep)
    return f"[\n{inner}{body}\n{indent}]"


def write_json(doc: dict, path=None) -> str:
    """json.dumps(doc, indent=2) plus a newline, written to path if given."""
    text = _dumps(doc, "", _Quoted()) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def write_configuration(c: Configuration, path=None) -> str:
    return write_json(configuration_to_dict(c), path)


def write_coordinates(p: CoordinateSet, path=None) -> str:
    doc = {}
    if p.label is not None:
        doc["label"] = p.label
    doc["coords"] = [[float(x) for x in row] for row in p.points]
    return write_json(doc, path)


_NUMBER_TYPES = {int, float}  # what JSON numbers parse to; a boolean is not one


def load_point_input(path) -> Union[Configuration, CoordinateSet]:
    """Dispatch on file content: 'gram' (exact) or 'coords' (float)."""
    doc = _load_json(path)
    if "gram" in doc:
        return configuration_from_dict(doc, where=str(path))
    if "coords" in doc:
        label, rows = _label(doc, str(path)), doc["coords"]
        for i, row in enumerate(rows if isinstance(rows, list) else ()):
            if isinstance(row, list) and not _NUMBER_TYPES.issuperset(map(type, row)):
                j = next(j for j, x in enumerate(row) if type(x) not in _NUMBER_TYPES)
                raise InputError(f"{path}: coords[{i}][{j}] is not a number")
        try:
            pts = np.array(rows, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{path}: bad 'coords' array: {exc}") from exc
        if pts.ndim != 2:
            raise InputError(f"{path}: 'coords' must be a rectangular N x r array")
        finite, nonzero = np.isfinite(pts).all(axis=1), pts.any(axis=1)
        if not (finite & nonzero).all():
            i = int(np.argmin(finite & nonzero))  # the first bad point
            problem = "is the zero vector" if finite[i] else "is not finite"
            raise InputError(f"{path}: coords[{i}] {problem}")
        return CoordinateSet(points=pts, label=label)
    raise InputError(f"{path}: expected a 'gram' or 'coords' field")


def read_euclidean(path) -> tuple[list, list, Fraction]:
    doc = _load_json(path)
    if "points" not in doc:
        raise InputError(f"{path}: missing 'points' field")
    try:
        points = [[rational(x) for x in row] for row in doc["points"]]
        period = None
        if doc.get("period") is not None:
            period = [[rational(x) for x in row] for row in doc["period"]]
        cutoff = rational(doc["cutoff"]) if doc.get("cutoff") is not None else None
    except (StructuralError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    return points, period, cutoff


def read_lattice(spec: str) -> LatticeGram:
    """A bundled lattice name (z2, d4, e8, k12, leech) or a JSON file path."""
    if not os.path.exists(spec):
        try:
            return bundled_lattice(spec)
        except StructuralError as exc:
            raise InputError(str(exc)) from exc
    doc = _load_json(spec)
    gram, label = _gram_rows(doc, spec), _label(doc, spec)
    try:
        return LatticeGram(entries=tuple(map(tuple, gram)), label=label)
    except StructuralError as exc:
        raise InputError(f"{spec}: {exc}") from exc


def read_graph(path) -> tuple[tuple[int, ...], ...]:
    """Whitespace-separated 0/1 adjacency matrix, one row per line."""
    try:
        with open(path) as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    rows = []
    for lineno, line in enumerate(lines, start=1):
        try:
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise InputError(f"{path}: line {lineno}: entries must be 0/1 integers")
    n = len(rows)
    for lineno, row in enumerate(rows, start=1):
        if len(row) != n:
            raise InputError(
                f"{path}: line {lineno}: {len(row)} entries for {n} rows"
            )
        if any(x not in (0, 1) for x in row):
            raise InputError(f"{path}: line {lineno}: entries must be 0/1")
    return tuple(rows)
