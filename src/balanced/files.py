"""File formats: configuration / coordinate / Euclidean / lattice JSON and
the plain-text 0/1 adjacency format.  Rationals travel as strings; floats
never appear in exact-mode files.

The JSON readers check the document alone: an object, its required fields,
lists of rows, JSON numbers.  Every rule about values belongs to the library
type or function the values are handed to."""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Union

from .exact import Configuration, StructuralError
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


def _rows(doc: dict, key: str, where: str) -> list:
    """doc[key], which must be present and a list of lists."""
    if key not in doc:
        raise InputError(f"{where}: missing '{key}' field")
    rows = doc[key]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{where}: '{key}' must be a list of rows")
    return rows


def configuration_from_dict(doc: dict, where: str = "configuration") -> Configuration:
    gram = _rows(doc, "gram", where)
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise InputError(f"{where}: 'labels' must be a list")
    try:
        return Configuration.from_gram(
            gram,
            label=doc.get("label"),
            point_labels=tuple(labels) if labels is not None else None,
        )
    except StructuralError as exc:
        raise InputError(f"{where}: {exc}") from exc


def read_configuration(path) -> Configuration:
    return configuration_from_dict(_load_json(path), where=str(path))


def _save(text: str, path) -> str:
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def write_json(doc: dict, path=None) -> str:
    """json.dumps(doc, indent=2) plus a newline, written to path if given."""
    return _save(json.dumps(doc, indent=2) + "\n", path)


def write_configuration(c: Configuration, path=None) -> str:
    """What write_json writes for {label, labels, gram}, with the Gram
    entries as strings.  json.dumps encodes each of the n^2 strings in
    Python, so each Gram row is joined from the quoted text of its values."""
    doc = {}
    if c.label is not None:
        doc["label"] = c.label
    if c.point_labels is not None:
        doc["labels"] = list(c.point_labels)
    doc["gram"] = []
    head = json.dumps(doc, indent=2)[:-len("[]\n}")]  # ends with '"gram": '
    quoted = np.array([_quote(str(u)) for u in c.gram.values], dtype=object)
    rows = ["[\n      " + ",\n      ".join(row) + "\n    ]"
            for row in quoted[c.gram.colours].tolist()]
    return _save(head + "[\n    " + ",\n    ".join(rows) + "\n  ]\n}\n", path)


def write_coordinates(p: CoordinateSet, path=None) -> str:
    doc = {}
    if p.label is not None:
        doc["label"] = p.label
    doc["coords"] = p.points.tolist()
    return write_json(doc, path)


_NUMBER_TYPES = {int, float}  # what JSON numbers parse to; a boolean is not one


def load_point_input(path) -> Union[Configuration, CoordinateSet]:
    """Dispatch on file content: 'gram' (exact) or 'coords' (float)."""
    doc = _load_json(path)
    if "gram" in doc:
        return configuration_from_dict(doc, where=str(path))
    if "coords" in doc:
        rows = doc["coords"]
        for i, row in enumerate(rows if isinstance(rows, list) else ()):
            if isinstance(row, list) and not _NUMBER_TYPES.issuperset(map(type, row)):
                j = next(j for j, x in enumerate(row) if type(x) not in _NUMBER_TYPES)
                raise InputError(f"{path}: coords[{i}][{j}] is not a number")
        try:
            return CoordinateSet(points=rows, label=doc.get("label"))
        except StructuralError as exc:
            raise InputError(f"{path}: {exc}") from exc
    raise InputError(f"{path}: expected a 'gram' or 'coords' field")


def read_euclidean(path) -> tuple[list, Optional[list], object]:
    """The raw points, period and cutoff; check_balanced_euclidean parses them."""
    doc = _load_json(path)
    points = _rows(doc, "points", path)
    period = None if doc.get("period") is None else _rows(doc, "period", path)
    return points, period, doc.get("cutoff")


def read_lattice(spec: str) -> LatticeGram:
    """A bundled lattice name (z2, d4, e8, k12, leech) or a JSON file path."""
    if not os.path.exists(spec):
        try:
            return bundled_lattice(spec)
        except StructuralError as exc:
            raise InputError(str(exc)) from exc
    doc = _load_json(spec)
    gram = _rows(doc, "gram", spec)
    try:
        return LatticeGram(entries=tuple(map(tuple, gram)), label=doc.get("label"))
    except StructuralError as exc:
        raise InputError(f"{spec}: {exc}") from exc


def read_graph(path) -> tuple[tuple[int, ...], ...]:
    """The integer rows of a whitespace-separated adjacency matrix, one row
    per line; `symmetry.adjacency_matrix` owns every rule about them."""
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
    return tuple(rows)
