"""File formats: configuration / coordinate / Euclidean / lattice JSON and
the plain-text 0/1 adjacency format.  Rationals travel as strings; floats
never appear in exact-mode files.

The JSON readers check the document alone: an object, its required fields,
lists of rows, JSON numbers.  Every rule about values belongs to the library
type or function the values are handed to.

A configuration file is read per distinct Gram value where its bytes allow,
by a scan after the structural-index pass of simdjson (Langdale & Lemire,
"Parsing gigabytes of JSON per second", VLDB J. 28, 2019), done with numpy
on the one array whose size is n^2.  The scan takes a document that is ASCII
with no backslash, whose 'gram' value is an n x n array (n >= 32) of strings
of at most 7 bytes, with every gap inside a row byte-identical to the first
and every gap between rows byte-identical to the first: what
`write_configuration`, json.dump(indent=k) and compact JSON write.  One
numpy pass finds the quotes, each token becomes one uint64 key, and `json`
parses the rest of the text with the array replaced by [].  The document
comes back with the scan's Coded pair standing in its 'gram', and `exact`
parses each distinct token once.  Every other document, and every document
the rest of whose text does not parse, goes to `json` whole, so results and
error text are the same either way.

Every input file is opened by `_read` and decoded by `_load`, as open(path)
decodes text; `_load` is the one place where a failure to read or decode a
file becomes an InputError."""

from __future__ import annotations

import io
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Union

from .exact import Coded, Configuration, StructuralError, _distinct
from .lattice import LatticeGram, bundled_dimension, bundled_lattice
from .numerics import CoordinateSet

import numpy as np


class InputError(ValueError):
    """Malformed input file; the CLI reports these with exit code 2."""


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _text(data: bytes) -> str:
    """data decoded as open(path) in text mode decodes a file."""
    return io.TextIOWrapper(io.BytesIO(data)).read()


def _load(path, decode):
    """decode(the bytes of path): the one place where a failure to read or
    decode an input file becomes an InputError naming it."""
    try:
        return decode(_read(path))
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: byte 0x{exc.object[exc.start]:02x} at offset {exc.start} "
                         f"is not {exc.encoding} text") from exc
    except json.JSONDecodeError as exc:  # before ValueError, its base class
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # int() past sys.get_int_max_str_digits()
        raise InputError(f"{path}: an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from exc


def _load_json(path, scan: bool = False) -> dict:
    """The JSON object in path.  With scan, a document the byte scan takes
    comes with the scan's Coded pair standing in its 'gram'."""
    doc = _load(path, lambda data: (_scan(data) if scan else None) or json.loads(_text(data)))
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top-level JSON value must be an object")
    return doc


_WS = rb"[ \t\n\r]*"  # JSON whitespace
# from the key to the first entry's opening quote; group 1 is the array's "["
_GRAM_HEAD = re.compile(rb'"gram"' + _WS + rb":" + _WS + rb"(\[)" + _WS + rb"\[" + _WS + rb'"')
_IN_ROW = re.compile(_WS + rb"," + _WS)
_ROW = re.compile(_WS + rb"\]" + _WS + rb"," + _WS + rb"\[" + _WS)
_TAIL = re.compile(_WS + rb"\]" + _WS + rb"\]")
_CONTROL = re.compile(rb"[\x00-\x1f]")  # bytes JSON refuses inside a string
_SHORT = 7  # bytes of the longest token a key holds; its length is the top byte
_SCAN_FROM = 32  # points: on fewer, `json` and `exact._encode` read a file faster
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)  # the low k bytes


def _gaps_are(following: np.ndarray, ends: np.ndarray, in_row: bytes, row: bytes) -> bool:
    """Whether the gap after each token is in_row inside a row and row between
    rows, the tokens' closing quotes being at the n x n offsets `ends`."""
    first = following[ends]  # the first 8 bytes of every gap
    for at, gap in (np.s_[:, :-1], in_row), (np.s_[:-1, -1], row):
        for c in range(0, len(gap), 8):
            chunk = gap[c:c + 8]
            words = first[at] if c == 0 else following[ends[at] + c]
            if not ((words & _MASKS[len(chunk)]) == int.from_bytes(chunk, "little")).all():
                return False
    return True


def _scan(data: bytes) -> Optional[dict]:
    """The document the byte scan takes, its 'gram' the Coded pair, else None.

    The first row fixes n, the gap inside a row and the gap between rows;
    the first 2 n^2 quotes from the first entry on must then bound n^2
    tokens of at most _SHORT bytes, separated by those gaps and closed by
    `]]`.  The rest of the text, with the array replaced by [], must parse
    to an object whose one 'gram' (the only "gram" left in the text) is []:
    so the array is the document's 'gram' value and the whole text is JSON."""
    if not data.isascii() or b"\\" in data:
        return None
    head = _GRAM_HEAD.search(data)
    if head is None:
        return None
    start, first = head.start(1), head.end() - 1
    k = data.count(b'"', first, data.find(b"]", first))
    n = k // 2
    if k % 2 or n < _SCAN_FROM:
        return None
    # offsets from the first entry's opening quote
    quotes = np.flatnonzero(np.frombuffer(data, np.uint8, len(data) - first, first) == ord('"'))
    if quotes.size < 2 * n * n:
        return None
    opening, closing = quotes[0:2 * n * n:2], quotes[1:2 * n * n:2]
    length = closing - opening - 1
    if length.max() > _SHORT:
        return None
    gaps = np.empty(n * n, dtype=quotes.dtype)  # each gap's length plus one
    np.subtract(opening[1:], closing[:-1], out=gaps[:-1])
    gaps, ends = gaps.reshape(n, n), closing.reshape(n, n)
    in_row = data[first + ends[0, 0] + 1:first + opening[1]]
    row = data[first + ends[0, -1] + 1:first + opening[n]]
    # following[p]: the 8 bytes after offset p, zero past the end of data
    stop = first + int(closing[-1]) + 9
    buffer = data if len(data) >= stop else data + bytes(stop - len(data))
    following = np.ndarray((stop - first - 8,), dtype="<u8", buffer=buffer, offset=first + 1,
                           strides=(1,))
    if not (_IN_ROW.fullmatch(in_row) and _ROW.fullmatch(row)
            and (gaps[:, :-1] == len(in_row) + 1).all() and (gaps[:-1, -1] == len(row) + 1).all()
            and _gaps_are(following, ends, in_row, row)):
        return None
    tail = _TAIL.match(data, first + int(closing[-1]) + 1)
    rest = data[:start] + b"[]" + data[tail.end():] if tail else b""
    if rest.count(b'"gram"') != 1:
        return None
    try:
        doc = json.loads(rest.decode("ascii"))  # bytes would let json guess UTF-16 or -32
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict) or doc.get("gram") != []:
        return None
    keys = (following[opening] & _MASKS[length]) | (length.astype(np.uint64) << np.uint64(56))
    distinct, codes = _distinct(keys)
    tokens = [key.to_bytes(8, "little")[:key >> 56] for key in distinct.tolist()]
    if _CONTROL.search(b"".join(tokens)):
        return None
    doc["gram"] = Coded(tuple(t.decode("ascii") for t in tokens), codes.reshape(n, n))
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
    """The configuration of doc, whose 'gram' is rows or the scan's Coded pair."""
    gram = doc["gram"] if isinstance(doc.get("gram"), Coded) else _rows(doc, "gram", where)
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
    return configuration_from_dict(_load_json(path, scan=True), str(path))


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
    doc = _load_json(path, scan=True)
    if "gram" in doc:
        return configuration_from_dict(doc, str(path))
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


def read_lattice(spec: str, gate=None) -> LatticeGram:
    """A bundled lattice name (z2, d4, e8, k12, leech) or a JSON file path; a
    path that exists wins over a name.  gate(N), when given, is called on a
    name z<N> before its matrix is built."""
    if not os.path.exists(spec):
        dim = bundled_dimension(spec)
        if gate is not None and dim is not None:
            gate(dim)
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
    lines = [line for line in _load(path, _text).splitlines() if line.strip()]
    rows = []
    for lineno, line in enumerate(lines, start=1):
        try:
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise InputError(f"{path}: line {lineno}: entries must be 0/1 integers")
    return tuple(rows)
