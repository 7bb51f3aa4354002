"""The byte scan of a configuration file and the `json` path agree.

`files._scan` takes a document of at least 32 points whose 'gram' is an
n x n array of short strings with uniform gaps; every other document goes to
`json` whole.  Each decline reason below shows that the scan declined and
that the reader gives the `json` path's result or error text.  A Hypothesis
differential test compares the two on written, re-laid-out and mutated
text."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balanced import files
from balanced.exact import Coded, Configuration, GramMatrix, Scaled, StructuralError
from balanced.files import load_point_input, read_configuration, write_configuration

READERS = (read_configuration, load_point_input)
N = 32  # the fewest points the scan takes
THIRD = [["1", "-1/3"], ["-1/3", "1"]]


def embed(block, n=N, one="1", zero="0"):
    """Gram rows of the block's points followed by points orthogonal to them
    and to each other, n in all."""
    k = len(block)
    return [[block[i][j] if i < k and j < k else one if i == j else zero for j in range(n)]
            for i in range(n)]


def outcome(read, path):
    """The value table, denominator and labels a reader gives, or the type
    and text of its error."""
    try:
        c = read(path)
    except Exception as exc:  # every error, compared by type and text
        return type(exc).__name__, str(exc)
    if not isinstance(c, Configuration):
        return "coords", c.points.tolist(), c.label
    return c.gram.values, c.gram.colours.tolist(), c.gram.den, c.label, c.point_labels


def read_both(path):
    """(whether the scan takes the file, each reader's outcome, each reader's
    outcome with the scan switched off)."""
    scanned = files._scan(path.read_bytes()) is not None
    got = [outcome(read, path) for read in READERS]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(files, "_scan", lambda data: None)
        want = [outcome(read, path) for read in READERS]
    return scanned, got, want


def check(path, text, scanned):
    """Write text, check whether the scan takes it and that both paths give
    the same; return read_configuration's outcome."""
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    taken, got, want = read_both(path)
    assert taken == scanned
    assert got == want
    return got[0]


def gram_text(gram, **fields):
    return json.dumps({**fields, "gram": gram}, indent=2)


# --- the layouts the scan takes ----------------------------------------------


@pytest.mark.parametrize("layout", [
    lambda doc: write_configuration(Configuration.from_gram(doc["gram"], label=doc["label"],
                                                            point_labels=doc["labels"])),
    lambda doc: json.dumps(doc),
    lambda doc: json.dumps(doc, separators=(",", ":")),
    lambda doc: json.dumps(doc, indent=1),
    lambda doc: json.dumps(doc, indent=4),
    lambda doc: json.dumps({"gram": doc["gram"], "labels": doc["labels"]}, indent="\t"),
], ids=["writer", "dumps", "compact", "indent-1", "indent-4", "tab-gram-first"])
def test_the_scan_takes_uniform_layouts(tmp_path, layout):
    block = [["1", "-1/2", "0"], ["-1/2", "1", "-12/125"], ["0", "-12/125", "1"]]
    doc = {"label": "L", "labels": [str(i) for i in range(N)], "gram": embed(block)}
    got = check(tmp_path / "g.json", layout(doc), scanned=True)
    assert got[0] == (Fraction(-1, 2), Fraction(-12, 125), 0, 1)


def test_the_scan_takes_the_kissing_files(tmp_path, e8_kissing):
    text = write_configuration(e8_kissing)
    for layout in (text, json.dumps(json.loads(text), separators=(",", ":"))):
        values, colours, den, label, labels = check(tmp_path / "e8.json", layout, scanned=True)
        assert (values, den, label, labels) == (e8_kissing.gram.values, e8_kissing.gram.den,
                                                e8_kissing.label, e8_kissing.point_labels)
        assert np.array_equal(colours, e8_kissing.gram.colours)


# --- each reason the scan declines -------------------------------------------


def test_fewer_than_32_points_go_to_json(tmp_path):
    path = tmp_path / "g.json"
    assert check(path, gram_text(embed(THIRD, N - 1)), scanned=False)[0] == (
        Fraction(-1, 3), 0, 1)
    assert check(path, gram_text(embed(THIRD, N)), scanned=True)[0] == (Fraction(-1, 3), 0, 1)
    assert check(path, '{"gram": []}', scanned=False) == (
        "InputError", f"{path}: empty configuration")
    assert check(path, '{"gram": [["1"]]}', scanned=False)[0] == (1,)


def test_an_escape_goes_to_json(tmp_path):
    text = gram_text(embed([["1", "X"], ["X", "1"]])).replace('"X"', '"\\u0030"')
    assert check(tmp_path / "g.json", text, scanned=False)[0] == (0, 1)


def test_a_non_ascii_label_goes_to_json(tmp_path):
    text = json.dumps({"label": "é", "gram": embed(THIRD)}, ensure_ascii=False)
    assert check(tmp_path / "g.json", text, scanned=False)[3] == "é"


def test_a_token_longer_than_seven_bytes_goes_to_json(tmp_path):
    long = embed([["1", "-123/125"], ["-123/125", "1"]])
    assert check(tmp_path / "g.json", gram_text(long), scanned=False)[0] == (
        Fraction(-123, 125), 0, 1)
    seven = embed([["1", "-12/125"], ["-12/125", "1"]])
    assert check(tmp_path / "g.json", gram_text(seven), scanned=True)[0] == (
        Fraction(-12, 125), 0, 1)


FLOAT = "1.0 is a float; exact input carries rationals as strings"


def with_entry(gram, i, j, x):
    gram[i][j] = x
    return gram


@pytest.mark.parametrize("gram, result", [
    (embed([[1, 0], [0, 1]], one=1, zero=0), (0, 1)),
    (with_entry(embed(THIRD), 5, 5, 1), (Fraction(-1, 3), 0, 1)),
    (embed([[1.0, 0.0], [0.0, 1.0]], one=1.0, zero=0.0), f"gram[0][0]: {FLOAT}"),
    (with_entry(embed(THIRD), 1, 1, 1.0), f"gram[1][1]: {FLOAT}"),
], ids=["int", "one-int", "float", "one-float"])
def test_number_entries_go_to_json(tmp_path, gram, result):
    path = tmp_path / "g.json"
    got = check(path, gram_text(gram), scanned=False)
    if isinstance(result, str):
        assert got == ("InputError", f"{path}: {result}")
    else:
        assert got[0] == result


def test_a_duplicate_gram_key_goes_to_json(tmp_path):
    text = '{"gram": %s, "gram": %s}' % (json.dumps(embed([])), json.dumps(embed(THIRD)))
    assert check(tmp_path / "g.json", text, scanned=False)[0] == (Fraction(-1, 3), 0, 1)


def test_a_nested_gram_goes_to_json(tmp_path):
    path = tmp_path / "g.json"
    text = json.dumps({"x": {"gram": embed([])}, "gram": embed(THIRD)})
    assert check(path, text, scanned=False)[0] == (Fraction(-1, 3), 0, 1)
    text = json.dumps({"x": {"gram": embed(THIRD)}})
    assert check(path, text, scanned=False) == ("InputError", f"{path}: missing 'gram' field")
    assert outcome(load_point_input, path) == (
        "InputError", f"{path}: expected a 'gram' or 'coords' field")


def test_a_nested_gram_beside_an_empty_one_goes_to_json(tmp_path):
    """The scan finds the nested array first; the rest of the text, with it
    replaced by [], still has a 'gram' that reads [], but a second "gram"."""
    path = tmp_path / "g.json"
    text = json.dumps({"x": {"gram": embed(THIRD)}, "gram": []})
    assert check(path, text, scanned=False) == ("InputError", f"{path}: empty configuration")


def test_text_that_json_would_read_as_utf16_goes_to_json(tmp_path):
    """NUL bytes are ASCII.  Given bytes, json.loads guesses UTF-16-LE from a
    NUL at byte 1 and would read the rest of this text as an object whose
    'gram' is []; the rest is parsed as ASCII text, so it is invalid JSON, as
    the whole file is to the `json` path."""
    path = tmp_path / "g.json"
    array = json.dumps(embed(THIRD), separators=(",", ":")).encode()
    text = ('{"gram": [], "x": "'.encode("utf-16-le") + b'"gram": ' + array
            + '"}'.encode("utf-16-le"))
    got = check(path, text, scanned=False)
    assert got[0] == "InputError" and "invalid JSON" in got[1]


def test_a_control_character_in_a_token_goes_to_json(tmp_path):
    text = gram_text(embed([["1", "X"], ["X", "1"]])).replace('"X"', '"0\t"')
    got = check(tmp_path / "g.json", text, scanned=False)
    assert got[0] == "InputError" and "Invalid control character" in got[1]


def test_one_re_indented_row_goes_to_json(tmp_path):
    text = write_configuration(Configuration.from_gram(embed(THIRD)))
    head, row, rest = text.split("],\n    [", 2)
    text = "],\n    [".join([head, row.replace(",\n      ", ",\n        "), rest])
    assert check(tmp_path / "g.json", text, scanned=False)[0] == (Fraction(-1, 3), 0, 1)


@pytest.mark.parametrize("indent, gap, at", [
    ("writer", ",\n      ", 4), ("writer", "\n    ],\n    [\n      ", 9), (4, ",\n            ", 11),
], ids=["in-row", "row", "second-word"])
def test_a_stray_byte_in_a_later_gap_goes_to_json(tmp_path, indent, gap, at):
    """A gap of the right length is compared byte by byte, past its first 8
    bytes too: one stray byte makes the text invalid JSON."""
    path = tmp_path / "g.json"
    gram = embed(THIRD)
    text = (write_configuration(Configuration.from_gram(gram)) if indent == "writer"
            else json.dumps({"gram": gram}, indent=indent))
    second = text.index(gap, text.index(gap) + 1) + at
    got = check(path, text[:second] + "x" + text[second + 1:], scanned=False)
    assert got[0] == "InputError" and "invalid JSON" in got[1]


def test_a_ragged_row_goes_to_json(tmp_path):
    path = tmp_path / "g.json"
    gram = embed(THIRD)
    gram[1].pop()
    assert check(path, gram_text(gram), scanned=False) == (
        "InputError", f"{path}: row 1 has length {N - 1}, expected {N}")


def test_a_token_that_is_not_a_rational_is_named_by_its_first_entry(tmp_path):
    """The scan takes the file; `exact` names the first bad entry in row-major
    order, here "z" although "a" sorts first among the tokens."""
    path = tmp_path / "g.json"
    gram = embed([["1", "z", "a"], ["z", "1", "0"], ["a", "0", "1"]])
    assert check(path, gram_text(gram), scanned=True) == (
        "InputError", f"{path}: gram[0][1]: not a rational: 'z'")


def test_a_coordinate_file_goes_to_json(tmp_path):
    path = tmp_path / "c.json"
    assert check(path, '{"coords": [[1, 0], [0, 1]]}', scanned=False) == (
        "InputError", f"{path}: missing 'gram' field")
    assert outcome(load_point_input, path) == ("coords", [[1.0, 0.0], [0.0, 1.0]], None)


# --- the Coded input ---------------------------------------------------------


def test_coded_input_equals_the_rows_it_codes():
    rows = [["1", "-1/3", "0"], ["-1/3", "1", "2/6"], ["0", "2/6", "1"]]
    tokens = ("-1/3", "0", "1", "2/6")
    codes = np.array([[2, 0, 1], [0, 2, 3], [1, 3, 2]], dtype=np.intp)
    assert GramMatrix(Coded(tokens, codes)) == GramMatrix(rows)


@pytest.mark.parametrize("codes", [
    np.array([[0, 1], [1, 0]], dtype=np.int32),  # not intp
    np.array([[0, 1], [1, 3]]),  # past the tokens
    np.array([[0, 0], [0, 0]]),  # a token unused
    np.array([[0, -1], [-1, 0]]),
    np.array([0, 1, 1, 0]),
])
def test_a_bad_code_matrix_is_refused(codes):
    with pytest.raises(StructuralError, match="code matrix"):
        GramMatrix(Coded(("1", "0"), codes))


# --- the differential test ---------------------------------------------------


@st.composite
def documents(draw):
    """A Gram document of 32 to 34 points over a drawn denominator: a drawn
    block of up to 6 points, the rest orthogonal, in a drawn order.  Some
    tokens are unreduced, so equal values can have different tokens and some
    are longer than 7 bytes, and the matrix is not always PSD or symmetric."""
    k = draw(st.integers(2, 6))
    den = draw(st.integers(1, 12))
    block = np.full((k, k), den)
    for i in range(k):
        for j in range(i + 1, k):
            block[i, j] = block[j, i] = draw(st.integers(-den, den))
    if draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        block[i, j] += 1
    n = draw(st.integers(N, N + 2))
    order = np.array(draw(st.permutations(range(n))))
    m = np.array(embed(block.tolist(), n, one=den, zero=0))[np.ix_(order, order)]
    where = np.argsort(order)  # where each block point went
    scales = st.sampled_from([1, 1, 1, 2, 10, 100]) if draw(st.booleans()) else st.just(1)
    scale = draw(st.lists(scales, min_size=k * k, max_size=k * k))
    unreduced = {(int(where[i]), int(where[j])): s
                 for (i, j), s in zip([(i, j) for i in range(k) for j in range(k)], scale)}
    gram = [[f"{m[i, j] * unreduced[i, j]}/{den * unreduced[i, j]}"
             if unreduced.get((i, j), 1) != 1 else str(Fraction(int(m[i, j]), den))
             for j in range(n)] for i in range(n)]
    doc = {"gram": gram}
    if draw(st.booleans()):
        doc["label"] = draw(st.text(max_size=4))
    if draw(st.booleans()):
        doc["labels"] = draw(st.lists(st.text(max_size=3), min_size=n, max_size=n))
    if draw(st.booleans()):
        doc = {key: doc[key] for key in reversed(doc)}
    return doc, Scaled(den, m)


def layouts(doc, scaled, indent):
    """The document as the writer writes it, when it is a configuration, or
    as json.dumps writes it."""
    if indent == "writer":
        try:
            c = Configuration.from_gram(scaled, label=doc.get("label"),
                                        point_labels=doc.get("labels"))
        except StructuralError:
            indent = 2
        else:
            return write_configuration(c)
    if indent == "compact":
        return json.dumps(doc, separators=(",", ":"))
    return json.dumps(doc, indent=indent)


INSERTS = [b'"', b",", b"[", b"]", b" ", b"\n", b"\r\n", b"\t", b"\\", b"\\u0031", b"1", b"/",
           b"-", b"x", b"\x00", b"\x1f", "é".encode(), b"\xff", b"{", b"}", b":", b'"gram"']


@st.composite
def mutations(draw, text):
    """text with a few edits: bytes flipped, inserted or deleted, entries
    turned into numbers, escapes or long tokens, keys duplicated or nested, a
    row made ragged."""
    data = text.encode()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["flip", "insert", "delete", "int", "float", "long",
                                     "duplicate", "nest", "ragged", "escape"]))
        at = draw(st.integers(0, len(data)))
        if kind == "flip":
            data = data[:at] + draw(st.sampled_from(INSERTS)) + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + draw(st.sampled_from(INSERTS)) + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 4)):]
        elif kind in ("int", "float", "long", "escape", "ragged"):
            tokens = list(re.finditer(rb'"(-?\d+(?:/\d+)?)"', data))
            if tokens:
                t = tokens[draw(st.integers(0, len(tokens) - 1))]
                value = t.group(1)
                new = {"int": value.split(b"/")[0],
                       "float": value.split(b"/")[0] + b".0",
                       "long": b'"' + value + b'000/1000"' if b"/" not in value
                       else b'"' + value.replace(b"/", b"00/") + b'00"',
                       "escape": b'"\\u00' + b"%x" % value[0] + value[1:] + b'"',
                       "ragged": b""}[kind]
                end = t.end()
                if kind == "ragged":
                    following = re.match(rb"\s*,\s*", data[end:])
                    end += following.end() if following else 0
                data = data[:t.start()] + new + data[end:]
        elif kind == "duplicate":
            data = data.rstrip()[:-1] + b', "gram": [["1", "0"], ["0", "1"]]}'
        elif kind == "nest":
            data = b'{"x": ' + data + b', "gram": [["1"]]}'
    return data


@settings(max_examples=300, deadline=None)
@given(data=st.data(), drawn=documents(),
       indent=st.sampled_from(["writer", None, 1, 2, 4, "compact"]))
def test_scan_and_json_agree(tmp_path_factory, data, drawn, indent):
    doc, scaled = drawn
    text = data.draw(mutations(layouts(doc, scaled, indent)))
    path = tmp_path_factory.getbasetemp() / "differential.json"
    path.write_bytes(text)
    _, got, want = read_both(path)
    assert got == want
