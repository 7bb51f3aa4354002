"""The file readers on malformed bytes: each read gives a value or raises
InputError or StructuralError, never any other exception.

The inputs are arbitrary bytes and byte mutations (replacements, insertions
and deletions, biased to the bytes JSON and the graph format give meaning to)
of small valid files of every format.  Every reader reads every input."""

import json

from hypothesis import given, settings, strategies as st

from balanced.exact import StructuralError
from balanced.files import (InputError, load_point_input, read_configuration, read_euclidean,
                            read_graph, read_lattice)

READERS = (read_configuration, load_point_input, read_euclidean, read_lattice, read_graph)
THIRD = [["1", "-1/3"], ["-1/3", "1"]]
N = 32  # the fewest points the byte scan of a Gram file takes
VALID = [
    json.dumps({"label": "C3", "labels": ["a", "b", "c"],
                "gram": [["1", "-1/2", "-1/2"], ["-1/2", "1", "-1/2"],
                         ["-1/2", "-1/2", "1"]]}, indent=2).encode(),
    json.dumps({"gram": [[THIRD[i][j] if i < 2 and j < 2 else "1" if i == j else "0"
                          for j in range(N)] for i in range(N)]}).encode(),
    json.dumps({"label": "ring", "coords": [[1, 0], [0, 1.5], [-1e-3, 0], [0, -2]]}).encode(),
    json.dumps({"points": [["0", "0"], ["1/2", "0"]], "period": [["1", "0"], ["0", "1"]],
                "cutoff": "2"}).encode(),
    json.dumps({"label": "A2", "gram": [[2, -1], [-1, 2]]}).encode(),
    b"0 1 1 0\n1 0 0 1\n1 0 0 1\n0 1 1 0\n",
]
MEANINGFUL = b'{}[]",:-+./\\ \t\n0123456789eE' + b"truefalsnul" + b"\x00\x80\xc3\xff"


@st.composite
def mutated(draw):
    data = bytearray(draw(st.sampled_from(VALID)))
    byte = st.one_of(st.sampled_from(MEANINGFUL), st.integers(0, 255))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert":
            data[at:at] = bytes([draw(byte)])
        elif at < len(data):
            data[at:at + 1] = bytes([draw(byte)]) if edit == "replace" else b""
    return bytes(data)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.one_of(st.binary(max_size=2048), mutated()))
def test_a_reader_gives_a_value_or_an_input_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(data)
    for read in READERS:
        try:
            read(str(path))
        except (InputError, StructuralError):
            pass
