import json
import os

import pytest
from graph_strategies import multipartite_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

from mpturan.constructions import sliced_blowup, turan_blowup
from mpturan.errors import GraphStructureError
from mpturan.graphio import dumps_graph, from_dimacs, loads_graph, to_dimacs, write_text
from mpturan.graphs import MAX_VERTICES


def test_json_round_trip_preserves_graph():
    g = sliced_blowup(2, 10, 3).graph
    doc = dumps_graph(g)
    back = loads_graph(doc)
    assert back.part_sizes == g.part_sizes
    assert list(back.edges()) == list(g.edges())
    assert back.digest() == g.digest()


def test_json_serialization_is_canonical():
    g = turan_blowup(2, 5, 3).graph
    doc = dumps_graph(g)
    assert dumps_graph(loads_graph(doc)) == doc
    parsed = json.loads(doc)
    assert parsed["schema_version"] == 1
    assert parsed["part_sizes"] == [2, 2, 2, 2, 2]
    assert all(u < v for u, v in parsed["edges"])
    assert parsed["edges"] == sorted(parsed["edges"])


def test_dimacs_round_trip():
    g = turan_blowup(1, 6, 3).graph
    text = to_dimacs(g)
    back = from_dimacs(text)
    assert back.part_sizes == g.part_sizes
    assert list(back.edges()) == list(g.edges())
    lines = text.strip().splitlines()
    assert lines[0] == "c part-sizes 1 1 1 1 1 1"
    assert lines[1] == f"p edge 6 {g.edge_count()}"
    assert lines[2].startswith("e ")


def test_dimacs_vertices_are_one_indexed():
    g = turan_blowup(1, 3, 2).graph
    text = to_dimacs(g)
    entries = [line for line in text.splitlines() if line.startswith("e ")]
    endpoints = {int(tok) for line in entries for tok in line.split()[1:]}
    assert min(endpoints) == 1
    assert max(endpoints) == 3


def test_loads_rejects_malformed_documents():
    g = turan_blowup(1, 4, 2).graph
    doc = json.loads(dumps_graph(g))

    bad_version = dict(doc, schema_version=99)
    with pytest.raises(GraphStructureError):
        loads_graph(json.dumps(bad_version))

    missing_parts = {k: v for k, v in doc.items() if k != "part_sizes"}
    with pytest.raises(GraphStructureError):
        loads_graph(json.dumps(missing_parts))

    intra_part = dict(doc, part_sizes=[2, 2], edges=[[0, 1]])
    with pytest.raises(GraphStructureError):
        loads_graph(json.dumps(intra_part))

    with pytest.raises(GraphStructureError):
        loads_graph("not json at all {")

    with pytest.raises(GraphStructureError):
        loads_graph(json.dumps([1, 2, 3]))


def test_from_dimacs_rejects_malformed_documents():
    g = turan_blowup(1, 4, 2).graph
    text = to_dimacs(g)

    no_comment = "\n".join(
        line for line in text.splitlines() if not line.startswith("c part-sizes")
    )
    with pytest.raises(GraphStructureError):
        from_dimacs(no_comment)

    lines = text.splitlines()
    lines[1] = "p edge 4 999"
    with pytest.raises(GraphStructureError):
        from_dimacs("\n".join(lines))

    with pytest.raises(GraphStructureError):
        from_dimacs("c part-sizes 2 2\np edge 4 1\ne 1 2\n")


@settings(max_examples=80, deadline=None)
@given(multipartite_graphs())
def test_round_trip_both_formats(g):
    via_dimacs = from_dimacs(to_dimacs(g))
    via_json = loads_graph(dumps_graph(g))
    assert via_dimacs == g
    assert via_json == g
    assert via_dimacs.digest() == via_json.digest() == g.digest()


@pytest.mark.parametrize(
    "text, where",
    [
        ("c part-sizes 1 1\np edge x 1\n", "line 2"),
        ("c part-sizes 1 1\np edge 2 1\ne 1 z\n", "line 3"),
        ("c part-sizes 2 x\n", "line 1"),
        ("c part-sizes 1 1\ne 0 1\n", "line 2"),
        ("c part-sizes 1 1\ne 1 99999999999\n", "line 2"),
        ("c part-sizes 1 1\ne 1\n", "line 2"),
        ("c part-sizes 1 1\nx 1 2\n", "line 2"),
        # past the first 64 KiB block of the reader
        ("c part-sizes 1 1\n" + "e 1 2\n" * 20000 + "e 0 1\n", "line 20002"),
    ],
)
def test_from_dimacs_names_the_bad_line(text, where):
    with pytest.raises(GraphStructureError, match=where):
        from_dimacs(text)


def test_from_dimacs_reads_crlf_and_comments():
    text = "c made by hand\r\nc part-sizes 1 2\r\n\r\np edge 3 2\r\ne 1 2\r\ne 3 1\r\n"
    g = from_dimacs(text)
    assert g.part_sizes == (1, 2)
    assert list(g.edges()) == [(0, 1), (0, 2)]


@pytest.mark.parametrize(
    "part_sizes, edges",
    [
        ([1, 1], [[0, True]]),
        ([1, 1], [[0, 1.5]]),
        ([1, 1], [[0, 1.0]]),
        ([1, 1], [[0, "1"]]),
        ([1, 1], [[0, 1, 1]]),
        ([1, 1], [0, 1]),
        ([True, 1], []),
        ([1.5, 1], []),
        ([2.0], []),
        ("2", []),
        ([1, 1], {"0": 1}),
    ],
)
def test_json_accepts_only_integer_ids(part_sizes, edges):
    doc = {"schema_version": 1, "part_sizes": part_sizes, "edges": edges}
    with pytest.raises(GraphStructureError):
        loads_graph(json.dumps(doc))


def test_vertex_limit_in_both_formats():
    too_many = MAX_VERTICES + 1
    with pytest.raises(GraphStructureError, match="limit"):
        from_dimacs("c part-sizes 1000000000\n")
    with pytest.raises(GraphStructureError, match="limit"):
        from_dimacs(f"c part-sizes {too_many // 2} {too_many - too_many // 2}\n")
    doc = {"schema_version": 1, "part_sizes": [too_many], "edges": []}
    with pytest.raises(GraphStructureError, match="limit"):
        loads_graph(json.dumps(doc))


_DIMACS_TOKENS = st.one_of(
    st.sampled_from(["c", "p", "e", "edge", "part-sizes", "x", "-1", "0", "1e3", "", "\r"]),
    st.integers(-3, 12).map(str),
    st.sampled_from([str(10**9), str(2**32), "9" * 5000]),
)
_DIMACS_LINES = st.lists(st.lists(_DIMACS_TOKENS, max_size=5).map(" ".join), max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _DIMACS_LINES.map("\n".join)))
def test_from_dimacs_any_text_gives_graph_or_structure_error(text):
    try:
        g = from_dimacs(text)
    except GraphStructureError:
        return
    assert from_dimacs(to_dimacs(g)) == g


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_GRAPH_DOCS = st.fixed_dictionaries(
    {
        "schema_version": st.sampled_from([1, 1, True, 1.0, "1"]),
        "part_sizes": st.lists(st.integers(-1, 4), max_size=4) | _JSON_VALUES,
        "edges": st.lists(st.lists(st.integers(-2, 12), min_size=2, max_size=2)) | _JSON_VALUES,
    }
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _JSON_VALUES.map(json.dumps), _GRAPH_DOCS.map(json.dumps)))
def test_loads_graph_any_text_gives_graph_or_structure_error(text):
    try:
        g = loads_graph(text)
    except GraphStructureError:
        return
    assert loads_graph(dumps_graph(g)) == g


def test_write_text_replaces_longer_contents(tmp_path):
    path = tmp_path / "out.txt"
    write_text(path, "a much longer first version\n")
    write_text(path, "short\n")
    assert path.read_bytes() == b"short\n"
    write_text(path, "caf\u00e9\n")
    assert path.read_bytes() == "caf\u00e9\n".encode("utf-8")


def test_write_text_to_a_device():
    write_text(os.devnull, "discarded\n")
