import json
import os
import random
import tracemalloc
from array import array
from itertools import islice

import pytest
from graph_strategies import multipartite_graphs
from hypothesis import given, settings
from hypothesis import strategies as st
from text_diff import first_difference

from mpturan import cli, graphio
from mpturan.cli import main
from mpturan.constructions import apex_blowup, sliced_blowup, turan_blowup
from mpturan.errors import GraphStructureError
from mpturan.graphio import (
    dumps_graph,
    from_dimacs,
    graph_from_json_dict,
    loads_graph,
    to_dimacs,
    write_bytes,
)
from mpturan.graphs import MAX_INPUT_BYTES, MAX_VERTICES, complete_multipartite, from_edges


def reference_dimacs(g):
    """The writer's specification: one line per edge, each formatted alone."""
    lines = [
        "c part-sizes " + " ".join(str(s) for s in g.part_sizes),
        f"p edge {g.n_vertices} {g.edge_count()}",
    ]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def reference_parse(text):
    """The reader's specification: every line parsed on its own.

    A malformed line raises ``GraphStructureError`` naming its number; ids
    must fit the reader's unsigned 32-bit endpoint arrays.
    """
    part_sizes, declared, edges = None, None, []
    for lineno, raw in enumerate(text.splitlines(), 1):
        fields = raw.split()
        try:
            if not fields or fields[0] == "c" and fields[1:2] != ["part-sizes"]:
                continue
            if fields[0] == "e":
                _, u, v = fields
                u, v = int(u) - 1, int(v) - 1
                if not (0 <= u < 2**32 and 0 <= v < 2**32):
                    raise ValueError
                edges.append((u, v))
            elif fields[0] == "c":
                part_sizes = [int(x) for x in fields[2:]]
            elif fields[0] == "p" and len(fields) == 4 and fields[1] == "edge":
                declared = (int(fields[2]), int(fields[3]))
            else:
                raise ValueError
        except ValueError:
            raise GraphStructureError(f"line {lineno}: malformed") from None
    if part_sizes is None:
        raise GraphStructureError("missing part sizes")
    if declared is not None and declared != (sum(part_sizes), len(edges)):
        raise GraphStructureError("problem line disagrees")
    return from_edges(part_sizes, edges)


def read_outcome(read, text):
    """The graph ``read`` gives, or the line number its error names (None
    for an error that names no line)."""
    try:
        return read(text)
    except GraphStructureError as exc:
        message = str(exc)
        return int(message.split(":")[0][5:]) if message.startswith("line ") else None


def reorder_edge_lines(text, reorder):
    """``text`` with its edge lines, as a list, replaced by ``reorder(list)``."""
    lines = text.splitlines(keepends=True)
    header = [line for line in lines if not line.startswith("e ")]
    edges = [line for line in lines if line.startswith("e ")]
    return "".join(header + reorder(edges))


def interleave(lines, step=97):
    """Every ``step``-th line from each offset, so that no two neighbors of
    the result were neighbors before; a cheap stand-in for a shuffle of
    millions of lines."""
    return [line for i in range(step) for line in lines[i::step]]


# (method, n, r, t): the DIMACS graphs of the benchmark's certify workload,
# each with the number of its lines that the reader parses one by one (the
# header block) and the number it reads in one split per run
CERTIFY_GRAPHS = {
    ("sliced", 60, 10, 3): (2, 3504),
    ("turan", 60, 10, 3): (2, 540),
    ("apex", 40, 14, 6): (2, 6316),
    ("composition", 60, 5, 3): (2, 1473),
    ("sliced", 200, 13, 3): (2, 19625),
}


def constructed_graph(tmp_path, method, n, r, t):
    """The graph ``construct --method method`` builds."""
    builders = {"sliced": sliced_blowup, "turan": turan_blowup, "apex": apex_blowup}
    if method in builders:
        return builders[method](n, r, t).graph
    path = tmp_path / "graph.json"
    argv = ["construct", "--method", method, "--n", str(n), "--r", str(r),
            "--t", str(t), "--format", "json", "--out", str(path)]
    assert main(argv) == 0
    return graph_from_json_dict(json.loads(path.read_text())["graph"])


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


def twin_text(edits=(), newline="\n"):
    """DIMACS text in which vertices 1 to 4 are twins joined to 5, 6 and 7.

    Lines 3-5 hold vertex 1's run, 6-8 vertex 2's, 9-11 vertex 3's and
    12-14 vertex 4's, so a reader that matches repeated runs can take
    vertices 2 to 4 without parsing them. Each (lineno, text) in
    ``edits`` replaces that line; the ``p edge`` line counts the edge
    lines after the edits.
    """
    lines = [f"e {u} {v}" for u in (1, 2, 3, 4) for v in (5, 6, 7)]
    lines = ["c part-sizes 4 4", None] + lines
    for lineno, text in edits:
        lines[lineno - 1] = text
    body = "\n".join(lines[2:]).splitlines()
    lines[1] = f"p edge 8 {sum(line.split()[:1] == ['e'] for line in body)}"
    return newline.join(lines) + newline


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
        # runs of twins, which the reader may take without parsing them
        (twin_text([(13, "e 4 6 x")]), "line 13"),
        (twin_text([(10, "e 3 8"), (11, "e 3 z")]), "line 11"),
        (twin_text([(11, "e 3 7\ne 3 8\ne 3 8 8")]), "line 13"),
        (twin_text([(13, "e 4 6 x")], newline="\r\n"), "line 13"),
        (twin_text([(9, "e 3 5\x0b"), (13, "e 4 6 x")]), "line 14"),
        (twin_text([(10, "e 3 6\x85"), (13, "e 4 6 x")]), "line 14"),
        (twin_text([(7, "e 2 6\n"), (10, "e 3 6\n"), (13, "e 4 6 x")]), "line 15"),
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


def _complete_graph_dimacs_bytes(n):
    """Length of ``to_dimacs`` of n parts of one vertex, every cross pair an
    edge, counted without writing it: each vertex name appears on n - 1
    lines of the form ``e u v``."""
    names = sum(len(str(v)) for v in range(1, n + 1))
    header = len("c part-sizes \n") + 2 * n - 1 + len(f"p edge {n} {n * (n - 1) // 2}\n")
    return header + 4 * (n * (n - 1) // 2) + names * (n - 1)


def test_the_densest_file_within_the_vertex_limit_fits_the_byte_cap():
    for n in (1, 2, 9, 10, 150):
        graph = complete_multipartite([1] * n)
        assert _complete_graph_dimacs_bytes(n) == len(to_dimacs(graph))
    assert _complete_graph_dimacs_bytes(MAX_VERTICES) == 1_697_016_710
    assert _complete_graph_dimacs_bytes(MAX_VERTICES) < MAX_INPUT_BYTES


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


def test_write_bytes_replaces_longer_contents(tmp_path):
    path = tmp_path / "out.txt"
    write_bytes(path, [b"a much longer first version\n"])
    write_bytes(path, [b"short\n"])
    assert path.read_bytes() == b"short\n"
    write_bytes(path, ["caf\u00e9\n".encode()])
    assert path.read_bytes() == "caf\u00e9\n".encode("utf-8")
    # pieces past one batch, then a shorter text over them
    pieces = ["caf\u00e9 ".encode() * 1000] * 300
    write_bytes(path, iter(pieces))
    assert path.read_bytes() == b"".join(pieces)
    write_bytes(path, [b"short", b"\n"])
    assert path.read_bytes() == b"short\n"


def test_write_bytes_to_a_device():
    write_bytes(os.devnull, [b"discarded\n"])


def test_write_bytes_of_no_chunks_empties_the_file(tmp_path):
    path = tmp_path / "out.txt"
    write_bytes(path, [b"old contents\n"])
    write_bytes(path, [])
    assert path.read_bytes() == b""


@pytest.mark.parametrize("size", [10, 3 << 20])
def test_write_bytes_leaves_no_old_tail_when_a_chunk_fails(tmp_path, size):
    # the new bytes, short or past the file object's buffer, then a
    # failure, over a file twice as long
    path = tmp_path / "out.txt"
    path.write_bytes(b"x" * (2 * size))
    data = "caf\u00e9\n".encode() * (size // 6)

    def failing_chunks():
        yield data
        raise RuntimeError("no more chunks")

    with pytest.raises(RuntimeError, match="no more chunks"):
        write_bytes(path, failing_chunks())
    assert path.read_bytes() == data


@pytest.mark.parametrize("lines", [700, 7000])
def test_write_bytes_takes_one_bytearray_rewritten_between_pieces(tmp_path, lines):
    # the runs of one twin class under the heads 1 to 30, most of them one
    # bytearray patched in place, each shorter than the file's buffer and
    # copied into it, or longer and written as it is, before the next is made
    pieces = [b"", *(b"%d\n" % v for v in range(1000, 1000 + lines))]
    path = tmp_path / "out.col"
    write_bytes(path, islice(graphio._twin_runs(pieces, 0), 30))
    want = b"".join(b"e %d %s" % (h, piece) for h in range(1, 31) for piece in pieces[1:])
    assert first_difference(path.read_bytes(), want) is None


def _twins_text(count, edits=(), others=2, newline="\n"):
    """Vertices 1 to ``count`` are twins of part 0, each joined to the
    ``others`` vertices of part 1. Each (vertex, text) in ``edits`` replaces
    that vertex's run. With ``count`` past 9 or 99 the run of the next
    vertex has a head one digit longer than its template's."""
    runs = {
        u: newline.join(f"e {u} {v}" for v in range(count + 1, count + others + 1))
        for u in range(1, count + 1)
    }
    runs.update(edits)
    return f"c part-sizes {count} {others}" + newline + newline.join(runs.values()) + newline


def _short_head_text():
    """Vertices 1 to 12 are twins joined to 13 and 14, with a stray
    ``e 1 13`` before vertex 10's run and vertex 11 also joined to 3.
    Read with the prefix ``e 10 `` cut off, the stray line would turn
    ``e 11 3``, which joins two vertices of part 0, into ``e 11 13``."""
    runs = [f"e {u} 13\ne {u} 14" for u in range(1, 13)]
    runs[9] = "e 1 13\n" + runs[9]
    runs[10] = "e 11 3\n" + runs[10]
    return "c part-sizes 12 3\n" + "\n".join(runs) + "\n"


def _single_lines_text(edits=()):
    """The edges of K(3, 3, 3), ordered by their higher end and then by
    falling head, so that each line is a run of one line that no twin
    follows. Each (line index, text) in ``edits`` replaces that edge line,
    which is line index + 2."""
    edges = sorted(complete_multipartite([3, 3, 3]).edges(), key=lambda e: (e[1], -e[0]))
    lines = [f"e {u + 1} {v + 1}" for u, v in edges]
    for i, line in edits:
        lines[i] = line
    return "c part-sizes 3 3 3\n" + "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text",
    [
        twin_text(),
        twin_text(newline="\r\n"),
        # repeats the previous run's first line, then diverges
        twin_text([(10, "e 3 8"), (11, "e 3 6")]),
        # longer than the previous run, the extra line under the same head
        twin_text([(11, "e 3 7\ne 3 8")]),
        # shorter than the previous run
        twin_text([(14, "")]),
        twin_text([(9, "e 3 5\x0b"), (12, "e 4 5\x85")]),
        twin_text([(10, "c note\ne 3 6")]),
        # spacing other than the writer's, in a template run and a twin run
        twin_text([(7, "e 2  6")]),
        twin_text([(6, "e\t2 5")]),
        twin_text([(13, "e 4\t6")], newline="\r\n"),
        twin_text([(13, "e 04 6")]),
        # the same line in both runs, not under the run's head
        twin_text([(7, "e\t2 6"), (10, "e\t2 6")]),
        # a run whose first line is under another head
        twin_text([(6, "e 1 5"), (9, "e 2 5")]),
        _short_head_text(),
        # a run that repeats the previous one under a head that is not next
        twin_text([(9, "e 1 5"), (10, "e 1 6"), (11, "e 1 7")]),
        # twins across the digit boundaries 9 -> 10 and 99 -> 100
        pytest.param(_twins_text(12), id="twins-1-12"),
        pytest.param(_twins_text(101), id="twins-1-101"),
        # the first longer head's run diverges, or keeps the old head
        pytest.param(_twins_text(12, {10: "e 10 13"}), id="twins-1-12-short-10"),
        pytest.param(
            _twins_text(101, {100: "e 100 102\ne 100 103\ne 100 1"}),
            id="twins-1-101-long-100",
        ),
        pytest.param(_twins_text(12, {10: "e 9 13\ne 9 14"}), id="twins-1-12-head-9-at-10"),
        pytest.param(
            _twins_text(101, {100: "e 10 102\ne 10 103"}), id="twins-1-101-head-10-at-100"
        ),
        # vertex 2's run, lines 6-8, is a block of its own, read in one
        # split; an id there that fits no 0-based unsigned 32-bit entry
        # sends the block to the line parser
        *(
            pytest.param(twin_text([(5 + k, f"e 2 {v}")]), id=f"run-line-{k}-{name}")
            for k in (1, 2, 3)
            for name, v in [("0", 0), ("2**32+1", 2**32 + 1), ("5000-digits", "9" * 5000)]
        ),
        # vertex 1's run, lines 3-5, ends the header block and is read in
        # one split too, also after a comment or a line the writer would
        # not write
        *(
            pytest.param(twin_text([(2 + k, f"e 1 {v}")]), id=f"first-run-line-{k}-{name}")
            for k in (1, 2, 3)
            for name, v in [("0", 0), ("2**32+1", 2**32 + 1)]
        ),
        pytest.param(twin_text([(3, "c note\ne 1 5")]), id="first-run-after-comment"),
        pytest.param(twin_text([(3, " e 1 5")]), id="first-run-after-indented-line"),
        # edge lines one by one, in an order where few are followed by
        # their twin, with ids out of range, leading zeros, other endings
        *(
            pytest.param(_single_lines_text(edits), id=f"single-lines-{k}")
            for k, edits in enumerate(
                [
                    [],
                    [(5, "e 0 3")],
                    [(5, "e 3 0")],
                    [(5, "e 4294967297 3")],
                    [(5, "e 3 4294967297")],
                    [(5, "e 3 " + "9" * 5000)],
                    [(5, "e 4 09")],
                    [(5, "e 04 9")],
                    [(0, "e 8 9\r"), (1, "e 7 9 ")],
                    # a line that repeats the one before it under the next
                    # head: a run of one line with a twin, read as a group
                    [(3, "e 4 7"), (4, "e 5 7")],
                ]
            )
        ),
        # a run under head h after vertex 3's twin run is a block of its own
        *(
            pytest.param(
                twin_text([(12, f"e {h} 5"), (13, f"e {h} 6"), (14, f"e {h} 7")]),
                id=f"run-head-{h}",
            )
            for h in ("0", "04", "4294967297")
        ),
    ],
)
def test_twin_runs_read_like_the_reference(text):
    assert read_outcome(from_dimacs, text) == read_outcome(reference_parse, text)


def test_twin_runs_cross_digit_boundaries_unparsed(monkeypatch):
    # the header block is parsed; the first run is read in one split and
    # becomes the template, which every later run repeats, the longer
    # heads included
    blocks = _record_parsed_blocks(monkeypatch)
    groups = _record_groups(monkeypatch)
    g = from_dimacs(_twins_text(101))
    assert g == complete_multipartite([101, 2])
    assert _line_count(blocks) == 1
    assert _split_count(groups) == 2


def test_twin_free_dimacs_parses_only_its_header_block(monkeypatch):
    # every run is a block of its own, read in one split
    rng = random.Random(7)
    edges = [
        (u, v)
        for u in range(60)
        for v in range(u + 1, 60)
        if u // 10 != v // 10 and rng.random() < 0.5
    ]
    g = from_edges([10] * 6, edges)
    text = to_dimacs(g)
    blocks = _record_parsed_blocks(monkeypatch)
    groups = _record_groups(monkeypatch)
    assert from_dimacs(text) == g
    assert blocks == [text[: text.index("\ne 1 ") + 1]]
    assert all(len(heads) == 1 for heads, _ in groups)


@pytest.mark.parametrize("construction", CERTIFY_GRAPHS, ids=lambda c: "{}{}".format(*c[:1], c[1:]))
def test_dimacs_matches_the_references_on_constructions(tmp_path, monkeypatch, construction):
    g = constructed_graph(tmp_path, *construction)
    text = to_dimacs(g)
    assert first_difference(text, reference_dimacs(g)) is None
    # the reordered copy has the same lines, so one reference reading serves both
    reordered = reorder_edge_lines(text, interleave)
    expected = reference_parse(reordered)
    assert expected == g
    blocks = _record_parsed_blocks(monkeypatch)
    groups = _record_groups(monkeypatch)
    assert from_dimacs(text) == expected
    assert (_line_count(blocks), _split_count(groups)) == CERTIFY_GRAPHS[construction]
    assert from_dimacs(reordered) == expected


@pytest.mark.parametrize(
    "g",
    [
        # each vertex's higher neighbors are the previous vertex's, minus
        # the vertex itself
        complete_multipartite([1, 1, 1, 1]),
        complete_multipartite([2, 1, 2]),
        from_edges([1, 2, 1], [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]),
    ],
)
def test_to_dimacs_matches_the_reference_writer(g):
    text = to_dimacs(g)
    assert first_difference(text, reference_dimacs(g)) is None
    assert from_dimacs(text) == g


@settings(max_examples=80, deadline=None)
@given(multipartite_graphs(), st.randoms(use_true_random=False))
def test_dimacs_matches_the_references(g, rng):
    text = to_dimacs(g)
    assert first_difference(text, reference_dimacs(g)) is None
    assert from_dimacs(text) == reference_parse(text) == g
    shuffled = reorder_edge_lines(text, lambda lines: rng.sample(lines, len(lines)))
    assert from_dimacs(shuffled) == reference_parse(shuffled)


_LINE_EDITS = st.sampled_from(
    [
        lambda line: "",
        lambda line: line + "\r",
        lambda line: line + "\x0b",
        lambda line: line + "\x85",
        lambda line: line + "\n" + line,
        lambda line: "c " + line,
        lambda line: line + " 1",
        lambda line: line.replace(" ", "  ", 1),
        lambda line: line[:-1] + "x",
        lambda line: line[:-1] + "0",
        lambda line: line + "\ne 1 2",
        lambda line: line.replace(" ", "\t", 1),
        lambda line: "e 1" + line[line.find(" ", 2):],
    ]
)


@settings(max_examples=200, deadline=None)
@given(multipartite_graphs(), st.lists(st.tuples(st.integers(0, 10**6), _LINE_EDITS), max_size=4))
def test_edited_dimacs_reads_like_the_reference(g, edits):
    lines = to_dimacs(g).splitlines()
    for i, edit in edits:
        lines[i % len(lines)] = edit(lines[i % len(lines)])
    text = "\n".join(lines) + "\n"
    assert read_outcome(from_dimacs, text) == read_outcome(reference_parse, text)


# line breaks and spaces that str.splitlines and str.split know and a
# bytes reader might not, and leads of blank lines and non-ASCII comments
_SEPARATORS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029", "\xa0", "\u3000", "\t"]
_LEADS = ["", "\n", "\n\n", "\r\n \n", "c caf\u00e9 \u00fcber \u4e2d\n", "\n\u3000\nc \u2603\n"]


def message_or_graph(read, data):
    try:
        return read(data)
    except GraphStructureError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    multipartite_graphs(),
    st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_SEPARATORS)), max_size=4),
    st.sampled_from(_LEADS),
    st.booleans(),
)
def test_from_dimacs_reads_bytes_as_it_reads_text(g, inserts, lead, crlf):
    text = to_dimacs(g)
    if crlf:
        text = text.replace("\n", "\r\n")
    for i, extra in inserts:
        i %= len(text) + 1
        text = text[:i] + extra + text[i:]
    text = lead + text
    data = text.encode("utf-8")
    assert message_or_graph(from_dimacs, data) == message_or_graph(from_dimacs, text)
    assert read_outcome(from_dimacs, data) == read_outcome(reference_parse, text)


@pytest.mark.parametrize(
    "data",
    [
        b"c part-sizes 1 1\nc \xff\n",
        "c part-sizes 1 1\nc caf\u00e9\n".encode() + b"e 1 \xc3",
        # past the reader's first window of bytes
        b"c part-sizes 1 1\n" + b"e 1 2\n" * 50000 + b"c \xe2\x82\n",
    ],
    ids=["invalid-start", "truncated", "past-window"],
)
def test_from_dimacs_refuses_bytes_that_are_not_utf8(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        expected = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    with pytest.raises(GraphStructureError) as raised:
        from_dimacs(data)
    assert str(raised.value) == expected


def _record_parsed_blocks(monkeypatch):
    """Make ``from_dimacs`` record each block it parses line by line."""
    blocks = []
    parse = graphio._LineParser.parse

    def recording_parse(self, block):
        blocks.append(block)
        return parse(self, block)

    monkeypatch.setattr(graphio._LineParser, "parse", recording_parse)
    return blocks


def _line_count(blocks):
    return sum(len(block.splitlines()) for block in blocks)


def _record_groups(monkeypatch):
    """Make ``from_dimacs`` record the groups it hands to ``from_edges``:
    one per run read in one split, with the range of its head and the heads
    of its twins."""
    groups = []

    def recording_from_edges(part_sizes, edges, run_groups):
        groups.extend(run_groups)
        return from_edges(part_sizes, edges, run_groups)

    monkeypatch.setattr(graphio, "from_edges", recording_from_edges)
    return groups


def _split_count(groups):
    """Lines read in one split: each group's run, not its twins."""
    return sum(len(neighbors) for _, neighbors in groups)


def test_from_dimacs_parses_repeated_runs_once(monkeypatch):
    g = sliced_blowup(60, 10, 3).graph
    text = to_dimacs(g)
    blocks = _record_parsed_blocks(monkeypatch)
    assert from_dimacs(text) == g
    assert _line_count(blocks) < len(text.splitlines()) // 10


def test_from_dimacs_makes_templates_of_runs_longer_than_64_kib(monkeypatch):
    # each vertex of the first part has a run of 12,000 lines, about 120 KB;
    # only the header block is parsed, and the first run is read in one
    # split and becomes the template that the other three repeat
    g = complete_multipartite([4, 12000])
    text = to_dimacs(g)
    blocks = _record_parsed_blocks(monkeypatch)
    groups = _record_groups(monkeypatch)
    assert from_dimacs(text).digest() == g.digest()
    assert _line_count(blocks) == 2  # the header
    assert _split_count(groups) == 12000


def test_from_dimacs_blocks_after_a_vertex_without_run_stay_small(monkeypatch):
    # in the block composition many vertices have no later neighbors and
    # write no run; the run after such a vertex still ends its block at the
    # next run's start and becomes a template, so few of the 44,975 lines
    # are parsed, and no block runs far past 64 KiB
    g = cli._composition_from_defaults(60, 5, 3, 2).graph
    text = to_dimacs(g)
    blocks = _record_parsed_blocks(monkeypatch)
    assert from_dimacs(text) == g
    assert _line_count(blocks) <= 1622
    longest = max(len(block) for block in blocks)
    assert longest <= (1 << 16) + len(max(text.splitlines(), key=len)) + 1


def test_from_dimacs_reads_runs_after_vertices_without_one_in_one_split(monkeypatch):
    # the even vertices of part 0 join all of part 1 and the odd ones join
    # nothing, so no run is followed by the next vertex's; each run is still
    # a block of its own, and only the two header lines are parsed one by one
    g = from_edges([200, 2000], [(u, v) for u in range(0, 200, 2) for v in range(200, 2200)])
    text = to_dimacs(g)
    blocks = _record_parsed_blocks(monkeypatch)
    groups = _record_groups(monkeypatch)
    assert from_dimacs(text) == g
    assert _line_count(blocks) == 2
    assert _split_count(groups) == 200000


def test_from_dimacs_reads_trailing_space_files_in_windows(monkeypatch):
    # no line matches a run, so after the header the lines go to the parser
    # in blocks that start at one line and each span twice the bytes of the
    # one before, up to a window, not one block per line or per vertex
    g = sliced_blowup(60, 10, 3).graph
    text = to_dimacs(g).replace("\n", " \n")
    blocks = _record_parsed_blocks(monkeypatch)
    assert from_dimacs(text) == g
    assert blocks[0] == text[: text.index("\ne ") + 1]
    assert len(blocks[1].splitlines()) == 1
    longest = len(max(text.splitlines(keepends=True), key=len))
    for before, block in zip(blocks[1:-1], blocks[2:-1]):
        reach = min(2 * len(before), graphio._WINDOW)
        assert reach <= len(block) < reach + longest
    # at most 18 doublings from one line to the window, then whole windows
    assert len(blocks) <= 1 + 18 + len(text) // graphio._WINDOW + 1


def _refused_lines_text(g, every, bad=None):
    """``to_dimacs(g)`` with a trailing space, which the run pattern
    refuses, on every ``every``-th line from line 3 and on the two lines
    after the second of them, so that three refused lines follow each other
    there; with line ``bad`` (0-based) replaced by a malformed edge line."""
    lines = to_dimacs(g).splitlines(keepends=True)
    refused = [*range(2, len(lines), every), 3 + every, 4 + every]
    for i in refused:
        lines[i] = lines[i][:-1] + " \n"
    if bad is not None:
        lines[bad] = "e 1 x\n"
    return "".join(lines), len(refused)


def test_from_dimacs_parses_a_few_refused_lines_one_by_one(monkeypatch):
    # each refused line is a block of one line, a little more right after
    # another, and the rest of its run matches as a run again, so the parser
    # sees only the header and about those lines, where a window of about
    # 23,000 lines once followed each of them
    g = sliced_blowup(60, 10, 3).graph
    text, refused = _refused_lines_text(g, 500)
    blocks = _record_parsed_blocks(monkeypatch)
    assert from_dimacs(text) == g
    assert 2 + refused <= _line_count(blocks) <= 2 + refused + 3


@pytest.mark.parametrize("bad", [1, 2, 3, 51, 52, 53, 54, 55, 56, 60, 101, 102, 5000, -1])
def test_refused_lines_keep_the_line_number_of_an_error(bad):
    text, _ = _refused_lines_text(sliced_blowup(20, 10, 3).graph, 50, bad)
    expected = read_outcome(reference_parse, text)
    assert isinstance(expected, int)
    assert read_outcome(from_dimacs, text) == expected


def test_from_dimacs_reads_a_run_in_one_split_before_a_line_under_its_head(monkeypatch):
    # vertex 1's run, lines 3-5, is followed by a line under head 1 with
    # another spacing; the run is still one group, read in one split, and
    # after that line, a block of one line, the runs of vertices 2 to 4 are
    # one group again
    text = twin_text([(5, "e 1 7\ne 1  8")])
    groups = _record_groups(monkeypatch)
    g = from_dimacs(text)
    assert g == reference_parse(text)
    assert groups == [(range(1), array("I", [4, 5, 6])), (range(1, 4), array("I", [4, 5, 6]))]


def test_from_dimacs_checks_repeated_run_ids_before_allocating():
    # vertex 2's run becomes a template, and every later run repeats it
    # under the next head, up to ids far past the two vertices declared
    text = "c part-sizes 1 1\n" + "".join(f"e {k} 1\n" for k in range(1, MAX_VERTICES + 10))
    tracemalloc.start()
    try:
        with pytest.raises(GraphStructureError, match="out of range"):
            from_dimacs(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(text)


def test_from_dimacs_counts_skipped_runs_against_the_problem_line():
    g = sliced_blowup(60, 10, 3).graph
    edges = g.edge_count()
    text = to_dimacs(g).replace(f"p edge 600 {edges}\n", f"p edge 600 {edges + 1}\n")
    with pytest.raises(GraphStructureError, match=f"declares {edges + 1} edges, found {edges}"):
        from_dimacs(text)


def _record_templates(monkeypatch):
    """Make the writer and the reader record the layout ``_stretches`` finds
    for each twin class, one (line count, piece length) per stretch, where
    its twins are patched, and the head of each twin run patched in place
    rather than joined. A class whose twins are all joined records none."""
    layouts, patched = [], []
    stretches, twin_runs = graphio._stretches, graphio._twin_runs

    def recording_stretches(pieces, run, prefix):
        layout = stretches(pieces, run, prefix)
        if layout:
            layouts.append(layout)
        return layout

    def recording_twin_runs(pieces, head):
        for head, run in enumerate(twin_runs(pieces, head), head + 1):
            if type(run) is bytearray:
                patched.append(head)
            yield run

    monkeypatch.setattr(graphio, "_stretches", recording_stretches)
    monkeypatch.setattr(graphio, "_twin_runs", recording_twin_runs)
    return layouts, patched


@pytest.mark.parametrize(
    "part_sizes, stretch_lines",
    [
        # twins 1-15 over the neighbor boundary 99 -> 100, their heads
        # over 9 -> 10
        ([15, 120], [84, 36]),
        # three lines a run, joined, across the heads 9, 99 and 999
        ([1005, 3], []),
        # forty lines a run, patched, across the same heads
        ([1005, 40], [40]),
        # the neighbors of part 0 cross 99 -> 100 and 999 -> 1000
        ([95, 40, 900], [4, 900, 36]),
    ],
)
def test_twin_runs_are_written_and_read_across_digit_boundaries(
    monkeypatch, part_sizes, stretch_lines
):
    g = complete_multipartite(part_sizes)
    first = range(1, part_sizes[0] + 1)
    layouts, patched = _record_templates(monkeypatch)
    text = to_dimacs(g)
    written = layouts[:]
    assert [lines for lines, _ in (written[0] if written else [])] == stretch_lines
    # the writer patches each run of the first class but the first of its
    # head width
    want = [h for h in first[1:] if stretch_lines and len(str(h)) == len(str(h - 1))]
    assert [h for h in patched if h in first] == want
    assert first_difference(text, reference_dimacs(g)) is None
    layouts.clear()
    patched.clear()
    groups = _record_groups(monkeypatch)
    assert from_dimacs(text) == g
    # the reader finds the writer's layouts from the bytes alone, and joins
    # the first twin, at head 2, which it compares before any is patched
    assert layouts == written
    assert [h for h in patched if h in first] == [h for h in want if h != 2]
    assert [len(heads) for heads, _ in groups][:1] == [part_sizes[0]]


_EDIT_ONE_LINE = pytest.mark.parametrize(
    "edit",
    [
        lambda u, v: f"e {u} {v + 1}",  # one neighbor digit
        lambda u, v: f"e {u + 1} {v}",  # one head digit
        lambda u, v: f"e {u} {v}\r",  # one line ending
        lambda u, v: f"e {u} 0{v}",  # one leading zero on the neighbor
        lambda u, v: f"e 0{u} {v}",  # one leading zero on the head
    ],
    ids=["neighbor", "head", "crlf", "zero-neighbor", "zero-head"],
)


@pytest.mark.parametrize("u", [2, 9, 10, 12])
@pytest.mark.parametrize("i", [0, 86, 87, 149])
@_EDIT_ONE_LINE
def test_patched_twin_runs_read_like_the_reference(u, i, edit):
    # vertices 1 to 12 are twins joined to the 150 vertices of part 1, so
    # each run has a stretch of 87 lines (neighbors 13 to 99) and one of 63
    # (100 to 162), and the head gains a digit at vertex 10; line i of
    # vertex u's run is edited
    run = [f"e {u} {v}" for v in range(13, 163)]
    run[i] = edit(u, 13 + i)
    text = _twins_text(12, {u: "\n".join(run)}, others=150)
    assert read_outcome(from_dimacs, text) == read_outcome(reference_parse, text)


@pytest.mark.parametrize("u", [20, 21, 30])
@pytest.mark.parametrize("i", [0, 66, 67, 149])
@_EDIT_ONE_LINE
def test_patched_twin_runs_read_like_the_reference_across_a_carry(monkeypatch, u, i, edit):
    # vertices 1 to 32 are twins joined to the 150 vertices of part 1, so
    # each run has a stretch of 67 lines (neighbors 33 to 99) and one of 83
    # (100 to 182); the twins under heads 3 to 9 and 11 to 32 are patched,
    # and the heads 19 -> 20 and 29 -> 30 carry into the tens digit. Line
    # i of vertex u's run is edited, so the twins before it are one class:
    # a reader whose carry rewrote only the last digit would compare vertex
    # 20's run with one under head 10 and end that class at vertex 19
    run = [f"e {u} {v}" for v in range(33, 183)]
    run[i] = edit(u, 33 + i)
    text = _twins_text(32, {u: "\n".join(run)}, others=150)
    groups = _record_groups(monkeypatch)
    assert read_outcome(from_dimacs, text) == read_outcome(reference_parse, text)
    assert groups[0][0] == range(u - 1)


def test_twin_runs_read_in_crlf_are_patched(monkeypatch):
    # one layout for the class, a stretch of 87 pieces ``v\r\n`` of two
    # digits and 63 of three; the twins under heads 3 to 9 and 11 to 12 are
    # patched, those under 2 and 10 joined
    layouts, patched = _record_templates(monkeypatch)
    groups = _record_groups(monkeypatch)
    g = from_dimacs(_twins_text(12, others=150, newline="\r\n"))
    assert g == complete_multipartite([12, 150])
    assert layouts == [[(87, 4), (63, 5)]]
    assert patched == [*range(3, 10), 11, 12]
    assert [heads for heads, _ in groups] == [range(12)]


def test_a_run_whose_line_lengths_alternate_is_joined(monkeypatch):
    # every other line ends in CRLF, so each stretch is one line long and
    # each twin's run is joined from the pieces, not patched
    lines = [f"e {u} {v}" + ("\r\n" if v % 2 else "\n")
             for u in range(1, 41) for v in range(41, 141)]
    text = "c part-sizes 40 100\n" + "".join(lines)
    layouts, patched = _record_templates(monkeypatch)
    groups = _record_groups(monkeypatch)
    assert from_dimacs(text) == reference_parse(text) == complete_multipartite([40, 100])
    assert layouts == []
    assert patched == []
    assert [heads for heads, _ in groups] == [range(40)]
    assert _split_count(groups) == 100


def test_a_template_is_checked_on_the_run_it_is_built_from(monkeypatch):
    # vertices 1 to 12 join the 150 vertices of part 1 listed as 13-60,
    # 100-130, 61-99 and 131-162, so the piece lengths do not ascend:
    # bisection alone takes the run for 48 lines of three-byte pieces and
    # 102 of four, a layout that does not fit the run's bytes, so the twins
    # are joined, not patched
    order = [*range(13, 61), *range(100, 131), *range(61, 100), *range(131, 163)]
    text = "c part-sizes 12 150\n" + "".join(f"e {u} {v}\n" for u in range(1, 13) for v in order)
    layouts, patched = _record_templates(monkeypatch)
    groups = _record_groups(monkeypatch)
    assert from_dimacs(text) == complete_multipartite([12, 150])
    assert layouts == []
    assert patched == []
    assert [heads for heads, _ in groups] == [range(12)]
    # in the writer's order the same runs get their two stretches, one
    # layout for the class, and the twins under heads 3 to 9 and 11 to 12
    # are patched
    text = to_dimacs(complete_multipartite([12, 150]))
    layouts.clear()
    patched.clear()
    assert from_dimacs(text) == complete_multipartite([12, 150])
    assert layouts == [[(87, 3), (63, 4)]]
    assert patched == [*range(3, 10), 11, 12]


def test_from_dimacs_reads_a_shuffled_file_as_single_edges(monkeypatch):
    # a line whose head is not the one before it plus one is a run no twin
    # follows, and goes to the parser's edge arrays without becoming a group
    g = sliced_blowup(60, 10, 3).graph
    rng = random.Random(5)
    text = reorder_edge_lines(to_dimacs(g), lambda lines: rng.sample(lines, len(lines)))
    blocks = _record_parsed_blocks(monkeypatch)
    groups = _record_groups(monkeypatch)
    assert from_dimacs(text) == g
    assert _line_count(blocks) == 2
    assert len(groups) < g.edge_count() // 100


def test_one_line_runs_with_twins_stay_one_group(monkeypatch):
    # every vertex of part 0 joins the one vertex of part 1
    groups = _record_groups(monkeypatch)
    assert from_dimacs(to_dimacs(complete_multipartite([50, 1]))) == complete_multipartite([50, 1])
    assert groups == [(range(50), array("I", [50]))]
