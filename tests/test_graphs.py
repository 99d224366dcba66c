import hashlib
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpturan import graphs
from mpturan.errors import DomainError, GraphStructureError
from mpturan.graphs import (
    ColorPartition,
    MultipartiteGraph,
    complete_multipartite,
    empty_graph,
    from_edges,
)
from mpturan.verifier import find_coloring


def test_complete_multipartite_degrees():
    g = complete_multipartite([2] * 5)
    assert g.n_vertices == 10
    assert g.n_parts == 5
    assert g.min_degree() == 8
    assert g.max_degree() == 8
    assert g.edge_count() == 40


def test_empty_graph():
    g = empty_graph([3, 2])
    assert g.edge_count() == 0
    assert g.min_degree() == 0
    assert g.degree(0) == 0


@pytest.mark.parametrize("sizes", [[2.7, 1], [2, 1.0], [True, 3], [1, "3"]])
@pytest.mark.parametrize(
    "build", [empty_graph, lambda sizes: from_edges(sizes, [(0, 2)])], ids=["empty", "edges"]
)
def test_part_sizes_that_are_not_ints_are_refused(build, sizes):
    # from_edges once truncated [2.7, 1] to parts (2, 1), and empty_graph
    # built parts (1, 3) from [True, "3"]
    with pytest.raises(GraphStructureError, match="part sizes must be ints"):
        build(sizes)


def test_part_bookkeeping():
    g = empty_graph([2, 3, 1])
    assert g.part_masks == (0b000011, 0b011100, 0b100000)
    assert g.part_of == (0, 0, 1, 1, 1, 2)
    assert g.full_mask == 0b111111


def test_intra_part_edge_rejected():
    with pytest.raises(GraphStructureError):
        from_edges([2, 2], [(0, 1)])


def test_self_loop_rejected():
    with pytest.raises(GraphStructureError):
        from_edges([1, 1], [(0, 0)])


def test_vertex_out_of_range_rejected():
    with pytest.raises(GraphStructureError):
        from_edges([1, 1], [(0, 5)])


def test_from_edges_groups_join_every_pair():
    # vertices 0 and 1 (part 0) each joined to 2, 3 and 4, plus one edge
    g = from_edges([2, 2, 2], [(2, 4)], [([0, 1], [2, 3, 4])])
    assert g == from_edges(
        [2, 2, 2], [(2, 4)] + [(u, v) for u in (0, 1) for v in (2, 3, 4)]
    )
    assert from_edges([2, 2], [], [([0], []), ([], [2])]) == empty_graph([2, 2])
    # a repeated id sets its bit once: its masks OR, never add
    assert from_edges([2, 2, 2], [(2, 4)], [([1, 0, 1], [3, 2, 4, 3, 3])]) == g
    # a range of vertices, as the DIMACS reader gives a class of twins
    assert from_edges([2, 2, 2], [(2, 4)], [(range(2), [2, 3, 4])]) == g
    assert from_edges([2, 2], [], [(range(1, 1), [2])]) == empty_graph([2, 2])


def test_from_edges_without_single_edges_allocates_no_row_buffers():
    # 8,000 rows of 1,000 bytes each would be 8 MB; the one group needs
    # two 8,000-byte masks and the rows it sets, next to the part data
    part_sizes, groups = [4000, 4000], [([0, 1], [4000])]
    tracemalloc.start()
    try:
        g = from_edges(part_sizes, iter(()), groups)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert g == from_edges(part_sizes, [(0, 4000), (1, 4000)])


@pytest.mark.parametrize(
    "groups, match",
    [
        ([([0], [5])], "vertex id 5 out of range"),
        ([([5], [0])], "vertex id 5 out of range"),
        ([([0], [-1])], "vertex id -1 out of range"),
        ([([10**9], [2])], "out of range"),
        ([([2], [10**9])], "out of range"),
        ([([0, 2], [1])], "both in part"),
        ([([2], [2])], "self-loop at vertex 2"),
        # a range of vertices is checked by its ends before its mask is made
        ([(range(1, 5), [0])], "vertex id 4 out of range"),
        ([(range(-1, 1), [2])], "vertex id -1 out of range"),
        ([(range(2, 10**9), [0])], "vertex id 999999999 out of range"),
        ([(range(0, 2), [1])], "both in part"),
    ],
)
def test_from_edges_checks_groups(groups, match):
    tracemalloc.start()
    try:
        with pytest.raises(GraphStructureError, match=match):
            from_edges([2, 2], [], groups)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_asymmetric_rows_rejected():
    with pytest.raises(GraphStructureError):
        MultipartiteGraph((1, 1), (0b10, 0b00))


@pytest.mark.parametrize(
    "sizes, rows",
    [
        ((1, 1), (0b110, 0b001)),  # a neighbor past the last vertex
        ((2, 1), (0b010, 0b001, 0b000)),  # a pair inside part 0
        ((1, 1), (0b10,)),  # one row short
    ],
)
def test_constructor_always_validates(sizes, rows):
    with pytest.raises(GraphStructureError):
        MultipartiteGraph(sizes, rows)


def test_edges_sorted():
    g = complete_multipartite([2, 1])
    assert list(g.edges()) == [(0, 2), (1, 2)]


def test_cross_complement_involution():
    g = from_edges([2, 2, 1], [(0, 2), (1, 4), (3, 4)])
    assert g.cross_complement().cross_complement() == g


def test_cross_complement_degrees():
    g = from_edges([2, 2, 2], [(0, 2), (0, 4), (1, 3)])
    comp = g.cross_complement()
    for v in range(g.n_vertices):
        assert g.degree(v) + comp.degree(v) == 4


def test_complement_of_complete_is_empty():
    g = complete_multipartite([3, 3])
    assert g.cross_complement() == empty_graph([3, 3])


def test_digest_stable_and_sensitive():
    g = from_edges([2, 2], [(0, 2)])
    assert g.digest() == from_edges([2, 2], [(0, 2)]).digest()
    assert g.digest().startswith("sha256:")
    assert g.digest() != from_edges([2, 2], [(0, 3)]).digest()


def test_digest_is_kept_once_computed_and_not_passed_on():
    g = complete_multipartite([2, 3])
    first = g.digest()
    assert g.digest() is first
    assert first == MultipartiteGraph(g.part_sizes, g.rows).digest()
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == hash(g)
    assert back._digest == first and back.digest() == first
    # graphs made from g hash their own rows
    assert g.with_rows(g.rows).digest() == first
    assert not hasattr(g.with_rows(g.rows), "_digest")
    complement = g.cross_complement()
    assert not hasattr(complement, "_digest")
    assert complement.digest() == empty_graph([2, 3]).digest() != first
    # a graph pickled before its first digest computes it after
    fresh = pickle.loads(pickle.dumps(complete_multipartite([2, 3])))
    assert not hasattr(fresh, "_digest") and fresh.digest() == first


def test_color_partition_validation():
    with pytest.raises(DomainError):
        ColorPartition((0, 3), 2)
    with pytest.raises(DomainError):
        ColorPartition((0, 1), 0)


def test_color_partition_names_the_first_vertex_out_of_range():
    with pytest.raises(DomainError, match=r"^vertex 2 has color 5, outside \[0, 2\)$"):
        ColorPartition((0, 1, 5, -1), 2)
    with pytest.raises(DomainError, match=r"^vertex 1 has color -1, outside \[0, 2\)$"):
        ColorPartition((0, -1, 5), 2)


def _reference_digest(g):
    """The digest's definition: each row hashed on its own."""
    width = (g.n_vertices + 7) >> 3
    h = hashlib.sha256(b"mpturan.graph.rows.v1\0")
    h.update(",".join(map(str, g.part_sizes)).encode() + b"\0")
    for row in g.rows:
        h.update(row.to_bytes(width, "little"))
    return "sha256:" + h.hexdigest()


@pytest.mark.parametrize("batch", [1, 1000, 1 << 20])
def test_digest_hashes_the_rows_in_batches_of_bytes(monkeypatch, batch):
    # 1,001 rows of 126 bytes: one row a batch, seven, and all of them
    monkeypatch.setattr(graphs, "_DIGEST_BATCH", batch)
    g = complete_multipartite([1, 500, 500])
    assert g.digest() == _reference_digest(g)
    assert empty_graph([3]).digest() == _reference_digest(empty_graph([3]))


def test_color_partition_proper():
    g = complete_multipartite([1, 1, 1])
    assert not ColorPartition((0, 0, 1), 2).is_proper(g)
    assert ColorPartition((0, 1, 2), 3).is_proper(g)


def test_color_partition_costs_memory_in_the_graph_not_the_palette():
    g = complete_multipartite([2] * 5)
    assert find_coloring(g, 10**12).is_proper(g)
    coloring = find_coloring(g, 10**6)
    tracemalloc.start()
    try:
        assert coloring.is_proper(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_complement_degree_identity(data):
    r = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(1, 3))
    all_pairs = [
        (u, v)
        for u in range(r * n)
        for v in range(u + 1, r * n)
        if u // n != v // n
    ]
    chosen = data.draw(st.sets(st.sampled_from(all_pairs)) if all_pairs else st.just(set()))
    g = from_edges([n] * r, sorted(chosen))
    comp = g.cross_complement()
    assert comp.cross_complement() == g
    for v in range(g.n_vertices):
        assert g.degree(v) + comp.degree(v) == (r - 1) * n


def test_with_rows_reuses_part_data():
    g = complete_multipartite([2, 3])
    h = g.with_rows([0] * 5)
    assert h == empty_graph([2, 3])
    assert h.part_masks is g.part_masks and h.part_of is g.part_of
    assert g.cross_complement() == h
