"""The search kernels against networkx on random multipartite graphs.

networkx is a test-only dependency; the module is skipped without it.
"""

import pytest
from graph_strategies import multipartite_graphs
from hypothesis import given, settings

from mpturan.verifier import find_clique, find_coloring, find_crossing_independent

nx = pytest.importorskip("networkx")


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n_vertices))
    h.add_edges_from(g.edges())
    return h


def clique_number(h):
    return max((len(c) for c in nx.find_cliques(h)), default=0)


def largest(find, g):
    """The largest size ``find(g, size)`` succeeds at, tried upward."""
    size = 0
    while size < g.n_parts and find(g, size + 1) is not None:
        size += 1
    return size


@settings(max_examples=150, deadline=None)
@given(multipartite_graphs(max_parts=5, max_part_size=3))
def test_clique_and_crossing_independence_match_networkx(g):
    h = to_networkx(g)
    assert largest(find_clique, g) == clique_number(h)
    # the cross complement, built here from networkx's complement: the
    # non-edges of g that join different parts
    cross = nx.complement(h)
    cross.remove_edges_from(
        [(u, v) for u, v in cross.edges() if g.part_of[u] == g.part_of[v]]
    )
    assert largest(find_crossing_independent, g) == clique_number(cross)


@settings(max_examples=150, deadline=None)
@given(multipartite_graphs(max_parts=5, max_part_size=3))
def test_greedy_colorings_bound_find_coloring(g):
    h = to_networkx(g)
    for strategy in ("largest_first", "smallest_last", "DSATUR"):
        t = max(nx.greedy_color(h, strategy=strategy).values(), default=-1) + 1
        coloring = find_coloring(g, max(t, 1))
        assert coloring is not None
        assert coloring.is_proper(g)
