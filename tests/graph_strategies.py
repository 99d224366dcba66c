"""Hypothesis strategies shared by the graph, I/O, verifier and
construction tests, and the profile degree formula."""

from hypothesis import strategies as st

from mpturan.graphs import from_edges


@st.composite
def multipartite_graphs(draw, max_parts=5, max_part_size=4, max_vertices=None):
    """Random multipartite graphs with unequal parts and planted twins.

    Edges are a random subset of the cross-part pairs. Then some vertices
    take over the neighborhood of another vertex of their own part, so that
    graphs with identical rows (twins) are common rather than rare.
    """
    sizes = draw(
        st.lists(st.integers(1, max_part_size), min_size=1, max_size=max_parts).filter(
            lambda s: max_vertices is None or sum(s) <= max_vertices
        )
    )
    part = [i for i, s in enumerate(sizes) for _ in range(s)]
    n = len(part)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    chosen = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    nbrs = [set() for _ in range(n)]
    for u, v in chosen:
        nbrs[u].add(v)
        nbrs[v].add(u)
    same_part = [(v, w) for v in range(n) for w in range(n) if v != w and part[v] == part[w]]
    if same_part:
        for v, w in draw(st.lists(st.sampled_from(same_part), max_size=3)):
            for u in nbrs[w]:
                nbrs[u].discard(w)
            nbrs[w] = set(nbrs[v])
            for u in nbrs[w]:
                nbrs[u].add(w)
    edges = [(u, v) for u in range(n) for v in nbrs[u] if u < v]
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    return from_edges(sizes, draw(st.permutations(edges)))


def profile_min_degree(n, profile):
    """Minimum degree of the overlay graph of a profile with row sums n.

    A vertex of part p and color c sees every vertex outside both, so its
    degree is (r - 1) n - (C[c] - x[p][c]), where C[c] is column c's sum.
    The minimum runs over the cells that hold a vertex.
    """
    columns = [sum(column) for column in zip(*profile)]
    return (len(profile) - 1) * n - max(
        columns[c] - x for row in profile for c, x in enumerate(row) if x
    )


@st.composite
def profiles(draw, max_parts=6, max_colors=4, max_part_size=5):
    """Random profiles: r rows of t cells, each row summing to the same n,
    zero cells allowed. Returns (n, profile)."""
    n = draw(st.integers(1, max_part_size))
    t = draw(st.integers(1, max_colors))
    cuts = st.lists(st.integers(0, n), min_size=t - 1, max_size=t - 1).map(sorted)
    rows = draw(st.lists(cuts, min_size=1, max_size=max_parts))
    return n, tuple(
        tuple(hi - lo for lo, hi in zip([0, *row], [*row, n])) for row in rows
    )
