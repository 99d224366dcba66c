import json
import random
import sys
from types import SimpleNamespace

import pytest
from graph_strategies import multipartite_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

from mpturan import verifier
from mpturan.cli import _composition_from_defaults
from mpturan.constructions import (
    apex_blowup,
    block_composition,
    default_inner_graph,
    sliced_blowup,
    turan_blowup,
)
from mpturan.errors import DomainError, UnknownClaimError
from mpturan.graphs import complete_multipartite, empty_graph, from_edges
from mpturan.verifier import (
    CONFIRMED,
    REFUTED,
    VACUOUS,
    aes_check,
    certify,
    find_clique,
    find_coloring,
    find_crossing_independent,
)


def _largest(find, g):
    """The largest set ``find(g, size)`` returns, with its size: sizes are
    tried upward until the search finds none."""
    best = ()
    for size in range(1, g.n_parts + 1):
        found = find(g, size)
        if found is None:
            break
        best = found
    return len(best), best


def test_find_clique_apex():
    # one apex color above a 4-chromatic core: clique number exactly 5
    g = apex_blowup(6, 7, 5).graph
    assert find_clique(g, 5) is not None
    assert find_clique(g, 6) is None


def test_find_clique_bounds():
    g = complete_multipartite([1] * 5)
    w = find_clique(g, 5)
    assert w is not None and len(w) == 5
    assert find_clique(g, 6) is None
    with pytest.raises(DomainError):
        find_clique(g, 0)


def test_find_clique_on_many_parts_restores_recursion_limit():
    # a clique needs one frame per vertex: more than the default limit
    before = sys.getrecursionlimit()
    clique = find_clique(complete_multipartite([1] * 1200), 1200)
    assert clique == tuple(range(1200))
    assert sys.getrecursionlimit() == before


def test_crossing_independent_extremes():
    assert _largest(find_crossing_independent, complete_multipartite([2, 2, 2]))[0] == 1
    size, witness = _largest(find_crossing_independent, empty_graph([2, 2, 2]))
    assert size == 3
    assert len({v // 2 for v in witness}) == 3


def test_crossing_independent_is_crossing():
    # two vertices of one part never count, however nonadjacent they are
    g = from_edges([2, 2], [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert _largest(find_crossing_independent, g)[0] == 1


def test_composition_has_no_large_crossing_independent_set():
    out = block_composition(4, default_inner_graph(2, 2, 1), 2, 1, 2)
    assert find_crossing_independent(out.graph, 4) is None
    assert _largest(find_crossing_independent, out.graph)[0] == 3


def test_find_coloring_blowup():
    g = sliced_blowup(10, 10, 3).graph
    coloring = find_coloring(g, 3)
    assert coloring is not None
    assert coloring.is_proper(g)


def test_find_coloring_odd_cycle():
    cycle = from_edges([1] * 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert find_coloring(cycle, 2) is None
    three = find_coloring(cycle, 3)
    assert three is not None and three.is_proper(cycle)


def test_find_coloring_complete():
    g = complete_multipartite([1] * 4)
    assert find_coloring(g, 3) is None
    four = find_coloring(g, 4)
    assert four is not None and four.is_proper(g)


def _brute_colorable(g, t):
    """Exhaustive search in vertex order; a new color only after all lower ones."""
    n = g.n_vertices
    colors = []

    def extend(v):
        if v == n:
            return True
        for c in range(min(t, max(colors, default=-1) + 2)):
            if all(colors[u] != c for u in range(v) if (g.rows[u] >> v) & 1):
                colors.append(c)
                if extend(v + 1):
                    return True
                colors.pop()
        return False

    return extend(0)


@settings(max_examples=150, deadline=None)
@given(multipartite_graphs(max_parts=6, max_vertices=10), st.integers(1, 4))
def test_find_coloring_matches_brute_force(g, t):
    coloring = find_coloring(g, t)
    assert (coloring is not None) == _brute_colorable(g, t)
    if coloring is not None:
        assert len(coloring.colors) == g.n_vertices
        assert coloring.num_colors == t
        assert coloring.is_proper(g)


def test_find_coloring_at_construction_scale():
    g = sliced_blowup(200, 13, 3).graph
    coloring = find_coloring(g, 3)
    assert coloring is not None and coloring.is_proper(g)
    assert find_coloring(g, 2) is None


def test_find_coloring_restores_recursion_limit():
    # a path on 100 one-vertex parts has no twins, so the search needs a
    # depth of about 100 and must raise a limit of 200 for the call only
    path = from_edges([1] * 100, [(v, v + 1) for v in range(99)])
    before = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(200)
        coloring = find_coloring(path, 2)
        assert sys.getrecursionlimit() == 200
    finally:
        sys.setrecursionlimit(before)
    assert coloring is not None and coloring.is_proper(path)


def test_aes_confirmed():
    assert aes_check(turan_blowup(3, 6, 3).graph, 3) == CONFIRMED


def test_aes_vacuous_low_degree():
    # min degree 12 is below the 13.125 threshold on 21 vertices
    assert aes_check(turan_blowup(3, 7, 3).graph, 3) == VACUOUS


def test_aes_vacuous_clique():
    assert aes_check(complete_multipartite([1] * 4), 3) == VACUOUS


def test_aes_statuses_distinct():
    assert len({VACUOUS, CONFIRMED, REFUTED}) == 3


def test_certify_complete_graph():
    g = complete_multipartite([1] * 5)
    cert = certify(
        g,
        [
            ("kfree", 5),
            ("min_degree", 4),
            ("max_degree", 4),
            ("colorable", 5),
            ("no_crossing_independent", 2),
        ],
    )
    verdicts = {p.kind: p for p in cert.properties}
    assert not verdicts["kfree"].verdict
    assert len(verdicts["kfree"].witness) == 5  # the offending clique
    assert verdicts["min_degree"].verdict
    assert verdicts["max_degree"].verdict
    assert verdicts["colorable"].verdict
    assert verdicts["no_crossing_independent"].verdict
    assert not cert.all_true
    assert cert.graph_digest == g.digest()


def test_certify_unknown_claim(monkeypatch):
    # the kind is refused before the claims ahead of it are searched
    monkeypatch.setattr(verifier, "find_clique", lambda *_: pytest.fail("a claim was searched"))
    with pytest.raises(UnknownClaimError, match="unknown claim kind 'girth'; known: "):
        certify(complete_multipartite([1] * 4), [("kfree", 3), ("girth", 5)])


def test_certificate_json_round_trip():
    cert = certify(complete_multipartite([2, 2]), [("kfree", 3), ("min_degree", 2)])
    doc = json.loads(json.dumps(cert.to_json_dict()))
    assert doc["all_true"] is True
    assert doc["graph_digest"].startswith("sha256:")
    assert len(doc["properties"]) == 2


def test_clique_crossing_duality_random():
    rng = random.Random(7)
    for _ in range(25):
        sizes = rng.choice([[2, 2, 2], [3, 2], [1, 1, 1, 1], [2, 1, 2]])
        pairs = [
            (u, v)
            for u in range(sum(sizes))
            for v in range(u + 1, sum(sizes))
        ]
        part_of = empty_graph(sizes).part_of
        g = from_edges(sizes, [
            (u, v)
            for u, v in pairs
            if part_of[u] != part_of[v] and rng.random() < 0.5
        ])
        comp = g.cross_complement()
        assert _largest(find_clique, g)[0] == _largest(find_crossing_independent, comp)[0]
        assert _largest(find_crossing_independent, g)[0] == _largest(find_clique, comp)[0]


def _branch_search(g, *, independent, stop_at=None):
    """The two-flag search that ``verifier._clique_in`` replaced, kept as
    the reference for the witnesses it returns: the largest clique (or
    crossing independent set) found part by part, stopping once a set of
    ``stop_at`` vertices is found."""
    rows = g.rows
    part_masks = g.part_masks
    n_parts = g.n_parts
    best = 0
    best_set = ()

    def rec(pi, cand, cur):
        nonlocal best, best_set
        if stop_at is not None and best >= stop_at:
            return
        live = [j for j in range(pi, n_parts) if cand & part_masks[j]]
        if len(cur) + len(live) <= best:
            return
        if not live:
            best = len(cur)
            best_set = tuple(cur)
            return
        j = live[0]
        in_part = cand & part_masks[j]
        reps = {}
        m = in_part
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            if rows[v] not in reps:
                reps[rows[v]] = v
        for v in reps.values():
            cur.append(v)
            if independent:
                rec(j + 1, cand & ~rows[v], cur)
            else:
                rec(j + 1, cand & rows[v], cur)
            cur.pop()
        rec(j + 1, cand & ~part_masks[j], cur)

    rec(0, g.full_mask, [])
    return best, best_set


def _reference_find(g, size, independent):
    found, witness = _branch_search(g, independent=independent, stop_at=size)
    return witness[:size] if found >= size else None


@settings(max_examples=200, deadline=None)
@given(multipartite_graphs(max_parts=7, max_part_size=3))
def test_clique_kernel_matches_the_reference_search(g):
    for size in range(1, 7):
        assert find_clique(g, size) == _reference_find(g, size, False)
        assert find_crossing_independent(g, size) == _reference_find(g, size, True)
    assert _largest(find_clique, g) == _branch_search(g, independent=False)
    assert _largest(find_crossing_independent, g) == _branch_search(g, independent=True)


@settings(max_examples=200, deadline=None)
@given(multipartite_graphs(max_parts=6, max_part_size=3), st.integers(0, (1 << 18) - 1))
def test_clique_kernel_small_sizes_match_the_reference_search(g, bits):
    # the kernel on a candidate set, not the whole graph, at the sizes with
    # their own base cases (0, 1 and 2) and the first size that walks parts
    cand = bits & g.full_mask
    sub = SimpleNamespace(
        rows=g.rows, part_masks=g.part_masks, n_parts=g.n_parts, full_mask=cand
    )
    for k in (0, 1, 2, 3):
        got = verifier._clique_in(g.rows, g.part_masks, cand, k)
        assert got == _reference_find(sub, k, False), (cand, k)


def test_clique_kernel_one_vertex_is_the_part_walks_first():
    g = complete_multipartite([2, 3, 2])
    rows, parts = g.rows, g.part_masks
    assert [verifier._clique_in(rows, parts, 0, k) for k in (0, 1, 2)] == [(), None, None]
    # candidates in the last two parts only; 5 and 6 are twins
    cand = (1 << 6) | (1 << 3) | (1 << 5)
    assert verifier._clique_in(rows, parts, cand, 1) == (3,)
    assert verifier._clique_in(rows, parts, cand, 2) == (3, 5)
    assert verifier._clique_in(rows, parts, cand, 3) is None
    sub = SimpleNamespace(rows=rows, part_masks=parts, n_parts=g.n_parts, full_mask=cand)
    assert [_reference_find(sub, k, False) for k in (0, 1, 2)] == [(), (3,), (3, 5)]


def _twin_rich_builds():
    """Every turan, sliced, apex and two-block composition build with
    n <= 3, t <= 4 and r <= 3t that applies: blow-ups whose parts split
    into classes of twins."""
    builders = {
        "turan": turan_blowup,
        "sliced": sliced_blowup,
        "apex": apex_blowup,
        "composition": lambda n, r, t: _composition_from_defaults(n, r, t, 2),
    }
    for method, build in builders.items():
        for t in range(2, 5):
            for r in range(2, 3 * t + 1):
                for n in range(1, 4):
                    try:
                        yield (method, n, r, t), build(n, r, t).graph
                    except DomainError:
                        pass


def test_twin_representatives_give_the_full_search_witnesses():
    # the public searches start from one vertex per class of twins; the
    # kernel from every vertex must return the same witness at every size
    seen = set()
    for key, g in _twin_rich_builds():
        seen.add(key[0])
        comp = g.cross_complement()
        for k in range(1, key[3] + 3):
            assert find_clique(g, k) == verifier._clique_in(
                g.rows, g.part_masks, g.full_mask, k
            ), (key, k)
            assert find_crossing_independent(g, k) == verifier._clique_in(
                comp.rows, comp.part_masks, comp.full_mask, k
            ), (key, k)
    assert seen == {"turan", "sliced", "apex", "composition"}


def test_twin_representatives_are_the_lowest_of_each_class():
    g = sliced_blowup(3, 7, 3).graph
    lowest = {}
    for v, key in enumerate(zip(g.part_of, g.rows)):
        lowest.setdefault(key, v)
    mask = verifier._twin_representatives(g)
    assert mask == sum(1 << v for v in lowest.values())
    assert mask != g.full_mask
    # the cross complement keeps the classes within each part
    assert verifier._twin_representatives(g.cross_complement()) == mask
    assert verifier._twin_representatives(complete_multipartite([1] * 4)) == 0b1111
