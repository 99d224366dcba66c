import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from graph_strategies import profile_min_degree, profiles
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpturan.bounds import (
    _composition_slice,
    apex_value,
    ceil_div,
    composition_bound,
    decompose,
    sliced_value,
    turan_sandwich,
)
from mpturan.cli import _composition_from_defaults
from mpturan.constructions import (
    _overlay,
    apex_blowup,
    block_composition,
    default_inner_graph,
    sliced_blowup,
    turan_blowup,
)
from mpturan.errors import DomainError, NotApplicableError
from mpturan.graphs import ColorPartition, complete_multipartite, empty_graph, from_edges
from mpturan.verifier import find_crossing_independent


def test_turan_blowup_balanced_classes():
    out = turan_blowup(2, 5, 3)
    assert out.graph.min_degree() == 6
    assert out.claimed_min_degree == 6
    assert out.source == "turan-blowup"
    assert out.coloring.is_proper(out.graph)
    # 5 = 2 + 2 + 1 parts across the three classes, each part has 2 vertices
    sizes = sorted(Counter(out.coloring.colors).values())
    assert sizes == [2, 4, 4]


def test_turan_blowup_divisible():
    out = turan_blowup(1, 6, 3)
    assert out.graph.min_degree() == 4
    assert out.coloring.num_colors == 3


def test_turan_blowup_bipartite():
    out = turan_blowup(3, 4, 2)
    assert out.graph.min_degree() == 6
    assert out.graph.max_degree() == 6


def test_turan_blowup_matches_sandwich_lower():
    for t in (2, 3, 4):
        for r in range(t + 1, 3 * t + 1):
            for n in (1, 2, 5):
                lo, _ = turan_sandwich(n, r, t)
                assert turan_blowup(n, r, t).graph.min_degree() == lo


def test_sliced_blowup_value_and_classes():
    out = sliced_blowup(10, 10, 3)
    assert out.graph.n_vertices == 100
    assert out.graph.min_degree() == 63
    assert out.claimed_min_degree == sliced_value(10, 10, 3)
    assert out.source == "sliced-blowup"
    assert out.coloring.is_proper(out.graph)
    # slices of size 9 in 4 parts for each of the first two classes,
    # everything else in the last class
    sizes = sorted(Counter(out.coloring.colors).values())
    assert sizes == [28, 36, 36]


def test_sliced_blowup_small():
    assert sliced_blowup(1, 10, 3).graph.min_degree() == 6
    assert sliced_blowup(60, 7, 3).claimed_min_degree == 256


def test_sliced_blowup_delegates_at_a1():
    out = sliced_blowup(2, 5, 3)  # a = 1: slicing degenerates to the blow-up
    assert out.source == "turan-blowup"
    assert out.graph.min_degree() == 6


def test_apex_blowup():
    out = apex_blowup(6, 7, 5)
    assert out.graph.min_degree() == 31
    assert out.claimed_min_degree == apex_value(6, 7, 5)
    assert out.source == "apex-blowup"
    assert out.coloring.is_proper(out.graph)
    assert out.coloring.num_colors == 5
    assert apex_blowup(1, 7, 5).graph.min_degree() == 5


def test_apex_blowup_out_of_range():
    with pytest.raises(NotApplicableError):
        apex_blowup(6, 10, 3)


def test_block_composition_small():
    inner = default_inner_graph(2, 2, 1)
    out = block_composition(4, inner, 2, 1, 2)
    g = out.graph
    assert g.n_parts == 4
    assert g.part_sizes == (4, 4, 4, 4)
    assert g.max_degree() == 3
    assert out.claimed_max_degree == 3
    assert composition_bound(4, 2, 2, 2, 1) == 3
    assert out.source == "block-composition"


def test_block_composition_larger_part():
    inner = default_inner_graph(2, 2, 1)
    out = block_composition(6, inner, 2, 1, 2)
    assert out.graph.max_degree() == 5
    assert out.claimed_max_degree <= composition_bound(6, 2, 2, 2, 1)


def test_block_composition_three_blocks():
    inner = default_inner_graph(2, 2, 1)
    out = block_composition(6, inner, 2, 1, 3)
    assert out.graph.n_parts == 6
    assert out.graph.max_degree() <= composition_bound(6, 2, 2, 3, 1)


def test_block_composition_rejects_empty_slice():
    with pytest.raises(DomainError):
        block_composition(4, default_inner_graph(2, 2, 1), 2, 1, 3)


def test_block_composition_rejects_bad_inner():
    # wrong part size: the slice width for these parameters is 1, not 2
    with pytest.raises(DomainError):
        block_composition(4, complete_multipartite([2, 2]), 2, 1, 2)
    # max degree above the declared density
    with pytest.raises(DomainError):
        block_composition(4, complete_multipartite([1, 1]), 2, 0, 2)
    # crossing independent pair inside the inner graph
    with pytest.raises(DomainError):
        block_composition(4, empty_graph([1, 1]), 2, 1, 2)


def test_default_inner_graph_families():
    g = default_inner_graph(2, 2, 3)
    assert g == complete_multipartite([3, 3])
    h = default_inner_graph(3, 3, 2)
    assert h.n_parts == 3
    assert h.max_degree() == 2  # (ceil(3/2) - 1) * part size


def test_constructions_deterministic():
    for build in (
        lambda: turan_blowup(3, 7, 3).graph,
        lambda: sliced_blowup(4, 10, 3).graph,
        lambda: apex_blowup(2, 7, 5).graph,
        lambda: block_composition(4, default_inner_graph(2, 2, 1), 2, 1, 2).graph,
    ):
        a, b = build(), build()
        assert a == b
        assert a.digest() == b.digest()


# The per-vertex color layouts the builders used before profiles, kept as
# the reference that the profile overlays must reproduce.


def _reference_turan_colors(n, r, t):
    base, extra = divmod(r, t)
    part_color = []
    for c in range(t):
        part_color.extend([c] * (base + 1 if c < extra else base))
    return [part_color[p] for p in range(r) for _ in range(n)]


def _reference_sliced_colors(n, r, t, m):
    slice_size = ceil_div((r - 1) * n, m * t - 2)
    colors = [t - 1] * (r * n)
    for p in range((t - 1) * m):
        colors[p * n:p * n + slice_size] = [p // m] * slice_size
    return colors


def _reference_apex_colors(n, r, t):
    m, a = decompose(r, t)
    t2 = t - a + m
    colors = _reference_sliced_colors(n, m * (t2 - 1), t2, m)
    for apex in range(a - m):
        colors.extend([t2 + apex] * ((m - 1) * n))
    return colors


def _reference_sliced_blowup_colors(n, r, t):
    m, a = decompose(r, t)
    if a == 1:  # the delegation to the balanced blow-up
        return _reference_turan_colors(n, r, t)
    return _reference_sliced_colors(n, r, t, m)


def _reference_overlay(n, r, colors):
    # a vertex is joined to every vertex outside its part and its color
    skeleton = empty_graph([n] * r)
    class_masks = ColorPartition(tuple(colors), max(colors) + 1).class_masks()
    return skeleton.with_rows(
        skeleton.full_mask & ~skeleton.part_masks[v // n] & ~class_masks[c]
        for v, c in enumerate(colors)
    )


def test_profile_overlays_match_the_per_vertex_layouts():
    builds = 0
    for t in range(2, 9):
        for r in range(t + 1, 4 * t + 2):
            for build, reference_colors in (
                (turan_blowup, _reference_turan_colors),
                (sliced_blowup, _reference_sliced_blowup_colors),
                (apex_blowup, _reference_apex_colors),
            ):
                for n in range(1, 31):
                    try:
                        out = build(n, r, t)
                    except NotApplicableError:
                        break
                    colors = reference_colors(n, r, t)
                    assert out.coloring.colors == tuple(colors), (build.__name__, n, r, t)
                    assert out.graph.digest() == _reference_overlay(n, r, colors).digest()
                    builds += 1
    assert builds == 6090


@settings(max_examples=200, deadline=None)
@given(profiles())
def test_overlay_attains_the_profile_degree_formula(drawn):
    n, profile = drawn
    out = _overlay(profile, profile_min_degree(n, profile), "profile")
    assert out.graph.part_sizes == (n,) * len(profile)
    assert out.claimed_min_degree == out.graph.min_degree()


# The per-vertex, per-edge layout the block composition used before its
# rows were built from masks, kept as the reference that it must reproduce.


def _reference_composition(n, inner, k):
    r0, slice_size = inner.n_parts, inner.part_sizes[0]
    r = r0 * k
    skeleton = empty_graph([n] * r)
    small_masks = [((1 << slice_size) - 1) << (p * n) for p in range(r)]
    large_masks = [skeleton.part_masks[p] & ~small_masks[p] for p in range(r)]
    block_small = [0] * k
    block_large = [0] * k
    for p in range(r):
        block_small[p // r0] |= small_masks[p]
        block_large[p // r0] |= large_masks[p]
    all_small = 0
    for mask in block_small:
        all_small |= mask

    rows = [0] * (r * n)
    for p in range(r):
        b = p // r0
        start = p * n
        for v in range(start, start + slice_size):
            rows[v] = all_small & ~block_small[b]
        for v in range(start + slice_size, start + n):
            rows[v] = block_large[b] & ~large_masks[p]
    for b in range(k):
        for iu, iv in inner.edges():
            u = (b * r0 + iu // slice_size) * n + iu % slice_size
            v = (b * r0 + iv // slice_size) * n + iv % slice_size
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return skeleton.with_rows(rows)


def test_stock_compositions_match_the_per_edge_layout():
    builds = 0
    for n in range(2, 16):
        for r0 in range(2, 7):
            for t0 in range(2, 7):
                for k in range(2, 5):
                    try:
                        out = _composition_from_defaults(n, r0, t0, k)
                    except DomainError:
                        continue
                    delta0 = Fraction(ceil_div(r0, t0 - 1) - 1)
                    inner = default_inner_graph(r0, t0, _composition_slice(n, r0, k, delta0))
                    reference = _reference_composition(n, inner, k)
                    assert out.graph.digest() == reference.digest(), (n, r0, t0, k)
                    assert out.claimed_max_degree == reference.max_degree()
                    assert out.claimed_min_degree == reference.min_degree()
                    builds += 1
    assert builds == 516


@st.composite
def composition_inputs(draw):
    """An r0-partite inner graph with equal parts of size l, a t0 <= r0 it
    has no crossing independent set of, k, and an n whose slice size is l
    at delta0 = max degree / l. The inner graph is a complete multipartite
    graph with some cross pairs removed, so that dense graphs, the ones
    with few crossing independent sets, are common."""
    r0 = draw(st.integers(2, 4))
    slice_size = draw(st.integers(1, 3))
    vertices = range(r0 * slice_size)
    pairs = [(u, v) for u, v in combinations(vertices, 2) if u // slice_size != v // slice_size]
    removed = set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))))
    inner = from_edges([slice_size] * r0, [pair for pair in pairs if pair not in removed])
    t0 = draw(st.integers(2, r0))
    assume(find_crossing_independent(inner, t0) is None)
    k = draw(st.integers(2, 3))
    delta0 = Fraction(inner.max_degree(), slice_size)
    # l = floor(per_n * n), so the n in [l / per_n, (l + 1) / per_n) give l
    per_n = Fraction(r0 - 1) / (delta0 + k * r0 - 1)
    low = max(2, math.ceil(slice_size / per_n))
    high = math.ceil((slice_size + 1) / per_n) - 1
    return draw(st.integers(low, high)), inner, t0, delta0, k


@settings(max_examples=300, deadline=None)
@given(composition_inputs())
def test_block_composition_matches_the_per_edge_layout(drawn):
    n, inner, t0, delta0, k = drawn
    assert _composition_slice(n, inner.n_parts, k, delta0) == inner.part_sizes[0]
    out = block_composition(n, inner, t0, delta0, k)
    reference = _reference_composition(n, inner, k)
    assert out.graph.rows == reference.rows
    assert out.claimed_max_degree == reference.max_degree()
