from collections import Counter

import pytest
from graph_strategies import profile_min_degree, profiles
from hypothesis import given, settings

from mpturan.bounds import (
    apex_value,
    ceil_div,
    composition_bound,
    decompose,
    sliced_value,
    turan_sandwich,
)
from mpturan.constructions import (
    _overlay,
    apex_blowup,
    block_composition,
    default_inner_graph,
    sliced_blowup,
    turan_blowup,
)
from mpturan.errors import DomainError, NotApplicableError
from mpturan.graphs import ColorPartition, complete_multipartite, empty_graph


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
