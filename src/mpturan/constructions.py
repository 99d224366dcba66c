"""Deterministic builders for the extremal graphs behind the lower bounds.

Three of the four constructions share one shape: fix a profile, an r x t
matrix whose entry (p, c) counts the vertices of part p that get color c,
lay out each part's colors in ascending order, and keep exactly the pairs
of K_r(n) that differ in both part and color. Only the profile differs
between the balanced, sliced and apex blow-ups, and each builder reads it
from its bound family in ``bounds._FAMILIES``.

The block composition is different in kind: it targets the complementary
quantity (small maximum degree, no crossing independent set) and stitches
copies of a caller-supplied inner graph into blocks. It builds its rows
from masks too: the large sides of a part share one row, and each small
vertex gets its inner row moved slice by slice onto a block's small sides.

Every builder measures the parameters of the graph it just built and
refuses to return if they disagree with the claimed formula; identical
inputs produce identical edge sets.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import TYPE_CHECKING, NamedTuple

from .bounds import (
    _BY_NAME,
    _composition_slice,
    apex_value,
    ceil_div,
    composition_bound,
    decompose,
    sliced_value,
)
from .errors import DomainError, InternalConsistencyError
from .graphs import ColorPartition, MultipartiteGraph, complete_multipartite, empty_graph
from .verifier import find_crossing_independent

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ConstructionOutput",
    "turan_blowup",
    "sliced_blowup",
    "apex_blowup",
    "block_composition",
    "default_inner_graph",
]


class ConstructionOutput(NamedTuple):
    """A built graph plus the properties it was built to have.

    ``coloring`` is the witness partition for the chromatic constructions
    and None for the block composition. Claimed values always equal the
    measured values; the builders check this before returning.
    """

    graph: MultipartiteGraph
    coloring: ColorPartition | None
    claimed_min_degree: int
    claimed_max_degree: int | None
    source: str


def _overlay(
    profile: tuple[tuple[int, ...], ...], expected_min_degree: int, source: str
) -> ConstructionOutput:
    """The overlay graph of a profile with its witness coloring, refused
    unless its minimum degree is ``expected_min_degree`` and the coloring is
    proper.

    Each nonzero cell (p, c) of the profile is a class of twins, a block of
    consecutive vertices of part p that all share one row: the vertices
    outside part p and color c. So the row is built and measured once per
    cell, and the coloring checked once per cell: its color must be one of
    the witness's colors and its size a vertex count, since the rows miss
    their own class by construction.
    """
    skeleton = empty_graph([sum(row) for row in profile])
    num_colors = len(profile[0])
    class_masks = [0] * num_colors
    cells = []  # (part mask, color, size) per nonzero cell, in vertex order
    start = 0
    for part_mask, row in zip(skeleton.part_masks, profile):
        for c, size in enumerate(row):
            if size:
                if size < 0 or c >= num_colors:
                    raise InternalConsistencyError(f"{source}: witness coloring is not proper")
                class_masks[c] |= ((1 << size) - 1) << start
                cells.append((part_mask, c, size))
                start += size
    rows: list[int] = []
    degrees = []
    for part_mask, c, size in cells:
        row = skeleton.full_mask & ~part_mask & ~class_masks[c]
        degrees.append(row.bit_count())
        rows += [row] * size
    measured = min(degrees)
    if measured != expected_min_degree:
        raise InternalConsistencyError(
            f"{source}: built graph has minimum degree {measured}, "
            f"formula says {expected_min_degree}"
        )
    _, colors, sizes = zip(*cells)
    coloring = ColorPartition(tuple(chain.from_iterable(map(repeat, colors, sizes))), num_colors)
    return ConstructionOutput(
        skeleton.with_rows(rows), coloring, expected_min_degree, None, source
    )


def turan_blowup(n: int, r: int, t: int) -> ConstructionOutput:
    """Blow-up of the balanced t-partition of r parts, the baseline graph.

    Colors are unions of whole parts with sizes ceil(r/t) * n or
    floor(r/t) * n. The graph is t-chromatic, has no clique on t + 1
    vertices, and its minimum degree is (r - ceil(r/t)) * n.
    """
    if n < 1:
        raise DomainError(f"part size n must be >= 1, got {n}")
    if not 2 <= t <= r:
        raise DomainError(f"need 2 <= t <= r, got t={t}, r={r}")
    m = ceil_div(r, t)
    args = (n, r, t, m, m * t - r)  # as ``decompose`` would give, but r = t is allowed
    balanced = _BY_NAME["balanced-blowup"]
    return _overlay(balanced.profile(*args), balanced.value(*args), "turan-blowup")


def sliced_blowup(n: int, r: int, t: int) -> ConstructionOutput:
    """Blow-up whose first t - 1 colors cut across the parts of their block.

    With (m, a) = decompose(r, t) and 1 <= a <= m, set
    l = ceil((r - 1) * n / (m * t - 2)). Color i < t - 1 takes the first l
    vertices of each part in block i (parts i*m .. (i+1)*m - 1); the last
    color takes everything else. Minimum degree:
    (r - 1) * n - (m - 1) * l. At a = 1 the slices fill their parts and
    the balanced blow-up achieves the same value, so that case delegates.
    """
    value = sliced_value(n, r, t)
    m, a = decompose(r, t)
    if a == 1:
        return turan_blowup(n, r, t)
    return _overlay(_BY_NAME["sliced-blowup"].profile(n, r, t, m, a), value, "sliced-blowup")


def apex_blowup(n: int, r: int, t: int) -> ConstructionOutput:
    """Sliced blow-up on fewer parts joined to a - m apex colors.

    Covers 2 <= m < a < t. Writing t' = t - a + m and r' = m * (t' - 1),
    the core is the sliced blow-up on r' parts with t' colors; each of the
    a - m apex colors occupies m - 1 fresh parts of size n (consecutive
    runs) and is complete to everything outside itself. The part count
    works out to exactly r and the chromatic number stays at most t.
    """
    value = apex_value(n, r, t)
    m, a = decompose(r, t)
    return _overlay(_BY_NAME["apex-blowup"].profile(n, r, t, m, a), value, "apex-blowup")


def default_inner_graph(r0: int, t0: int, part_size: int) -> MultipartiteGraph:
    """Stock inner graph for the block composition.

    The cross-complement of the balanced blow-up with t0 - 1 colors: it is
    r0-partite with the requested part size, has no crossing independent
    set of size t0, and max degree (ceil(r0 / (t0 - 1)) - 1) * part_size.
    For t0 = 2 this is simply the complete multipartite graph.
    """
    if part_size < 1:
        raise DomainError(f"part size must be >= 1, got {part_size}")
    if not 2 <= t0 <= r0:
        raise DomainError(f"need 2 <= t0 <= r0, got t0={t0}, r0={r0}")
    if t0 == 2:
        return complete_multipartite([part_size] * r0)
    return turan_blowup(part_size, r0, t0 - 1).graph.cross_complement()


def block_composition(
    n: int,
    inner: MultipartiteGraph,
    t0: int,
    delta0: Fraction | int,
    k: int,
) -> ConstructionOutput:
    """Compose k blocks of an inner graph into a low-max-degree graph.

    The inner graph must be r0-partite with equal parts of size
    l = floor((r0 - 1) * n / (delta0 + k * r0 - 1)), max degree at most
    delta0 * l, and no crossing independent set of size t0; all three are
    checked before anything is built. The result has r0 * k parts of size
    n with no crossing independent set of size k + t0 and max degree
    max((k - 1) * r0 * l + max_degree(inner), (r0 - 1) * (n - l)), which
    the choice of l keeps within ``composition_bound``.

    Layout: parts i and j share a block iff i // r0 == j // r0. The first
    l vertices of each part form its small side; small sides of the same
    block carry a copy of the inner graph, small sides of different blocks
    are completely joined, and large sides are completely joined within a
    block. No other edges exist.
    """
    from fractions import Fraction

    delta0 = Fraction(delta0)
    r0 = inner.n_parts
    bound = composition_bound(n, r0, t0, k, delta0)  # validates n, t0, r0, k, delta0
    slice_size = _composition_slice(n, r0, k, delta0)
    if set(inner.part_sizes) != {slice_size}:
        raise DomainError(
            f"inner graph parts must all have size {slice_size}, "
            f"got {list(inner.part_sizes)}"
        )
    if inner.max_degree() > delta0 * slice_size:
        raise DomainError(
            f"inner graph max degree {inner.max_degree()} exceeds "
            f"delta0 * l = {delta0 * slice_size}"
        )
    bad = find_crossing_independent(inner, t0)
    if bad is not None:
        raise DomainError(
            f"inner graph admits a crossing independent set of size {t0}: {list(bad)}"
        )

    r = r0 * k
    skeleton = empty_graph([n] * r)
    parts = skeleton.part_masks
    low = (1 << slice_size) - 1
    small = sum(low << (p * n) for p in range(r))
    block = [sum(parts[b * r0:(b + 1) * r0]) for b in range(k)]
    # each inner row moved onto block 0's small sides, slice j to part j
    moved = [
        sum(((row >> (j * slice_size)) & low) << (j * n) for j in range(r0))
        for row in inner.rows
    ]
    rows: list[int] = []
    for p in range(r):
        b, j = divmod(p, r0)
        outside = small & ~block[b]
        shift = b * r0 * n
        rows += [outside | row << shift for row in moved[j * slice_size:(j + 1) * slice_size]]
        rows += [block[b] & ~small & ~parts[p]] * (n - slice_size)
    graph = skeleton.with_rows(rows)

    measured_max = graph.max_degree()
    expected_max = max(
        (k - 1) * r0 * slice_size + inner.max_degree(),
        (r0 - 1) * (n - slice_size),
    )
    if measured_max != expected_max or measured_max > bound:
        raise InternalConsistencyError(
            f"block-composition: max degree {measured_max}, expected "
            f"{expected_max} within bound {bound}"
        )
    return ConstructionOutput(
        graph=graph,
        coloring=None,
        claimed_min_degree=graph.min_degree(),
        claimed_max_degree=measured_max,
        source="block-composition",
    )
