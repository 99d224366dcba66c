"""Multipartite graphs over dense bitset adjacency.

Vertex ids are part-major: each part occupies a contiguous range of ids,
so a single table lookup, ``part_of[v]``, gives a vertex's part. Adjacency
rows are plain Python integers used as bitsets, which keeps neighborhood
intersection, degree counting and complementation word-parallel in the
search kernels.

Parts are independent sets. The constructor validates its rows: one per
vertex, in range, symmetric, and with no pair inside a part. ``with_rows``
wraps rows that are valid by construction on the parts of an existing
graph without checking them again, ``empty_graph`` builds all-zero rows
that need no check, and ``from_edges`` rejects out-of-range ids,
self-loops and intra-part pairs itself before it wraps its rows. So any
graph handed out by this module satisfies the multipartite invariant.
Graphs are immutable once built.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import chain, compress, count, repeat
from operator import setitem
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import GraphStructureError

__all__ = [
    "MultipartiteGraph",
    "ColorPartition",
    "empty_graph",
    "complete_multipartite",
    "from_edges",
    "MAX_VERTICES",
    "MAX_INPUT_BYTES",
]

MAX_VERTICES = 1 << 14
"""Largest vertex count ``from_edges`` accepts, checked before it allocates.

Dense rows cost n * n / 8 bytes and ``from_edges`` holds them twice while
it converts, so 2**14 vertices bound what a malformed or hostile graph file
can make a reader allocate to about 64 MiB. That is more than six times the
2600-vertex constructions verified routinely, and a dense graph at the
limit already needs a DIMACS file of over a gigabyte.
"""

MAX_INPUT_BYTES = 1 << 31
"""Largest graph file ``mpturan verify`` reads, in bytes.

The densest graph within ``MAX_VERTICES``, 2**14 parts of one vertex, is
1,697,016,710 bytes of DIMACS as ``to_dimacs`` writes it, so every graph the
readers accept fits. A longer regular file is refused by its size before it
is read, and a pipe or a device as soon as it has sent more.
"""

_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BYTE_BITS = tuple(1 << i for i in range(8))


def bit_indices(mask: int, start: int = 0) -> Iterator[int]:
    """Positions of the set bits of a non-negative ``mask``, ascending,
    each shifted by ``start``.

    The binary digits, lowest first, become 0/1 bytes that select from a
    counter, so the whole mask is enumerated in C rather than one Python
    step per bit.
    """
    return compress(count(start), bin(mask)[:1:-1].encode().translate(_BIT_FLAGS))


def _normalized_part_sizes(part_sizes: Iterable[int]) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in part_sizes)
    if not sizes:
        raise GraphStructureError("need at least one part")
    for s in sizes:
        if s < 1:
            raise GraphStructureError(f"part sizes must be >= 1, got {sizes}")
    return sizes


class MultipartiteGraph:
    """Immutable graph on labeled parts; edges join distinct parts only."""

    __slots__ = ("part_sizes", "part_of", "part_masks", "full_mask", "rows", "_digest")

    def __init__(self, part_sizes: Iterable[int], rows: Iterable[int]) -> None:
        n = self._set_parts(part_sizes)
        self.rows = tuple(rows)
        if len(self.rows) != n:
            raise GraphStructureError(f"expected {n} adjacency rows, got {len(self.rows)}")
        self._validate()

    def _set_parts(self, part_sizes: Iterable[int]) -> int:
        """Set the part data from ``part_sizes``; return the vertex count."""
        self.part_sizes = _normalized_part_sizes(part_sizes)
        part_of: list[int] = []
        part_masks = []
        n = 0
        for i, s in enumerate(self.part_sizes):
            part_of.extend([i] * s)
            part_masks.append(((1 << s) - 1) << n)
            n += s
        self.part_of = tuple(part_of)
        self.part_masks = tuple(part_masks)
        self.full_mask = (1 << n) - 1
        return n

    def _validate(self) -> None:
        rows = self.rows
        for v, row in enumerate(rows):
            if row & ~self.full_mask:
                raise GraphStructureError(f"row {v} references vertices out of range")
            if row & self.part_masks[self.part_of[v]]:
                raise GraphStructureError(
                    f"vertex {v} has a neighbor inside its own part {self.part_of[v]}"
                )
            for u in bit_indices(row):
                if not (rows[u] >> v) & 1:
                    raise GraphStructureError(f"adjacency is asymmetric on pair ({v}, {u})")

    # -- basic views ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.rows)

    @property
    def n_parts(self) -> int:
        return len(self.part_sizes)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def min_degree(self) -> int:
        return min(row.bit_count() for row in self.rows)

    def max_degree(self) -> int:
        return max(row.bit_count() for row in self.rows)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in ascending lexicographic order."""
        return chain.from_iterable(
            zip(repeat(u), bit_indices(row >> (u + 1), u + 1))
            for u, row in enumerate(self.rows)
        )

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    # -- derived graphs ------------------------------------------------

    def with_rows(self, rows: Iterable[int]) -> "MultipartiteGraph":
        """A graph on the same parts with other adjacency rows, unvalidated.

        The part data of ``self`` is shared instead of recomputed, which
        makes this the cheap way to wrap many row lists on one partition.
        The caller guarantees that ``rows`` is a valid adjacency: one row
        per vertex, symmetric, with no pair inside a part.
        """
        g = object.__new__(MultipartiteGraph)
        g.part_sizes = self.part_sizes
        g.part_of = self.part_of
        g.part_masks = self.part_masks
        g.full_mask = self.full_mask
        g.rows = tuple(rows)
        return g

    def cross_complement(self) -> "MultipartiteGraph":
        """Flip every cross-part pair; intra-part pairs stay non-edges.

        An involution. Cliques of the result are exactly the crossing
        independent sets of the original, and for balanced parts of size n
        the degrees satisfy deg(v) + deg'(v) = (r - 1) * n.
        """
        full = self.full_mask
        rows = [
            (full & ~row) & ~self.part_masks[self.part_of[v]]
            for v, row in enumerate(self.rows)
        ]
        return self.with_rows(rows)

    # -- identity ------------------------------------------------------

    def digest(self) -> str:
        """Content hash of the part sizes and the adjacency rows.

        SHA-256 over a domain tag, the part sizes in decimal, and every row
        as ceil(n / 8) little-endian bytes. Equal graphs hash equal whatever
        format they were read from. The graph is immutable, so the first
        call keeps the result for the later ones; a graph made from this one
        starts without it.
        """
        try:
            return self._digest
        except AttributeError:
            pass
        import hashlib

        width = (self.n_vertices + 7) >> 3
        h = hashlib.sha256(b"mpturan.graph.rows.v1\0")
        h.update(",".join(map(str, self.part_sizes)).encode() + b"\0")
        for row in self.rows:
            h.update(row.to_bytes(width, "little"))
        self._digest = "sha256:" + h.hexdigest()
        return self._digest

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultipartiteGraph):
            return NotImplemented
        return self.part_sizes == other.part_sizes and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.part_sizes, self.rows))

    def __repr__(self) -> str:
        return (
            f"MultipartiteGraph(parts={list(self.part_sizes)}, "
            f"edges={self.edge_count()})"
        )


def empty_graph(part_sizes: Iterable[int]) -> MultipartiteGraph:
    """Edgeless graph on the given parts; its zero rows need no validation."""
    g = object.__new__(MultipartiteGraph)
    g.rows = (0,) * g._set_parts(part_sizes)
    return g


def complete_multipartite(part_sizes: Iterable[int]) -> MultipartiteGraph:
    """Complete multipartite graph: every cross-part pair is an edge."""
    return empty_graph(part_sizes).cross_complement()


def from_edges(
    part_sizes: Iterable[int],
    edges: Iterable[tuple[int, int]],
    groups: Iterable[tuple[Sequence[int], Sequence[int]]] = (),
) -> MultipartiteGraph:
    """Graph on the given parts with the given (u, v) edges, 0-based.

    Each ``(vertices, neighbors)`` pair in ``groups`` adds an edge from
    every one of ``vertices`` to every one of ``neighbors``, which is how
    a reader hands over runs of twins without listing each edge.

    Repeated edges are harmless. An endpoint outside the vertex range, a
    self-loop, or a pair inside one part raises ``GraphStructureError``, as
    does a vertex count above ``MAX_VERTICES``. Where there are single
    edges, their bits are set in one bytearray per vertex. A group's vertex
    and neighbor masks are set in C as one 0/1 byte per vertex, through an
    ``array("I")`` of its ids, which refuses a negative id as the mask
    refuses one past the end; it then costs one OR per vertex and one per
    neighbor; loops and intra-part pairs are found on the finished rows
    with one mask test per vertex.
    """
    sizes = _normalized_part_sizes(part_sizes)
    n = sum(sizes)
    if n > MAX_VERTICES:
        raise GraphStructureError(
            f"{n} vertices exceed the limit of {MAX_VERTICES}"
        )
    rows = [0] * n
    edges = iter(edges)
    # runs once where there are single edges, as its body takes the rest
    for first in edges:
        width = (n + 7) >> 3
        bufs = [bytearray(width) for _ in range(n)]
        bit = _BYTE_BITS
        u = v = 0
        try:
            for u, v in chain((first,), edges):
                if u < 0 or v < 0:  # a negative index would wrap around silently
                    raise IndexError
                bufs[u][v >> 3] |= bit[v & 7]
                bufs[v][u >> 3] |= bit[u & 7]
        except IndexError:
            if 0 <= u < n and 0 <= v < n:
                raise
            bad = v if 0 <= u < n else u
            raise GraphStructureError(f"vertex id {bad} out of range [0, {n})") from None
        rows = [int.from_bytes(b, "little") for b in bufs]
    for vertices, neighbors in groups:
        masks = []
        for ids in (vertices, neighbors):
            # one 0/1 byte per vertex, set in C, so a repeated id sets its
            # bit once; the bytes, highest vertex first, are the binary digits.
            # An "I" array holds no negative id, and an id past the end
            # raises IndexError, so the range check costs nothing until it fails
            flags = bytearray(n)
            try:
                deque(map(setitem, repeat(flags), array("I", ids), repeat(1)), maxlen=0)
            except (IndexError, OverflowError):
                bad = min(ids) if min(ids) < 0 else max(ids)
                raise GraphStructureError(f"vertex id {bad} out of range [0, {n})") from None
            masks.append(int(flags.translate(_FLAG_DIGITS)[::-1], 2))
        to_vertices, to_neighbors = masks
        for w in vertices:
            rows[w] |= to_neighbors
        for w in neighbors:
            rows[w] |= to_vertices
    g = empty_graph(sizes).with_rows(rows)
    for v, row in enumerate(g.rows):
        inside = row & g.part_masks[g.part_of[v]]
        if inside:
            if (row >> v) & 1:
                raise GraphStructureError(f"self-loop at vertex {v}")
            u = inside.bit_length() - 1
            raise GraphStructureError(
                f"vertices {v} and {u} are both in part {g.part_of[v]}"
            )
    return g


class _Coloring(NamedTuple):
    colors: tuple[int, ...]
    num_colors: int


class ColorPartition(_Coloring):
    """Vertex coloring with 0-based colors; classes may be empty."""

    __slots__ = ()

    def __new__(cls, colors: tuple[int, ...], num_colors: int) -> ColorPartition:
        # a NamedTuple cannot define __new__ itself, so the check lives here
        if num_colors < 1:
            raise GraphStructureError("a coloring needs at least one color")
        for v, c in enumerate(colors):
            if not 0 <= c < num_colors:
                raise GraphStructureError(
                    f"vertex {v} has color {c}, outside [0, {num_colors})"
                )
        return super().__new__(cls, colors, num_colors)

    def class_masks(self) -> dict[int, int]:
        """Vertex mask of each color in use, so the size is the graph's."""
        masks: dict[int, int] = {}
        for v, c in enumerate(self.colors):
            masks[c] = masks.get(c, 0) | 1 << v
        return masks

    def is_proper(self, graph: MultipartiteGraph) -> bool:
        """True when every color class is an independent set of ``graph``."""
        if len(self.colors) != graph.n_vertices:
            return False
        masks = self.class_masks()
        return all(
            graph.rows[v] & masks[c] == 0 for v, c in enumerate(self.colors)
        )
