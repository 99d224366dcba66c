"""Exact combinatorial checkers and machine-checkable certificates.

One clique kernel serves every search. It walks the parts that still
hold candidates in ascending order, carrying the candidate set as a
bitmask and pruning with the number of such parts. Vertices of a part
with identical adjacency rows (twins) are never adjacent and share every
neighbor, so a search below one of them repeats the search below its
twin. The clique and crossing independent searches therefore run on twin
representatives, as coloring runs on the twin quotient: their candidates
start as the lowest vertex of each class of twins in a part, so a blow-up
is searched on a few vertices per part instead of all of them, with the
witnesses of the search over every vertex. A crossing independent set
(at most one vertex per part) is a clique of the cross complement, so
that search is the same kernel on the complemented rows, which keep the
classes of twins within each part. The oracle calls the kernel on its
raw row lists.

Coloring search is exact backtracking in saturation order with forward
checking, so a None answer really means no coloring exists. It runs on the
twin quotient: vertices with identical rows are never adjacent and can
share a color, so a blow-up shrinks to a few classes per part.
"""

from __future__ import annotations

import sys
from typing import NamedTuple, Sequence

from .bounds import aes_threshold
from .errors import DomainError, UnknownClaimError
from .graphs import ColorPartition, MultipartiteGraph, bit_indices

__all__ = [
    "find_clique",
    "find_crossing_independent",
    "find_coloring",
    "aes_check",
    "VACUOUS",
    "CONFIRMED",
    "REFUTED",
    "PropertyCheck",
    "Certificate",
    "certify",
]

VACUOUS = "vacuous"
CONFIRMED = "confirmed"
REFUTED = "refuted"


def _clique_in(
    rows: Sequence[int], part_masks: Sequence[int], cand: int, k: int
) -> tuple[int, ...] | None:
    """The first clique on k vertices of ``cand``, or None.

    The search walks the parts that still hold candidates in ascending
    order. In each it branches on every candidate, lowest first, then
    moves past the part; it stops once fewer live parts remain than
    vertices are missing. A clique never holds two vertices of one part,
    so the recursion is one frame per clique vertex. A twin of a vertex
    already tried fails as that vertex did, so a ``cand`` with one vertex
    per class of twins gives the same answer from less search.
    """
    if not k:
        return ()
    if k == 1:
        # the part walk's answer: the lowest vertex of the first live part
        return ((cand & -cand).bit_length() - 1,) if cand else None
    if k == 2:
        # the part walk's answer: the lowest vertex with a neighbor in
        # cand, all of them in later parts, and its lowest such neighbor
        m = cand
        while m:
            b = m & -m
            nb = rows[b.bit_length() - 1] & cand
            if nb:
                return b.bit_length() - 1, (nb & -nb).bit_length() - 1
            m ^= b
        return None
    if cand.bit_count() < k:
        return None
    live = [pm for pm in part_masks if cand & pm]
    for i, pm in enumerate(live):
        if len(live) - i < k:
            return None
        m = cand & pm
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            rest = _clique_in(rows, part_masks, cand & rows[v], k - 1)
            if rest is not None:
                return (v, *rest)
        cand &= ~pm
    return None


def _with_depth(depth: int, fn, *args):
    """``fn(*args)`` with room for ``depth`` nested frames.

    A recursion limit raised for the call is restored before returning.
    """
    limit = sys.getrecursionlimit()
    if limit >= 2 * depth + 100:
        return fn(*args)
    sys.setrecursionlimit(2 * depth + 100)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


def _twin_representatives(g: MultipartiteGraph) -> int:
    """Mask of the lowest vertex of each class of twins within a part.

    Twins are never adjacent and have the same neighbors, so a candidate
    set of the search from all vertices holds a whole class or none of
    it, and the search below a later twin repeats the failed search below
    the lowest. Leaving the later twins out therefore tries the other
    vertices in the same order and returns the same witness. Where every
    part is one vertex, each is its own class and the scan is skipped.
    """
    n = g.n_vertices
    if g.n_parts == n:
        return g.full_mask
    # the dict keeps the last vertex given for a key: walk down from the top
    lowest = dict(zip(zip(g.rows[::-1], g.part_of[::-1]), range(n - 1, -1, -1)))
    return sum(map((1).__lshift__, lowest.values()))


def _first(g: MultipartiteGraph, rows: Sequence[int], k: int) -> tuple[int, ...] | None:
    """The kernel's first clique on k vertices of ``rows``, the rows of
    ``g`` or of its cross complement, which has the same twin classes."""
    return _with_depth(
        min(k, g.n_parts), _clique_in, rows, g.part_masks, _twin_representatives(g), k
    )


def find_clique(g: MultipartiteGraph, size: int) -> tuple[int, ...] | None:
    """A clique on ``size`` vertices, or None after exhausting the search."""
    if size < 1:
        raise DomainError(f"clique size must be >= 1, got {size}")
    return _first(g, g.rows, size)


def find_crossing_independent(
    g: MultipartiteGraph, size: int
) -> tuple[int, ...] | None:
    """A crossing independent set of ``size`` vertices, or None."""
    if size < 1:
        raise DomainError(f"set size must be >= 1, got {size}")
    return _first(g, g.cross_complement().rows, size)


def find_coloring(g: MultipartiteGraph, t: int) -> ColorPartition | None:
    """A proper coloring with at most t classes, or None if none exists.

    Vertices with identical rows form one class of the twin quotient. Twins
    are never adjacent, so a coloring of the quotient lifts to ``g`` by
    giving each vertex its class's color; the quotient is the subgraph
    induced by one representative per class, so a quotient with no
    t-coloring means ``g`` has none either.
    """
    if t < 1:
        raise DomainError(f"need at least one color, got t={t}")
    rows = g.rows
    class_ids: dict[int, int] = {}
    reps: list[int] = []
    class_of: list[int] = []
    for v, row in enumerate(rows):
        c = class_ids.get(row)
        if c is None:
            c = class_ids[row] = len(reps)
            reps.append(v)
        class_of.append(c)
    rep_mask = 0
    for v in reps:
        rep_mask |= 1 << v
    quotient = []
    for v in reps:
        q = 0
        for u in bit_indices(rows[v] & rep_mask):
            q |= 1 << class_of[u]
        quotient.append(q)
    degrees = [rows[v].bit_count() for v in reps]
    # k classes are k-colorable, and with t >= k colors no vertex ever sees
    # a full palette, so the cap leaves every coloring as it was
    colors = _saturation_coloring(quotient, degrees, min(t, len(reps)))
    if colors is None:
        return None
    return ColorPartition(tuple(colors[c] for c in class_of), t)


def _saturation_coloring(
    rows: Sequence[int], degrees: Sequence[int], t: int
) -> list[int] | None:
    """Colors 0..t-1 per vertex of the graph given by ``rows``, or None.

    Backtracking in saturation order (most distinctly colored neighbors
    first, ties by ``degrees``, then lowest id) with forward checking and
    the usual new-color symmetry break. Exhaustive, hence exact. The search
    recurses once per vertex.
    """
    n = len(rows)
    full_palette = (1 << t) - 1
    colors = [-1] * n
    forbidden = [0] * n
    uncolored = set(range(n))
    used = 0

    def rec() -> bool:
        nonlocal used
        if not uncolored:
            return True
        v = max(
            uncolored,
            key=lambda u: (forbidden[u].bit_count(), degrees[u], -u),
        )
        allowed = ~forbidden[v] & full_palette & ((1 << min(used + 1, t)) - 1)
        if not allowed:
            return False
        uncolored.discard(v)
        m = allowed
        while m:
            bit = m & -m
            c = bit.bit_length() - 1
            m ^= bit
            colors[v] = c
            used_before = used
            if c == used:
                used += 1
            touched: list[int] = []
            dead = False
            nb = rows[v]
            while nb:
                nbit = nb & -nb
                u = nbit.bit_length() - 1
                nb ^= nbit
                if colors[u] == -1 and not (forbidden[u] >> c) & 1:
                    forbidden[u] |= 1 << c
                    touched.append(u)
                    if forbidden[u] == full_palette:
                        dead = True
                        break
            if not dead and rec():
                return True
            for u in touched:
                forbidden[u] ^= 1 << c
            used = used_before
            colors[v] = -1
        uncolored.add(v)
        return False

    return colors if _with_depth(n, rec) else None


def aes_check(g: MultipartiteGraph, t: int) -> str:
    """Test one instance of the chromatic threshold theorem.

    If the graph has a clique on t + 1 vertices or its minimum degree does
    not exceed ``aes_threshold(t, N)``, the hypothesis fails: vacuous.
    Otherwise a t-coloring must exist; a missing one would contradict the
    theorem, so ``REFUTED`` can only mean a bug in this package and is
    never an acceptable steady state.
    """
    threshold = aes_threshold(t, g.n_vertices)
    if find_clique(g, t + 1) is not None:
        return VACUOUS
    if g.min_degree() <= threshold:
        return VACUOUS
    return CONFIRMED if find_coloring(g, t) is not None else REFUTED


# -- certificates ------------------------------------------------------

class PropertyCheck(NamedTuple):
    """Outcome of one claim: verdict plus a re-checkable witness.

    Positive claims (colorable) carry the object found; refuted negative
    claims (kfree, no_crossing_independent) carry the counterexample; the
    degree claims carry a vertex attaining the extreme degree.
    """

    kind: str
    value: int
    verdict: bool
    witness: object | None

    def to_json_dict(self) -> dict:
        return {
            "claim": self.kind,
            "value": self.value,
            "verdict": self.verdict,
            "witness": self.witness,
        }


class Certificate(NamedTuple):
    """Verdicts for a batch of claims against one graph."""

    graph_digest: str
    properties: tuple[PropertyCheck, ...]

    @property
    def all_true(self) -> bool:
        return all(p.verdict for p in self.properties)

    def to_json_dict(self) -> dict:
        return {
            "graph_digest": self.graph_digest,
            "all_true": self.all_true,
            "properties": [p.to_json_dict() for p in self.properties],
        }


def _none_found(found: tuple[int, ...] | None) -> tuple[bool, list[int] | None]:
    return found is None, list(found) if found else None


def _extreme_degree(g: MultipartiteGraph, value: int, extreme) -> tuple[bool, dict]:
    """Whether the least (``min``) or greatest (``max``) degree is
    ``value``, with the first vertex of that degree; one pass over the
    rows' bit counts."""
    degrees = list(map(int.bit_count, g.rows))
    measured = extreme(degrees)
    return measured == value, {"vertex": degrees.index(measured), "degree": measured}


def _colorable(g: MultipartiteGraph, t: int) -> tuple[bool, list[int] | None]:
    coloring = find_coloring(g, t)
    return coloring is not None, list(coloring.colors) if coloring else None


# Each entry maps (g, value) to (verdict, witness). The searches are looked
# up by name when a claim is checked, never bound here, so a rebinding of
# ``find_clique`` and its siblings in this module reaches ``certify``.
_CLAIMS = {
    "kfree": lambda g, k: _none_found(find_clique(g, k)),
    "min_degree": lambda g, d: _extreme_degree(g, d, min),
    "max_degree": lambda g, d: _extreme_degree(g, d, max),
    "colorable": _colorable,
    "no_crossing_independent": lambda g, k: _none_found(find_crossing_independent(g, k)),
}


def _check_claim_kinds(claims: Sequence[tuple[str, int]]) -> None:
    for kind, _ in claims:
        if kind not in _CLAIMS:
            raise UnknownClaimError(f"unknown claim kind {kind!r}; known: {tuple(_CLAIMS)}")


def certify(g: MultipartiteGraph, claims: Sequence[tuple[str, int]]) -> Certificate:
    """Check each (kind, value) claim exactly; return verdicts and witnesses.

    Every claim is decided by search on ``g``: a clique or crossing
    independent claim on twin representatives, a coloring claim by
    ``find_coloring`` on the twin quotient. An unknown kind is refused
    before the first search.
    """
    _check_claim_kinds(claims)
    checks = tuple(
        PropertyCheck(kind, value, *_CLAIMS[kind](g, value)) for kind, value in claims
    )
    return Certificate(graph_digest=g.digest(), properties=checks)
