"""Exact combinatorial checkers and machine-checkable certificates.

The clique and crossing-independent-set searches branch part by part in
ascending part order, carrying the candidate set as a bitmask and pruning
with the number of parts that still hold candidates. Vertices of a part
with identical adjacency rows are interchangeable, so only one
representative per distinct row is branched on; the structured graphs
this package builds collapse dramatically under that reduction.

Coloring search is exact backtracking in saturation order with forward
checking, so a None answer really means no coloring exists. It runs on the
twin quotient: vertices with identical rows are never adjacent and can
share a color, so a blow-up shrinks to a few classes per part.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .bounds import aes_threshold
from .errors import DomainError, UnknownClaimError
from .graphs import ColorPartition, MultipartiteGraph, bit_indices

__all__ = [
    "max_clique",
    "find_clique",
    "max_crossing_independent",
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


def _branch_search(
    g: MultipartiteGraph, *, independent: bool, stop_at: int | None = None
) -> tuple[int, tuple[int, ...]]:
    """Shared kernel: largest crossing clique or crossing independent set.

    A clique never holds two vertices of one part, so cliques are crossing
    automatically and the same part-by-part scheme serves both problems;
    only the candidate update differs.
    """
    rows = g.rows
    part_masks = g.part_masks
    n_parts = g.n_parts
    best = 0
    best_set: tuple[int, ...] = ()

    def rec(pi: int, cand: int, cur: list[int]) -> None:
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
        reps: dict[int, int] = {}
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


def max_clique(g: MultipartiteGraph) -> tuple[int, tuple[int, ...]]:
    """Clique number together with a witness clique."""
    return _branch_search(g, independent=False)


def find_clique(g: MultipartiteGraph, size: int) -> tuple[int, ...] | None:
    """A clique on ``size`` vertices, or None after exhausting the search."""
    if size < 1:
        raise DomainError(f"clique size must be >= 1, got {size}")
    found, witness = _branch_search(g, independent=False, stop_at=size)
    return witness[:size] if found >= size else None


def max_crossing_independent(g: MultipartiteGraph) -> tuple[int, tuple[int, ...]]:
    """Largest independent set with at most one vertex per part, plus witness."""
    return _branch_search(g, independent=True)


def find_crossing_independent(
    g: MultipartiteGraph, size: int
) -> tuple[int, ...] | None:
    """A crossing independent set of ``size`` vertices, or None."""
    if size < 1:
        raise DomainError(f"set size must be >= 1, got {size}")
    found, witness = _branch_search(g, independent=True, stop_at=size)
    return witness[:size] if found >= size else None


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
    colors = _saturation_coloring(quotient, degrees, t)
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
    recurses once per vertex; a recursion limit raised for it is restored
    before returning.
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

    limit = sys.getrecursionlimit()
    if limit < 2 * n + 100:
        sys.setrecursionlimit(2 * n + 100)
    try:
        found = rec()
    finally:
        sys.setrecursionlimit(limit)
    return colors if found else None


def aes_check(g: MultipartiteGraph, t: int) -> str:
    """Test one instance of the chromatic threshold theorem.

    If the graph has a clique on t + 1 vertices or its minimum degree does
    not exceed ``aes_threshold(t, N)``, the hypothesis fails: vacuous.
    Otherwise a t-coloring must exist; a missing one would contradict the
    theorem, so ``REFUTED`` can only mean a bug in this package and is
    never an acceptable steady state.
    """
    total = g.n_vertices
    if find_clique(g, t + 1) is not None:
        return VACUOUS
    if Fraction(g.min_degree()) <= aes_threshold(t, total):
        return VACUOUS
    return CONFIRMED if find_coloring(g, t) is not None else REFUTED


# -- certificates ------------------------------------------------------

_CLAIM_KINDS = (
    "kfree",
    "min_degree",
    "max_degree",
    "colorable",
    "no_crossing_independent",
)


@dataclass(frozen=True)
class PropertyCheck:
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


@dataclass(frozen=True)
class Certificate:
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _check_one(
    g: MultipartiteGraph,
    kind: str,
    value: int,
    witnesses: Mapping[str, object],
) -> PropertyCheck:
    if kind == "kfree":
        clique = find_clique(g, value)
        return PropertyCheck(kind, value, clique is None, list(clique) if clique else None)
    if kind == "min_degree":
        measured = g.min_degree()
        at = min(range(g.n_vertices), key=g.degree)
        return PropertyCheck(kind, value, measured == value, {"vertex": at, "degree": measured})
    if kind == "max_degree":
        measured = g.max_degree()
        at = max(range(g.n_vertices), key=g.degree)
        return PropertyCheck(kind, value, measured == value, {"vertex": at, "degree": measured})
    if kind == "colorable":
        supplied = witnesses.get("colorable")
        if isinstance(supplied, ColorPartition):
            ok = supplied.num_colors <= value and supplied.is_proper(g)
            return PropertyCheck(kind, value, ok, list(supplied.colors) if ok else None)
        coloring = find_coloring(g, value)
        return PropertyCheck(
            kind, value, coloring is not None, list(coloring.colors) if coloring else None
        )
    if kind == "no_crossing_independent":
        found = find_crossing_independent(g, value)
        return PropertyCheck(kind, value, found is None, list(found) if found else None)
    raise UnknownClaimError(f"unknown claim kind {kind!r}; known: {_CLAIM_KINDS}")


def certify(
    g: MultipartiteGraph,
    claims: Sequence[tuple[str, int]] | Mapping[str, int],
    witnesses: Mapping[str, object] | None = None,
) -> Certificate:
    """Check each claim exactly and return the verdicts with witnesses.

    ``witnesses`` may carry a known coloring under the key "colorable";
    validating it replaces the coloring search, which keeps certification
    of construction outputs linear in the edge count.
    """
    items = list(claims.items()) if isinstance(claims, Mapping) else list(claims)
    witnesses = witnesses or {}
    checks = tuple(_check_one(g, kind, value, witnesses) for kind, value in items)
    return Certificate(graph_digest=g.digest(), properties=checks)
