"""Brute-force ground truth on tiny instances.

Two independent exhaustive searches over all r-partite graphs with parts
of size n, driven by a DFS over the cross pairs in part-major order:

* ``oracle_f``: the largest minimum degree among graphs with no clique
  on q vertices.
* ``oracle_delta``: the smallest maximum degree among graphs in which
  every crossing set of s vertices (one per part, at most) spans an edge.

The two are exchanged by the cross complement, which ``duality_audit``
exploits as an end-to-end consistency check: the values must mirror each
other and each witness must certify the other side's property after
complementation.

Both searches are exact but exponential, so instances are capped at a
small vertex count by default; the cap is a safety rail, not a
correctness bound, and callers may raise it explicitly. By default they
skip every assignment that adjacent part and vertex swaps prove is not
the lexicographically greatest of its orbit (a partial lex-leader check
after Crawford, Ginsberg, Luks and Roy, KR 1996); every orbit keeps its
leader, so the values are those of the unpruned search. Each node
resumes every generator's comparison where its parent left it.

A node pays only for the pair its last decision flipped. The probe for
a feasible completion (mode f: ``find_clique`` in the graph of all pairs
not excluded; mode delta: ``find_crossing_independent`` among the
included pairs) hands the set it found to the node's children, and a
child probes again only when the flipped pair has both ends in that
set. Mode delta's dead-end check asks whether the pairs not excluded
leave a crossing independent set; those sets are exactly the cliques of
the excluded pairs, and the parent had none, so after an exclude the
verifier's clique kernel runs on the excluded rows, among the common
neighbors of the excluded pair. Mode f's include check runs the same
kernel on the included rows, among the common neighbors of the included
pair. The entry node probes in full. The search tree, every value and
every witness are those of the full probes.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import DomainError, InternalConsistencyError, SizeCapError
from .graphs import MultipartiteGraph, complete_multipartite
from .verifier import _clique_in, find_clique, find_crossing_independent

__all__ = [
    "MODE_F",
    "MODE_DELTA",
    "DEFAULT_CAP",
    "OracleResult",
    "oracle_f",
    "oracle_delta",
    "duality_audit",
]

MODE_F = "f"
MODE_DELTA = "delta"

DEFAULT_CAP = 10


@dataclass(frozen=True)
class OracleResult:
    """Exhaustively computed extremal value with an optimal witness."""

    mode: str
    n: int
    r: int
    size: int
    value: int
    witness: MultipartiteGraph

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "r": self.r,
            "size": self.size,
            "value": self.value,
        }


def _cross_pairs(n: int, r: int, seed: int | None) -> list[tuple[int, int]]:
    pairs = [
        (u, v)
        for u in range(r * n)
        for v in range(u + 1, r * n)
        if u // n != v // n
    ]
    if seed is not None:
        random.Random(seed).shuffle(pairs)
    return pairs


def _position_perms(
    n: int, r: int, pairs: list[tuple[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """Pair-index permutations induced by adjacent part and vertex swaps.

    Each generator is an involution on vertices that preserves the
    partition shape, so it permutes the cross pairs among themselves.
    """
    total = r * n
    index_of = {p: i for i, p in enumerate(pairs)}
    vertex_perms: list[list[int]] = []
    for j in range(r - 1):
        perm = list(range(total))
        for i in range(n):
            perm[j * n + i], perm[(j + 1) * n + i] = (
                perm[(j + 1) * n + i],
                perm[j * n + i],
            )
        vertex_perms.append(perm)
    for j in range(r):
        for i in range(n - 1):
            perm = list(range(total))
            u, w = j * n + i, j * n + i + 1
            perm[u], perm[w] = perm[w], perm[u]
            vertex_perms.append(perm)
    gens: list[tuple[int, ...]] = []
    for perm in vertex_perms:
        image = []
        for u, v in pairs:
            a, b = perm[u], perm[v]
            if a > b:
                a, b = b, a
            image.append(index_of[(a, b)])
        gens.append(tuple(image))
    return tuple(gens)


def _lex_scan(
    scans: list[tuple[tuple[int, ...], int]], a: list[int]
) -> list[tuple[tuple[int, ...], int]] | None:
    """Resume the partial lex-leader check on the decided prefix ``a``.

    ``scans`` pairs each generator still in play with the first position
    at which a shorter prefix of ``a`` left its comparison unsettled; the
    positions before it compare equal for good, so the walk resumes
    there. It stops at the first undecided image, so it only ever prunes
    on proof. Returns None when some generator maps ``a`` to a greater
    assignment (prune), else the scans still open: a generator under
    which ``a`` is already greater can never prune below and is dropped.
    """
    d = len(a)
    still_open = []
    for pi, p in scans:
        while p < d and pi[p] < d and a[p] == a[pi[p]]:
            p += 1
        if p < d and pi[p] < d:
            if a[p] < a[pi[p]]:
                return None
        else:
            still_open.append((pi, p))
    return still_open


def _decide(
    mode: str,
    n: int,
    r: int,
    size: int,
    bound: int,
    pairs: list[tuple[int, int]],
    prefix: tuple[int, ...],
    gens: tuple[tuple[int, ...], ...],
) -> list[int] | None:
    """Decision search: adjacency rows of a feasible graph, or None.

    Mode ``f`` asks for a graph with no clique on ``size`` vertices and
    minimum degree at least ``bound``; mode ``delta`` for a graph with no
    crossing independent set of ``size`` vertices and maximum degree at
    most ``bound``. Pairs are decided strictly in list order, include
    branch first; assignments that ``gens`` prove not lex-maximal in
    their orbit are pruned.
    """
    npairs = len(pairs)
    template = complete_multipartite((n,) * r)
    # rows: the included pairs; excl: the excluded pairs; comp: every
    # cross pair not excluded, i.e. the graph that includes all undecided
    # pairs. An include changes only rows, an exclude only excl and comp.
    rows = [0] * template.n_vertices
    excl = [0] * template.n_vertices
    comp = list(template.rows)
    wrap = template.with_rows
    parts = template.part_masks
    a: list[int] = []
    # the success probe's graph, which is feasible when the probe finds
    # nothing, and the decision value that changes it
    feasible, changed_by = (comp, 0) if mode == MODE_F else (rows, 1)

    def probe() -> tuple[int, ...] | None:
        if mode == MODE_F:
            return find_clique(wrap(comp), size)
        return find_crossing_independent(wrap(rows), size)

    def include_ok(k: int) -> bool:
        u, v = pairs[k]
        if mode == MODE_F:
            return _clique_in(rows, parts, rows[u] & rows[v], size - 2) is None
        return rows[u].bit_count() < bound and rows[v].bit_count() < bound

    def exclude_ok(k: int) -> bool:
        if mode == MODE_F:
            # comp degrees are the most each vertex can still reach
            u, v = pairs[k]
            return comp[u].bit_count() > bound and comp[v].bit_count() > bound
        return True

    def flip(k: int, val: int) -> None:
        u, v = pairs[k]
        bu, bv = 1 << u, 1 << v
        if val:
            rows[u] ^= bv
            rows[v] ^= bu
        else:
            excl[u] ^= bv
            excl[v] ^= bu
            comp[u] ^= bv
            comp[v] ^= bu

    def rec(
        k: int,
        last: int | None,
        wit: tuple[int, ...] | None,
        scans: list[tuple[tuple[int, ...], int]],
    ) -> list[int] | None:
        """Search below the node with ``k`` pairs decided, the last of
        them to ``last``; ``last`` and ``wit`` are None at the entry node.

        ``wit`` is the set that the nearest probe above found in its
        graph: a clique of comp in mode f, a crossing independent set of
        rows in mode delta. It stays one unless the last decision changed
        that graph at a pair with both ends in the set, and while it stays
        one the probe is skipped, since it could only find a set again.
        """
        scans = _lex_scan(scans, a)
        if scans is None:
            return None
        if wit is None or (
            last == changed_by and pairs[k - 1][0] in wit and pairs[k - 1][1] in wit
        ):
            wit = probe()
            if wit is None:
                # mode f: include everything still open, which lands the
                # degrees on comp, kept at or above the target by the
                # exclude guard; mode delta: exclude it, keeping rows
                return feasible[:]
        if k == npairs:
            return None
        if mode == MODE_DELTA and last != 1:
            # a crossing independent set of comp stays one in every
            # completion, each a subgraph of comp, so give up here. Those
            # sets are the cliques of excl, and the parent's comp had
            # none, so after an exclude a new one holds both ends.
            if last is None:
                dead = find_crossing_independent(wrap(comp), size) is not None
            else:
                u, v = pairs[k - 1]
                dead = _clique_in(excl, parts, excl[u] & excl[v], size - 2) is not None
            if dead:
                return None
        for val, ok in ((1, include_ok), (0, exclude_ok)):
            if ok(k):
                flip(k, val)
                a.append(val)
                found = rec(k + 1, val, wit, scans)
                a.pop()
                flip(k, val)
                if found is not None:
                    return found
        return None

    for k, val in enumerate(prefix):
        if not (include_ok if val else exclude_ok)(k):
            return None
        flip(k, val)
        a.append(val)
    return rec(len(prefix), None, None, [(pi, 0) for pi in gens])


def _search(
    mode: str,
    n: int,
    r: int,
    size: int,
    bound: int,
    pairs: list[tuple[int, int]],
    jobs: int | None,
    gens: tuple[tuple[int, ...], ...],
) -> list[int] | None:
    """Run one decision, fanning out over the first two pairs if asked.

    The four depth-2 prefixes are submitted in the serial DFS order and
    the first success in that fixed order wins, so the parallel path is
    deterministic and agrees with the serial one on the decision.
    """
    if jobs is not None and jobs > 1 and len(pairs) >= 2:
        tasks = [
            (mode, n, r, size, bound, pairs, prefix, gens)
            for prefix in ((1, 1), (1, 0), (0, 1), (0, 0))
        ]
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            futures = [pool.submit(_decide, *t) for t in tasks]
            for i, fut in enumerate(futures):
                rows = fut.result()
                if rows is not None:
                    for later in futures[i + 1 :]:
                        later.cancel()
                    return rows
        return None
    return _decide(mode, n, r, size, bound, pairs, (), gens)


def _solve(
    mode: str,
    n: int,
    r: int,
    size: int,
    cap: int,
    jobs: int | None,
    symmetry_reduction: bool,
    seed: int | None,
) -> OracleResult:
    """Binary search on the degree target over exhaustive decisions.

    Feasibility is monotone in the target: downward in mode f, where the
    value is the largest feasible minimum degree, and upward in mode
    delta, where it is the smallest feasible maximum degree. The returned
    witness attains the value exactly.
    """
    if n < 1:
        raise DomainError(f"part size must be >= 1, got n={n}")
    if r < 2:
        raise DomainError(f"need at least two parts, got r={r}")
    if size < 2:
        raise DomainError(f"forbidden structure needs >= 2 vertices, got {size}")
    if cap < 1:
        raise DomainError(f"size cap must be >= 1, got {cap}")
    if jobs is not None and jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    if r * n > cap:
        raise SizeCapError(
            f"instance has {r * n} vertices but the exhaustive search is "
            f"capped at {cap}; pass a larger cap to override"
        )
    pairs = _cross_pairs(n, r, seed)
    gens = _position_perms(n, r, pairs) if symmetry_reduction else ()
    largest = mode == MODE_F

    def decide(bound: int) -> list[int] | None:
        return _search(mode, n, r, size, bound, pairs, jobs, gens)

    lo, high, best = 0, (r - 1) * n, None
    while lo < high:
        mid = (lo + high + largest) // 2
        rows = decide(mid)
        if rows is None:
            lo, high = (lo, mid - 1) if largest else (mid + 1, high)
        else:
            best = rows
            lo, high = (mid, high) if largest else (lo, mid)
    if best is None:
        best = decide(lo)
    if best is None:
        raise InternalConsistencyError("decision failed at the trivial target")
    witness = MultipartiteGraph((n,) * r, tuple(best))
    kind, degree = (
        ("minimum", witness.min_degree()) if largest else ("maximum", witness.max_degree())
    )
    if degree != lo:
        raise InternalConsistencyError(f"witness {kind} degree {degree} != value {lo}")
    return OracleResult(mode, n, r, size, lo, witness)


def oracle_f(
    n: int,
    r: int,
    q: int,
    *,
    cap: int = DEFAULT_CAP,
    jobs: int | None = None,
    symmetry_reduction: bool = True,
    seed: int | None = None,
) -> OracleResult:
    """Largest minimum degree of a K_q-free r-partite graph, parts of size n.

    ``symmetry_reduction=False`` runs the unpruned search, kept as the
    reference the pruned one is tested against.
    """
    return _solve(MODE_F, n, r, q, cap, jobs, symmetry_reduction, seed)


def oracle_delta(
    n: int,
    r: int,
    s: int,
    *,
    cap: int = DEFAULT_CAP,
    jobs: int | None = None,
    symmetry_reduction: bool = True,
    seed: int | None = None,
) -> OracleResult:
    """Smallest maximum degree of an r-partite graph, parts of size n, in
    which no s vertices from s distinct parts are pairwise non-adjacent."""
    return _solve(MODE_DELTA, n, r, s, cap, jobs, symmetry_reduction, seed)


def duality_audit(
    n: int,
    r: int,
    s: int,
    *,
    cap: int = DEFAULT_CAP,
    jobs: int | None = None,
    symmetry_reduction: bool = True,
    seed: int | None = None,
) -> dict:
    """Check both oracles against each other through the cross complement.

    The values must satisfy delta = (r-1)n - f with the same s, and each
    witness, complemented, must certify the opposite property. Any
    mismatch is a bug in this package, never a property of the inputs.
    """
    kw = dict(cap=cap, jobs=jobs, symmetry_reduction=symmetry_reduction, seed=seed)
    rf = oracle_f(n, r, s, **kw)
    rd = oracle_delta(n, r, s, **kw)
    if rf.value + rd.value != (r - 1) * n:
        raise InternalConsistencyError(
            f"duality broken: f={rf.value}, delta={rd.value}, "
            f"expected sum {(r - 1) * n}"
        )
    comp_f = rf.witness.cross_complement()
    if find_crossing_independent(comp_f, s) is not None:
        raise InternalConsistencyError(
            "complement of the clique-free witness has a crossing "
            "independent set it must not have"
        )
    if comp_f.max_degree() != rd.value:
        raise InternalConsistencyError(
            "complement of the clique-free witness misses the delta value"
        )
    comp_d = rd.witness.cross_complement()
    if find_clique(comp_d, s) is not None:
        raise InternalConsistencyError(
            "complement of the covering witness contains a forbidden clique"
        )
    if comp_d.min_degree() != rf.value:
        raise InternalConsistencyError(
            "complement of the covering witness misses the f value"
        )
    return {"n": n, "r": r, "size": s, "f": rf.value, "delta": rd.value}
