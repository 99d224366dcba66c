"""Brute-force ground truth on tiny instances.

Exhaustive searches over all r-partite graphs with parts of size n,
driven by a DFS over the cross pairs in part-major order:

* ``oracle_f``: the largest minimum degree among graphs with no clique
  on q vertices.
* ``oracle_delta``: the smallest maximum degree among graphs in which
  every crossing set of s vertices (one per part, at most) spans an edge.

Both run one decision search, for a graph H with no clique on ``size``
vertices and minimum degree at least a target, which decides each pair
exclude first. Mode f returns H. The cross complement exchanges the two
problems: it turns the cliques of H into the crossing independent sets
of its complement, and a minimum degree of f into a maximum degree of
(r - 1)n - f. So mode delta returns the cross complement of H.
``duality_audit`` runs the search once and re-checks its witness and
that witness's complement with the verifier; those checks are the
audit's independent part.

The search is exact but exponential, so instances are capped at a
small vertex count by default; the cap is a safety rail, not a
correctness bound, and callers may raise it explicitly. By default it
skips every assignment that adjacent part and vertex swaps prove is not
the lexicographically greatest of its orbit (a partial lex-leader check
after Crawford, Ginsberg, Luks and Roy, KR 1996); every orbit keeps its
leader, so the values are those of the unpruned search. Each
generator's comparison resumes where it stopped once the position it
stopped at and that position's image are both decided, so a decision
moves only the comparisons that waited on its pair.

A node pays only for the pair its last decision flipped. The probe for
a feasible completion, ``find_clique`` in the graph of all pairs not
excluded, hands the clique it found to the node's children, and a child
probes again only when it excluded a pair with both ends in that
clique. An include must not close a clique of the included pairs; the
parent had none, so the verifier's clique kernel runs on the included
rows, among the common neighbors of the included pair. The entry node
probes in full. The search tree, every value and every witness are
those of the full probes. Each child does the cheap work first: its
include or exclude guard, then the lex scan, then the flip of its pair.
Both tests are pure and the child is entered only when both pass, so
the order changes no node.

The search is one loop over an explicit state per decided pair, not a
recursion: going down a pair records the clique the node holds and the
comparisons its decision moved, and backing up restores them. A search
therefore holds the same few Python frames whatever its pair count,
raises no recursion limit, and takes the same time at whatever stack
depth it is entered at.

The binary search starts at a proven ceiling, not at (r - 1)n, and
tries the ceiling first. With t = size - 1 >= 2, N = rn and slack
s = (r - 1)n - target, two arguments refute a target. First, above the
threshold (3t - 4)N/(3t - 1) every feasible graph is t-colorable
(Andrasfai, Erdos and Sos 1974). Second, a color class meeting k parts
leaves each of its vertices non-adjacent to the class outside that
vertex's part, so minimum degree at least the target keeps the class's
size less its smallest part within s: the class holds at most
min(kn, floor(ks/(k - 1))) vertices, or n when k = 1. A target above the
threshold where t classes of that largest size cannot cover N vertices
is refuted without a search. The argument uses no closed form of
``bounds``, so the oracle stays an independent check on them. The step
at the answer still runs the search, so the witnesses are unchanged.

Every solve is one serial search. ``duality_audit`` with ``jobs`` above
1 runs that one search in a pool of one worker process, so its values
and witness are the serial ones; the pool overlaps nothing and is slated
for removal with ``--jobs``. The stdlib pool is imported when the first
such audit opens one, so importing this module, and every ``mpturan``
command, pays nothing for ``concurrent.futures`` and ``multiprocessing``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, InternalConsistencyError, SizeCapError
from .graphs import MultipartiteGraph, empty_graph
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


def ProcessPoolExecutor(max_workers: int):
    """A ``concurrent.futures.ProcessPoolExecutor``, imported when the first
    pool opens. Only a pooled audit opens one, and the import, with
    ``multiprocessing``, would otherwise cost every process's start-up."""
    import concurrent.futures

    return concurrent.futures.ProcessPoolExecutor(max_workers)


class OracleResult(NamedTuple):
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
        import random

        random.Random(seed).shuffle(pairs)
    return pairs


def _position_perms(
    n: int, r: int, pairs: list[tuple[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """Pair-index permutations induced by adjacent part and vertex swaps.

    Each generator is an involution on vertices that preserves the
    partition shape, so it permutes the cross pairs among themselves. A
    pair's image is read from a table of pair indices by both endpoints,
    so it needs no ordering of the two.
    """
    total = r * n
    index = [[0] * total for _ in range(total)]
    for i, (u, v) in enumerate(pairs):
        index[u][v] = index[v][u] = i
    vertex_perms: list[list[int]] = []
    for j in range(0, (r - 1) * n, n):
        perm = list(range(total))
        perm[j : j + 2 * n] = perm[j + n : j + 2 * n] + perm[j : j + n]
        vertex_perms.append(perm)
    for u in range(total):
        if (u + 1) % n:
            perm = list(range(total))
            perm[u : u + 2] = u + 1, u
            vertex_perms.append(perm)
    return tuple(
        tuple([index[perm[u]][perm[v]] for u, v in pairs]) for perm in vertex_perms
    )


def _lex_scan(
    scans: list[tuple[tuple[int, ...], int]], a: list[int]
) -> list[tuple[tuple[int, ...], int]] | None:
    """Resume the partial lex-leader check on the decided prefix ``a``.

    ``_decide`` runs this scan inline, and only on the generators that
    waited on the last decided position; this form over every generator is
    the reference it is tested against.

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


def _class_bound(n: int, r: int, slack: int) -> int:
    """Most vertices a color class can hold when no vertex misses more
    than ``slack`` cross vertices. A class in one part holds at most n.
    A class meeting k >= 2 parts, x_p vertices in part p, makes its
    vertices in part p miss sum(x) - x_p of them; the smallest x_p is at
    most sum(x)/k, so sum(x) * (k - 1)/k <= slack."""
    return max(n, *(min(k * n, k * slack // (k - 1)) for k in range(2, r + 1)))


def _ceiling(n: int, r: int, size: int) -> int:
    """Largest minimum degree target that coloring arguments leave open.

    A target above (3t - 4)N/(3t - 1), t = size - 1 >= 2 and N = rn, is
    feasible only with a t-colorable graph (Andrasfai-Erdos-Sos), whose
    t color classes cover all N vertices, each within ``_class_bound`` of
    the target's slack. Open targets form a down-set, so the scan stops
    at the first one. With size 2 only the edgeless graph is feasible, so
    the ceiling is 0.
    """
    top, t, total = (r - 1) * n, size - 1, r * n
    if t < 2:
        return 0
    while (
        top * (3 * t - 1) > (3 * t - 4) * total
        and t * _class_bound(n, r, (r - 1) * n - top) < total
    ):
        top -= 1
    return top


def _decide(
    n: int,
    r: int,
    size: int,
    bound: int,
    pairs: list[tuple[int, int]],
    gens: tuple[tuple[int, ...], ...],
) -> list[int] | None:
    """Decision search: adjacency rows of a feasible graph, or None.

    A graph is feasible when it has no clique on ``size`` vertices and
    minimum degree at least ``bound``. Pairs are decided strictly in list
    order, each excluded before it is included. The decided prefix holds
    1 where a pair was excluded; assignments that ``gens`` prove not
    lex-maximal in their orbit under that encoding are pruned. Per child,
    the guard runs before the lex scan, and the pair is flipped only when
    both pass.

    One loop walks the tree depth first, the node with k pairs decided
    holding state per decided pair instead of a Python frame: the prefix,
    the clique mask its probe left, and the comparisons its decision moved.
    A node without a child left backs up one pair and tries that pair's
    next branch.
    """
    npairs, need = len(pairs), size - 2
    shape = empty_graph((n,) * r)
    wrap, parts = shape.with_rows, shape.part_masks
    # rows: the included pairs; comp: every cross pair not excluded, i.e.
    # the graph that includes all undecided pairs, which starts complete.
    # An include changes only rows, an exclude only comp.
    rows = [0] * (r * n)
    comp = [shape.full_mask ^ pm for pm in parts for _ in range(n)]
    masks = [(u, v, 1 << u, 1 << v) for u, v in pairs]
    # The lex scans, by the position each waits on: a generator whose
    # comparison stopped at p, undecided, resumes once both p and its image
    # pi[p] are decided, so a decision at k moves only the scans in
    # waiting[k]; every other scan is left as _lex_scan would leave it.
    waiting: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(npairs)]
    for pi in gens:
        waiting[pi[0]].append((pi, 0))
    # The node with k pairs decided: a[:k], its decided prefix, 1 where a
    # pair was excluded; wit, the mask of the clique of comp that the
    # nearest probe above it found; excluded, the branch it tries next (1,
    # then 0, then none). Per decided pair j, wits[j] holds the wit of the
    # node that decided it and moves[j] the scans its decision moved.
    a, wits = [0] * npairs, [0] * npairs
    moves: list[list[int]] = [[]] * npairs
    k, wit, excluded, probe = 0, 0, 1, True
    while True:
        if probe:
            # at the entry node, and below an exclude that broke the clique,
            # having both ends in it; while the clique stands the probe is
            # skipped, since it could only find a clique again
            clique = find_clique(wrap(comp), size)
            if clique is None:
                # include everything still open, which lands the degrees
                # on comp, kept at or above the target by the exclude guard
                return comp[:]
            wit = 0
            for x in clique:
                wit |= 1 << x
        # the node's next child: its guard, then its lex scan; back up from
        # a node that has none left
        while True:
            moved = None
            if k < npairs:
                u, v, bu, bv = masks[k]
                d = k + 1
                while excluded >= 0:
                    if excluded:
                        # comp degrees are the most each vertex can still reach
                        passes = comp[u].bit_count() > bound and comp[v].bit_count() > bound
                    else:
                        # rows has no clique, so a new one would hold u, v
                        # and a clique on need of their common neighbors
                        cand = rows[u] & rows[v]
                        if need == 2:
                            passes, m = True, cand
                            while m:
                                b = m & -m
                                if rows[b.bit_length() - 1] & cand:
                                    passes = False
                                    break
                                m ^= b
                        elif need > 2:
                            passes = _clique_in(rows, parts, cand, need) is None
                        else:
                            passes = need == 1 and not cand
                    if passes:
                        a[k] = excluded
                        moved = []
                        for pi, p in waiting[k]:
                            while p < d and pi[p] < d and a[p] == a[pi[p]]:
                                p += 1
                            if p < d and pi[p] < d:
                                if a[p] < a[pi[p]]:
                                    for w in moved:
                                        waiting[w].pop()
                                    moved = None
                                    break
                            elif p < npairs:
                                w = pi[p]
                                if w < p:
                                    w = p
                                waiting[w].append((pi, p))
                                moved.append(w)
                        if moved is not None:
                            break
                    excluded -= 1
            if moved is not None:
                break
            if not k:
                return None
            k -= 1
            excluded, wit = a[k], wits[k]
            for w in moves[k]:
                waiting[w].pop()
            u, v, bu, bv = masks[k]
            side = comp if excluded else rows
            side[u] ^= bv
            side[v] ^= bu
            excluded -= 1
        wits[k], moves[k] = wit, moved
        side = comp if excluded else rows
        side[u] ^= bv
        side[v] ^= bu
        probe = excluded and wit & (bu | bv) == bu | bv
        k, excluded = k + 1, 1


def _solve(
    mode: str,
    n: int,
    r: int,
    size: int,
    cap: int,
    symmetry_reduction: bool,
    seed: int | None,
) -> OracleResult:
    """Binary search for the largest feasible target of ``_decide``.

    Feasibility is monotone downward in the minimum degree target. The
    one search gives a graph H of largest minimum degree lo with no clique
    on ``size`` vertices. Mode f returns H with value lo. Mode delta wants
    the cross complement G of H: the crossing independent sets of G are
    the cliques of H, and max deg G <= delta exactly when min deg H >=
    (r - 1)n - delta. So it returns G with value (r - 1)n - lo. The
    witness attains the value exactly. The search tries ``_ceiling``
    first and never goes above it: there a feasible graph would be
    t-colorable by the Andrasfai-Erdos-Sos theorem, and its t color
    classes could not cover all rn vertices, each capped by the slack the
    target leaves. ``symmetry_reduction=False`` bisects the full range
    (r - 1)n. Module-level, so that ``duality_audit`` can hand it to a
    process.
    """
    if not (type(n) is type(r) is type(size) is type(cap) is int):
        raise DomainError(f"n, r, size and cap must be ints, got {n!r}, {r!r}, {size!r}, {cap!r}")
    if n < 1:
        raise DomainError(f"part size must be >= 1, got n={n}")
    if r < 2:
        raise DomainError(f"need at least two parts, got r={r}")
    if size < 2:
        raise DomainError(f"forbidden structure needs >= 2 vertices, got {size}")
    if cap < 1:
        raise DomainError(f"size cap must be >= 1, got {cap}")
    if r * n > cap:
        raise SizeCapError(
            f"instance has {r * n} vertices but the exhaustive search is "
            f"capped at {cap}; pass a larger cap to override"
        )
    pairs = _cross_pairs(n, r, seed)

    # the empty graph is feasible at target 0, and target 0 is the answer
    # only when size is 2, where it is the one feasible graph. The default
    # search tries its ceiling first, the answer on most instances, and
    # the reference bisects from the first step. Either way lo is last set
    # by the step at the answer, so the ceiling changes no witness; at
    # size 2 the ceiling is 0, no step runs and the empty graph stands, so
    # the symmetry generators are built only when a step will read them.
    high = _ceiling(n, r, size) if symmetry_reduction else (r - 1) * n
    gens = _position_perms(n, r, pairs) if symmetry_reduction and high > 0 else ()
    mid = high if symmetry_reduction else (high + 1) // 2
    lo, best = 0, [0] * (r * n)
    while lo < high:
        rows = _decide(n, r, size, mid, pairs, gens)
        if rows is None:
            high = mid - 1
        else:
            best, lo = rows, mid
        mid = (lo + high + 1) // 2
    witness = MultipartiteGraph((n,) * r, tuple(best))
    if mode == MODE_F:
        value, kind, degree = lo, "minimum", witness.min_degree()
    else:
        witness = witness.cross_complement()
        value, kind, degree = (r - 1) * n - lo, "maximum", witness.max_degree()
    if degree != value:
        raise InternalConsistencyError(f"witness {kind} degree {degree} != value {value}")
    return OracleResult(mode, n, r, size, value, witness)


def oracle_f(
    n: int,
    r: int,
    q: int,
    *,
    cap: int = DEFAULT_CAP,
    symmetry_reduction: bool = True,
    seed: int | None = None,
) -> OracleResult:
    """Largest minimum degree of a K_q-free r-partite graph, parts of size n.

    The default search starts at a ceiling, which it tries first. Above
    the Andrasfai-Erdos-Sos threshold (3t - 4)N/(3t - 1), t = q - 1 and
    N = rn, a feasible graph is t-colorable. A target whose slack
    (r - 1)n - target caps every color class below N/t vertices is then
    refuted without a search. ``symmetry_reduction=False`` runs the
    unpruned search over the full range (r - 1)n, without the ceiling,
    kept as the reference the pruned one is tested against.
    """
    return _solve(MODE_F, n, r, q, cap, symmetry_reduction, seed)


def oracle_delta(
    n: int,
    r: int,
    s: int,
    *,
    cap: int = DEFAULT_CAP,
    symmetry_reduction: bool = True,
    seed: int | None = None,
) -> OracleResult:
    """Smallest maximum degree of an r-partite graph, parts of size n, in
    which no s vertices from s distinct parts are pairwise non-adjacent."""
    return _solve(MODE_DELTA, n, r, s, cap, symmetry_reduction, seed)


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
    """Run the f search once and check it through the cross complement.

    The delta result is the cross complement of the f witness, with value
    (r - 1)n - f. Four checks re-derive both sides from that one graph:
    the witness has no clique on s vertices and its minimum degree is f,
    and its complement has no crossing independent set of s vertices and
    its maximum degree is delta. Any failure is a bug in this package,
    never a property of the inputs. ``jobs`` above 1 runs the search in a
    pool of one worker process, with the serial result; the pool overlaps
    nothing and is slated for removal.
    """
    if jobs is not None and jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    if jobs is not None and jobs > 1:
        with ProcessPoolExecutor(1) as pool:
            rf = pool.submit(_solve, MODE_F, n, r, s, cap, symmetry_reduction, seed).result()
    else:
        rf = oracle_f(n, r, s, cap=cap, symmetry_reduction=symmetry_reduction, seed=seed)
    delta = (r - 1) * n - rf.value
    if find_clique(rf.witness, s) is not None:
        raise InternalConsistencyError("the clique-free witness contains a forbidden clique")
    if rf.witness.min_degree() != rf.value:
        raise InternalConsistencyError("the clique-free witness misses the f value")
    comp = rf.witness.cross_complement()
    if find_crossing_independent(comp, s) is not None:
        raise InternalConsistencyError(
            "complement of the clique-free witness has a crossing "
            "independent set it must not have"
        )
    if comp.max_degree() != delta:
        raise InternalConsistencyError(
            "complement of the clique-free witness misses the delta value"
        )
    return {"n": n, "r": r, "size": s, "f": rf.value, "delta": delta}
