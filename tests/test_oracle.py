import hashlib
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpturan.bounds import (
    best_known_bounds,
    exact_value_cases,
    transversal_clique_value,
    turan_sandwich,
)
from mpturan import oracle
from mpturan.errors import DomainError, InternalConsistencyError, SizeCapError
from mpturan.graphs import complete_multipartite
from mpturan.oracle import DEFAULT_CAP, duality_audit, oracle_delta, oracle_f
from mpturan.verifier import _clique_in, find_clique, find_crossing_independent


def test_oracle_f_frozen_values():
    assert oracle_f(1, 4, 4).value == 2
    assert oracle_f(1, 5, 4).value == 3
    assert oracle_f(1, 6, 4).value == 4
    assert oracle_f(2, 3, 3).value == 2
    assert oracle_f(1, 3, 3).value == 1


def test_oracle_f_seven_vertices():
    res = oracle_f(1, 7, 4)
    assert res.value == 4
    lo, hi = turan_sandwich(1, 7, 3)
    assert lo <= res.value <= math.floor(hi)


def test_oracle_f_witness_properties():
    res = oracle_f(1, 6, 4)
    assert res.witness.min_degree() == 4
    assert find_clique(res.witness, 4) is None


def test_oracle_f_matches_transversal_value():
    assert oracle_f(1, 4, 4).value == transversal_clique_value(1, 4)
    assert oracle_f(2, 3, 3).value == transversal_clique_value(2, 3)


def test_oracle_delta_frozen_values():
    assert oracle_delta(2, 2, 2).value == 2
    assert oracle_delta(1, 5, 4).value == 1
    assert oracle_delta(1, 3, 3).value == 1


def test_oracle_delta_witness_properties():
    res = oracle_delta(1, 5, 4)
    assert res.witness.max_degree() == 1
    assert find_crossing_independent(res.witness, 4) is None


def test_duality_audits():
    assert duality_audit(1, 4, 4)["f"] == 2
    assert duality_audit(1, 5, 4) == {"n": 1, "r": 5, "size": 4, "f": 3, "delta": 1}
    audit = duality_audit(2, 3, 3)
    assert audit["f"] == 2 and audit["delta"] == 2


def test_oracle_matches_exact_cases_on_tiny_instances():
    for n, r, t in [
        (1, 3, 2),
        (1, 4, 2),
        (1, 4, 3),
        (1, 5, 2),
        (1, 5, 3),
        (1, 5, 4),
        (2, 3, 2),
        (2, 4, 2),
        (2, 4, 3),
        (3, 3, 2),
        (2, 5, 3),
        (2, 5, 4),
    ]:
        expected = exact_value_cases(n, r, t)
        if expected is None:
            continue
        assert oracle_f(n, r, t + 1).value == expected, (n, r, t)


def test_oracle_inside_sandwich_envelope():
    for n, r, t in [(1, 4, 3), (1, 7, 3), (2, 4, 3), (1, 6, 4), (1, 7, 4)]:
        lo, hi = turan_sandwich(n, r, t)
        value = oracle_f(n, r, t + 1).value
        assert lo <= value <= math.floor(hi), (n, r, t)


def test_oracle_monotone_in_clique_order():
    values = [oracle_f(1, 5, q).value for q in range(2, 7)]
    assert values == sorted(values)
    assert values[0] == 0  # no edges allowed at all
    assert values[-1] == 4  # nothing forbidden on 5 vertices


def test_oracle_variants_agree():
    plain = oracle_f(1, 6, 4).value
    assert oracle_f(1, 6, 4, symmetry_reduction=True).value == plain
    assert oracle_f(1, 6, 4, seed=123).value == plain
    d = oracle_delta(2, 3, 3).value
    assert oracle_delta(2, 3, 3, symmetry_reduction=True, seed=11).value == d
    # a pooled audit runs the serial search in a child process and checks
    # it again through the complement in this one
    for instance in [(2, 3, 3), (1, 5, 4), (2, 4, 3), (1, 6, 4), (3, 3, 3)]:
        assert duality_audit(*instance, jobs=2) == duality_audit(*instance), instance


def test_one_pool_serves_a_whole_audit(monkeypatch):
    opened = []
    open_pool = oracle.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        opened.append(args)
        return open_pool(*args, **kwargs)

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", counting_pool)
    pooled = duality_audit(2, 5, 4, jobs=2)
    assert opened == [(1,)]
    assert duality_audit(2, 5, 4) == pooled
    assert duality_audit(2, 5, 4, jobs=1) == pooled
    with pytest.raises(DomainError):
        duality_audit(2, 5, 4, jobs=0)
    assert opened == [(1,)]


@pytest.mark.parametrize(
    "kind, match",
    [("clique", "forbidden clique"), ("value", "misses the f value")],
)
def test_audit_rechecks_catch_a_bad_witness(monkeypatch, kind, match):
    # the audit trusts nothing of its one search: a witness holding a
    # triangle, reported with its true minimum degree, or the true witness
    # reported one degree too high, each fails a re-check
    if kind == "clique":
        witness = complete_multipartite((2, 2, 2))
        value = witness.min_degree()
    else:
        witness = oracle_f(2, 3, 3).witness
        value = witness.min_degree() + 1

    def bad_oracle_f(n, r, q, **kw):
        return oracle.OracleResult(oracle.MODE_F, n, r, q, value, witness)

    monkeypatch.setattr(oracle, "oracle_f", bad_oracle_f)
    with pytest.raises(InternalConsistencyError, match=match):
        duality_audit(2, 3, 3)


@pytest.mark.parametrize("entry", [oracle_f, oracle_delta, duality_audit])
@pytest.mark.parametrize(
    "bad", [{"n": 1.5}, {"r": 4.0}, {"size": True}, {"cap": 10.0}], ids=repr
)
def test_sizes_that_are_not_ints_are_refused(entry, bad):
    # oracle_f(1.5, 4, 3) once ended in a TypeError traceback
    args = {"n": 1, "r": 4, "size": 3, "cap": DEFAULT_CAP, **bad}
    with pytest.raises(DomainError, match="must be ints"):
        entry(args["n"], args["r"], args["size"], cap=args["cap"])


def test_size_cap():
    with pytest.raises(SizeCapError):
        oracle_f(2, 6, 4)
    with pytest.raises(SizeCapError):
        oracle_f(1, 4, 4, cap=3)
    assert oracle_f(1, 4, 4, cap=4).value == 2


def test_oracle_domain_errors():
    with pytest.raises(DomainError):
        oracle_f(0, 3, 3)
    with pytest.raises(DomainError):
        oracle_f(1, 1, 3)
    with pytest.raises(DomainError):
        oracle_f(1, 3, 1)


# (f, delta) for every (n, r, s) with r * n <= DEFAULT_CAP and 2 <= s <= r + 1,
# listed as (n, r): [value at s = 2, 3, ..., r + 1]. Computed once with
# duality_audit(n, r, s, symmetry_reduction=False), the unpruned search
# without probe skipping, as it stood before pruning became the default
# (77 instances, about 15 s); the unpruned search with probe skipping gives
# the same table.
CAP_GRID = {
    (1, 2): [(0, 1), (1, 0)],
    (2, 2): [(0, 2), (2, 0)],
    (3, 2): [(0, 3), (3, 0)],
    (4, 2): [(0, 4), (4, 0)],
    (5, 2): [(0, 5), (5, 0)],
    (1, 3): [(0, 2), (1, 1), (2, 0)],
    (2, 3): [(0, 4), (2, 2), (4, 0)],
    (3, 3): [(0, 6), (3, 3), (6, 0)],
    (1, 4): [(0, 3), (2, 1), (2, 1), (3, 0)],
    (2, 4): [(0, 6), (4, 2), (4, 2), (6, 0)],
    (1, 5): [(0, 4), (2, 2), (3, 1), (3, 1), (4, 0)],
    (2, 5): [(0, 8), (4, 4), (6, 2), (6, 2), (8, 0)],
    (1, 6): [(0, 5), (3, 2), (4, 1), (4, 1), (4, 1), (5, 0)],
    (1, 7): [(0, 6), (3, 3), (4, 2), (5, 1), (5, 1), (5, 1), (6, 0)],
    (1, 8): [(0, 7), (4, 3), (5, 2), (6, 1), (6, 1), (6, 1), (6, 1), (7, 0)],
    (1, 9): [(0, 8), (4, 4), (6, 2), (6, 2), (7, 1), (7, 1), (7, 1), (7, 1), (8, 0)],
    (1, 10): [(0, 9), (5, 4), (6, 3), (7, 2), (8, 1), (8, 1), (8, 1), (8, 1), (8, 1), (9, 0)],
}
PLAIN = {
    (n, r, s): fd for (n, r), row in CAP_GRID.items() for s, fd in enumerate(row, start=2)
}


def audit_pair(n, r, s, **kw):
    audit = duality_audit(n, r, s, **kw)
    return audit["f"], audit["delta"]


def test_cap_grid_table_covers_the_grid():
    grid = {
        (n, r, s)
        for r in range(2, DEFAULT_CAP + 1)
        for n in range(1, DEFAULT_CAP // r + 1)
        for s in range(2, r + 2)
    }
    assert set(PLAIN) == grid
    assert len(grid) == 77


def test_default_audit_matches_plain_table_on_cap_grid():
    got = {k: audit_pair(*k) for k in PLAIN}
    assert {k: v for k, v in got.items() if v != PLAIN[k]} == {}


def test_plain_search_reproduces_table():
    # the unpruned reference, without lex scan or ceiling, on all 77
    # instances: about 1 s since it decides each pair exclude first; it
    # stopped at 8 vertices while f searched include first
    for k in PLAIN:
        assert audit_pair(*k, symmetry_reduction=False) == PLAIN[k], k


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_pruned_search_matches_table(seed):
    # shuffled pair orders weaken the lex-leader pruning, yet each seed
    # covers all 77 instances in about 1 s; seed 1 stopped at 9 vertices
    # while an audit also ran the include-first search
    for k in PLAIN:
        assert audit_pair(*k, seed=seed) == PLAIN[k], (k, seed)


def test_probe_counts_are_pinned(monkeypatch):
    """Search probes on f(2,5,3) and delta(2,5,3), plain and pruned.

    Counts depend only on the search, not the machine. Both modes run the
    one exclude-first search, so their counts agree. While mode f searched
    include first, it made 34,113 probes plain and 141 pruned. Before the
    pruned search started at its ceiling, trying it first, the pruned
    search made 467 (f) and 23 (delta); the plain one keeps the full range
    and its counts. Before probe skipping, the plain search made 131,679
    clique probes for f and 401,153 cover probes for delta. Before witness
    reuse, the anchored cover check and the resumable lex scan, it made
    74,140 (f) and 200,580 (delta), and the pruned search 867 and 2,178.
    Before mode delta ran as mode f on the cross complement, delta's
    counts were (0, 32,336) plain and (0, 26) pruned: its probes were
    cover probes, and each decision also made one dead-end probe at the
    entry node, on the complete graph, which now has no counterpart.
    """
    counts = {"clique": 0, "cover": 0}

    def counted(kind, real):
        def probe(*args):
            counts[kind] += 1
            return real(*args)

        return probe

    monkeypatch.setattr(oracle, "find_clique", counted("clique", oracle.find_clique))
    monkeypatch.setattr(
        oracle, "find_crossing_independent",
        counted("cover", oracle.find_crossing_independent),
    )
    seen = {}
    for run in (oracle_f, oracle_delta):
        for plain in (True, False):
            counts.update(clique=0, cover=0)
            assert run(2, 5, 3, symmetry_reduction=not plain).value == 4
            seen[run.__name__, plain] = (counts["clique"], counts["cover"])
    assert seen == {
        ("oracle_f", True): (32333, 0),
        ("oracle_f", False): (9, 0),
        ("oracle_delta", True): (32333, 0),
        ("oracle_delta", False): (9, 0),
    }


@pytest.mark.parametrize("seed", [1, 2])
def test_probe_counts_are_pinned_in_shuffled_orders(monkeypatch, seed):
    """Search probes on f(2,5,3) and delta(2,5,3) in the seeded pair
    orders, counted with the lex scan still ahead of the guards: the order
    of work per child must not change which nodes probe. While mode f
    searched include first, f made 481 under seed 1 and 537 under seed 2.
    Before the search started at its ceiling they were (4,651, 3,484) under
    seed 1 and (4,839, 3,763) under seed 2, for (f, delta)."""
    counts = {"clique": 0, "cover": 0}

    def counted(kind, real):
        def probe(*args):
            counts[kind] += 1
            return real(*args)

        return probe

    monkeypatch.setattr(oracle, "find_clique", counted("clique", oracle.find_clique))
    monkeypatch.setattr(
        oracle, "find_crossing_independent",
        counted("cover", oracle.find_crossing_independent),
    )
    seen = {}
    for run in (oracle_f, oracle_delta):
        counts.update(clique=0, cover=0)
        assert run(2, 5, 3, seed=seed).value == 4
        seen[run.__name__] = (counts["clique"], counts["cover"])
    assert seen == {
        1: {"oracle_f": (1165, 0), "oracle_delta": (1165, 0)},
        2: {"oracle_f": (210, 0), "oracle_delta": (210, 0)},
    }[seed]


# sha256 over the lines "<oracle> <n> <r> <s> <value> <witness digest>\n" of
# oracle_f and oracle_delta on every cap-grid instance, in the order of
# PLAIN. The delta witnesses are those pinned while mode delta still ran
# its own search, and each f witness is the cross complement of its delta
# witness. While mode f searched include first, the hash was
# 1b5619574caa3ce15d9abc84400b13b91add5c8481ebaa6ac58f991c090e931d.
CAP_GRID_WITNESS_HASH = "6bd00d275fdd9d65562b935c8bac94628325863ef54b884fdc262225a35733cb"


def test_cap_grid_witnesses_are_pinned():
    h = hashlib.sha256()
    for n, r, s in PLAIN:
        for run in (oracle_f, oracle_delta):
            res = run(n, r, s)
            h.update(f"{run.__name__} {n} {r} {s} {res.value} {res.witness.digest()}\n".encode())
    assert h.hexdigest() == CAP_GRID_WITNESS_HASH


# Witness digests computed with the search as it stood before witness
# reuse, the anchored cover check and the resumable lex scan: skipping
# probes must not change which graph each search returns. The f digests
# are those of the cross complements of the delta witnesses; while mode f
# searched include first they were cba4602e..., 89fc1490..., c85bacf8...
# and f192df15..., in this order.
WITNESS_DIGESTS = {
    ("oracle_f", 2, 5, 3): "sha256:782383cd4fc64bee06bb54c7e9eb26933a6dbe83c57fcf6a1f721a61a6510fe4",
    ("oracle_delta", 2, 5, 3): "sha256:450719df20934991791b54694f4a9e187fa54827775860e1d0859a8860b4874a",
    ("oracle_f", 1, 10, 4): "sha256:9dc98465e2ee1fade9aaf56831548b575c8a657f84e94777705ad35c2e67a900",
    ("oracle_delta", 1, 10, 4): "sha256:43720a02f7d1f585551166cbda013adc99cae222009d2661ce8cd69c32d5c9c5",
    ("oracle_f", 3, 3, 3): "sha256:0637437315d86a34e3edda6011cc96b9d45a16f6ea8527b1266a1645868f0713",
    ("oracle_delta", 3, 3, 3): "sha256:9ecb41ac8bc954ccfacb07b88bf07c5578e8009701bad35b4926ecdda8c62224",
    ("oracle_f", 2, 4, 4): "sha256:4ff3f9ca729228eadfa8282969d2b1f3a64718e30077143fe5f71a5a2c74a67d",
    ("oracle_delta", 2, 4, 4): "sha256:b0b5c5f67b840cc4f50f7f0cac38406b53b1af596b961ff3c17e60290ff214e1",
}


@pytest.mark.parametrize("key", sorted(WITNESS_DIGESTS), ids=lambda key: "-".join(map(str, key)))
def test_witness_digests_are_pinned(key):
    name, *instance = key
    res = getattr(oracle, name)(*instance)
    assert res.witness.digest() == WITNESS_DIGESTS[key]


def test_f_witness_is_the_cross_complement_of_the_delta_witness():
    for n, r, s in PLAIN:
        assert oracle_f(n, r, s).witness == oracle_delta(n, r, s).witness.cross_complement()


def _lex_pruned(a, gens):
    """The whole-prefix partial lex-leader check that ``oracle._lex_scan``
    resumes: every generator's comparison restarts at position 0."""
    d = len(a)
    for pi in gens:
        for p in range(d):
            q = pi[p]
            if q >= d:
                break
            if a[p] != a[q]:
                if a[p] < a[q]:
                    return True
                break
    return False


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from([(1, 3), (1, 5), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]),
    seed=st.sampled_from([None, 1, 2, 3]),
    choices=st.lists(st.integers(0, 1), max_size=36),
)
def test_lex_scan_prunes_where_the_whole_prefix_check_does(shape, seed, choices):
    # grow a prefix one decision at a time, as the search does: take the
    # drawn value, or the other one where the drawn value is pruned
    n, r = shape
    pairs = oracle._cross_pairs(n, r, seed)
    gens = oracle._position_perms(n, r, pairs)
    fresh = [(pi, 0) for pi in gens]
    a = []
    scans = oracle._lex_scan(fresh, a)
    assert scans is not None and not _lex_pruned(a, gens)
    for first in choices[: len(pairs)]:
        for val in (first, 1 - first):
            a.append(val)
            child = oracle._lex_scan(scans, a)
            assert (child is None) == _lex_pruned(a, gens), a
            assert (oracle._lex_scan(fresh, a) is None) == (child is None), a
            if child is not None:
                scans = child
                break
            a.pop()
        else:
            return


def _decide_before(n, r, size, bound, first, pairs, gens):
    """``oracle._decide`` as it stood before the guards moved ahead of the
    lex scan and the closures were inlined, kept as the reference the
    reworked decision loop is checked against. ``first`` is the value each
    pair takes first (1 includes, 0 excludes); ``_decide`` is ``first=0``."""
    npairs = len(pairs)
    template = complete_multipartite((n,) * r)
    rows = [0] * template.n_vertices
    comp = list(template.rows)
    wrap = template.with_rows
    parts = template.part_masks
    a = []

    def allowed(k, val):
        u, v = pairs[k]
        if val:
            return _clique_in(rows, parts, rows[u] & rows[v], size - 2) is None
        return comp[u].bit_count() > bound and comp[v].bit_count() > bound

    def flip(k, val):
        u, v = pairs[k]
        side = rows if val else comp
        side[u] ^= 1 << v
        side[v] ^= 1 << u

    def rec(k, last, wit, scans):
        if wit is None or (last == 0 and pairs[k - 1][0] in wit and pairs[k - 1][1] in wit):
            wit = find_clique(wrap(comp), size)
            if wit is None:
                return comp[:]
        if k == npairs:
            return None
        for val, mark in ((first, 1), (1 - first, 0)):
            a.append(mark)
            child = oracle._lex_scan(scans, a)
            found = None
            if child is not None and allowed(k, val):
                flip(k, val)
                found = rec(k + 1, val, wit, child)
                flip(k, val)
            a.pop()
            if found is not None:
                return found
        return None

    return rec(0, None, None, [(pi, 0) for pi in gens])


def _position_perms_before(n, r, pairs):
    """``oracle._position_perms`` as it stood with a dict from each sorted
    pair to its index and one loop per vertex permutation, kept as the
    reference the pair-index table is checked against."""
    total = r * n
    index_of = {p: i for i, p in enumerate(pairs)}
    vertex_perms = []
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
    gens = []
    for perm in vertex_perms:
        image = []
        for u, v in pairs:
            a, b = perm[u], perm[v]
            if a > b:
                a, b = b, a
            image.append(index_of[(a, b)])
        gens.append(tuple(image))
    return tuple(gens)


def test_position_perms_match_the_loop_they_replaced():
    for n, r in CAP_GRID:
        for seed in (None, 1, 2, 3):
            pairs = oracle._cross_pairs(n, r, seed)
            assert oracle._position_perms(n, r, pairs) == _position_perms_before(n, r, pairs)


def test_decide_matches_the_loop_it_replaced():
    # every cap-grid instance on at most 7 vertices, every bound up to one
    # past the largest degree, three pair orders, with and without the
    # lex-leader generators; with both branch orders this read (2424, 1500)
    cases, feasible = 0, 0
    for n, r, s in PLAIN:
        if n * r > 7:
            continue
        for seed in (None, 1, 2):
            pairs = oracle._cross_pairs(n, r, seed)
            for gens in ((), oracle._position_perms(n, r, pairs)):
                for bound in range((r - 1) * n + 2):
                    rows = oracle._decide(n, r, s, bound, pairs, gens)
                    assert rows == _decide_before(n, r, s, bound, 0, pairs, gens)
                    cases += 1
                    feasible += rows is not None
    assert (cases, feasible) == (1212, 750)


def test_decide_matches_the_loop_it_replaced_across_the_cap_grid():
    # every cap-grid instance, searched as the default search does, with
    # the lex-leader generators, at its ceiling and one below it (size 2
    # has ceiling 0, so only that), in the default order and two seeded ones
    cases, feasible = 0, 0
    for n, r, s in PLAIN:
        top = oracle._ceiling(n, r, s)
        for seed in (None, 1, 2):
            pairs = oracle._cross_pairs(n, r, seed)
            gens = oracle._position_perms(n, r, pairs)
            for bound in range(max(top - 1, 0), top + 1):
                rows = oracle._decide(n, r, s, bound, pairs, gens)
                assert rows == _decide_before(n, r, s, bound, 0, pairs, gens), (n, r, s, seed, bound)
                cases += 1
                feasible += rows is not None
    # the ceiling is the answer on all but two instances, in every order
    assert (cases, feasible) == (411, 405)


@pytest.mark.parametrize("above", [0, 1], ids=["ceiling", "refuted"])
def test_every_probe_of_a_search_runs_at_one_stack_depth(monkeypatch, above):
    """The decision search keeps one state per decided pair in lists, not
    one Python frame, so each probe runs at the depth the search was
    entered at. The recursion it replaced probed one frame deeper per
    decided pair, and its time moved up to 2x with the caller's depth."""
    depths = []
    real = oracle.find_clique

    def probe(g, size):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        depths.append(depth)
        return real(g, size)

    monkeypatch.setattr(oracle, "find_clique", probe)
    n, r, size = 1, 10, 4
    pairs = oracle._cross_pairs(n, r, None)
    gens = oracle._position_perms(n, r, pairs)
    bound = oracle._ceiling(n, r, size) + above
    rows = oracle._decide(n, r, size, bound, pairs, gens)
    assert (rows is None) == bool(above)
    assert len(depths) > 1
    assert set(depths) == {depths[0]}


def test_open_case_audit_2_7_4():
    # f(2, 7, 3), which the bounds place in [8, 9]: the ceiling refutes 9
    # (above the threshold 35/4, each of 3 color classes holds at most 4
    # of the 14 vertices), and the duality audit certifies f = 8, delta = 4
    assert oracle._ceiling(2, 7, 4) == 8
    assert duality_audit(2, 7, 4, cap=14) == {"n": 2, "r": 7, "size": 4, "f": 8, "delta": 4}


def test_no_target_above_the_ceiling_is_feasible():
    # every cap-grid instance, default pair order: the search refutes
    # each target the ceiling skips, with the lex-leader generators
    # everywhere and without them up to 8 vertices. The size-2 instances
    # have ceiling 0 and skip every target above it; before, their ceiling
    # was (r - 1)n and the pin read (208, 58). With both branch orders
    # checked, it read (468, 75).
    refuted, sharp = 0, 0
    for (n, r, s), (f, _) in PLAIN.items():
        top = oracle._ceiling(n, r, s)
        assert f <= top <= (r - 1) * n, (n, r, s)
        sharp += top == f
        pairs = oracle._cross_pairs(n, r, None)
        gens = oracle._position_perms(n, r, pairs)
        for gens in ((gens, ()) if n * r <= 8 else (gens,)):
            for bound in range(top + 1, (r - 1) * n + 1):
                assert oracle._decide(n, r, s, bound, pairs, gens) is None
                refuted += 1
    assert (refuted, sharp) == (234, 75)


def test_ceiling_is_never_below_a_construction_or_the_threshold():
    for t in range(2, 9):
        for r in range(t + 1, 4 * t + 1):
            for n in range(1, 31):
                top, total = oracle._ceiling(n, r, t + 1), r * n
                assert top >= best_known_bounds(n, r, t).best_lower, (n, r, t)
                assert top >= min((r - 1) * n, (3 * t - 4) * total // (3 * t - 1)), (n, r, t)


def _compositions(n, t):
    """The rows of a profile: the ways to split n vertices over t colors."""
    if t == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, t - 1):
            yield (first,) + rest


def _exact_d(n, r, t):
    """Largest minimum degree of a t-colorable r-partite graph, parts of
    size n, and a profile attaining it, by branch and bound over profiles.

    A profile takes r rows, as a multiset, each giving how many vertices of
    one part get each color. Its overlay joins the pairs that differ in
    both part and color, so a vertex of part p and color c misses the
    column sum of c less the cell (p, c). Adding a row only raises those
    misses, so a partial profile at or below the best degree is cut.
    """
    rows = list(_compositions(n, t))
    best = [-1, None]

    def degree(profile):
        cols = [sum(col) for col in zip(*profile)]
        miss = max(cols[c] - row[c] for row in profile for c in range(t) if row[c])
        return (r - 1) * n - miss

    def rec(start, profile):
        if profile and degree(profile) <= best[0]:
            return
        if len(profile) == r:
            best[:] = [degree(profile), tuple(profile)]
            return
        for i in range(start, len(rows)):
            profile.append(rows[i])
            rec(i, profile)
            profile.pop()

    rec(0, [])
    return best


def test_class_bound_holds_on_the_optimal_profiles():
    # d(n, r, t) by enumerating profiles: the largest color class of an
    # optimal profile fits the class bound at its slack, so t such classes
    # cover all rn vertices and the ceiling never cuts d
    checked = 0
    for n in (1, 2, 3):
        for t in (2, 3, 4):
            for r in range(2, 9):
                d, profile = _exact_d(n, r, t)
                bound = oracle._class_bound(n, r, (r - 1) * n - d)
                assert max(map(sum, zip(*profile))) <= bound, (n, r, t)
                assert t * bound >= r * n and oracle._ceiling(n, r, t + 1) >= d, (n, r, t)
                checked += 1
    assert checked == 63


def test_cap_grid_values_lie_in_the_bound_envelope():
    # every committed f with t = s - 1 >= 2 and r > t is inside
    # [best_lower, best_upper], and the closed forms settle all of them
    checked = 0
    for (n, r, s), (f, _) in PLAIN.items():
        t = s - 1
        if t < 2 or r <= t:
            continue
        report = best_known_bounds(n, r, t)
        assert report.best_lower <= f <= report.best_upper, (n, r, t)
        assert report.exact == f, (n, r, t)
        checked += 1
    assert checked == 43


@pytest.mark.parametrize("n, r, s, f", [(4, 4, 3, 8), (2, 8, 4, 10), (2, 8, 5, 12), (3, 5, 3, 6)])
def test_audits_beyond_the_cap(n, r, s, f):
    # about 1 ms each in the exclude-first search; the include-first f
    # search took 2 s on (3, 5, 3), 8 s on (2, 8, 5) and 35 s on (4, 4, 3)
    assert best_known_bounds(n, r, s - 1).exact == f
    audit = duality_audit(n, r, s, cap=16)
    assert (audit["f"], audit["delta"]) == (f, (r - 1) * n - f)


def test_transversal_value_at_15_vertices():
    # r = t + 1 beyond the cap grid: the oracle agrees with the transversal family
    assert oracle_f(3, 5, 5, cap=15).value == 10 == best_known_bounds(3, 5, 4).exact
