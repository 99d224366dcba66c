import hashlib
import json
import math
from fractions import Fraction

import pytest
from graph_strategies import profile_min_degree
from hypothesis import given, settings
from hypothesis import strategies as st

from mpturan.bounds import (
    _FAMILIES,
    aes_threshold,
    apex_value,
    best_known_bounds,
    ceil_div,
    chromatic_upper,
    composition_bound,
    decompose,
    exact_value_cases,
    odd_t_gap,
    sliced_value,
    transfer_large_n,
    transfer_large_r,
    transversal_clique_value,
    turan_sandwich,
)
from mpturan.errors import DomainError, NotApplicableError


def test_ceil_div():
    assert ceil_div(7, 2) == 4
    assert ceil_div(8, 2) == 4
    assert ceil_div(0, 5) == 0
    assert ceil_div(1, 5) == 1


def test_decompose():
    assert decompose(10, 3) == (4, 2)
    assert decompose(7, 3) == (3, 2)
    assert decompose(6, 3) == (2, 0)
    assert decompose(5, 3) == (2, 1)
    with pytest.raises(DomainError):
        decompose(3, 3)
    with pytest.raises(DomainError):
        decompose(5, 1)


def test_decompose_identity():
    for t in range(2, 8):
        for r in range(t + 1, 5 * t):
            m, a = decompose(r, t)
            assert r == m * t - a
            assert 0 <= a <= t - 1
            assert m == ceil_div(r, t)


# a float, an integral float, a bool and a string, none of them an int
_NOT_INTS = (2.5, 7.0, True, "3")


@pytest.mark.parametrize("bad", _NOT_INTS)
@pytest.mark.parametrize(
    "entry, args, i",
    [
        (entry, args, i)
        for entry, args in [
            (best_known_bounds, (5, 7, 3)),
            (sliced_value, (5, 7, 3)),
            (transversal_clique_value, (5, 4)),
            (decompose, (7, 3)),
            (transfer_large_n, (20, 10, 3)),
            (composition_bound, (4, 2, 2, 2, 1)),  # delta0 may be a Fraction
        ]
        for i in range(len(args) - (entry is composition_bound))
    ],
)
def test_sizes_that_are_not_ints_are_refused(entry, args, i, bad):
    # once returned wrong values, 10.0 for best_known_bounds(2.5, 7, 3)
    # and (3.0, 2.0) for decompose(7.0, 3)
    entry(*args)
    with pytest.raises(DomainError, match="must be (an int|ints)"):
        entry(*args[:i], bad, *args[i + 1:])


def test_turan_sandwich():
    assert turan_sandwich(1, 5, 3) == (3, Fraction(10, 3))
    assert turan_sandwich(2, 7, 3) == (8, Fraction(28, 3))
    assert turan_sandwich(1, 6, 3) == (4, Fraction(4))
    lo, hi = turan_sandwich(60, 10, 3)
    assert lo == 360 and hi == Fraction(400)


def test_exact_value_cases():
    assert exact_value_cases(2, 6, 3) == 8
    assert exact_value_cases(3, 5, 3) == 9
    assert exact_value_cases(4, 9, 2) == 16
    assert exact_value_cases(1, 7, 3) is None
    assert exact_value_cases(5, 8, 4) == 30
    assert exact_value_cases(1, 10, 3) is None


def test_exact_cases_inside_sandwich():
    for t in range(2, 7):
        for r in range(t + 1, 4 * t + 1):
            for n in (1, 3, 10):
                v = exact_value_cases(n, r, t)
                if v is None:
                    continue
                lo, hi = turan_sandwich(n, r, t)
                assert lo <= v <= hi


def test_transversal_clique_value():
    assert transversal_clique_value(6, 4) == 14
    assert transversal_clique_value(6, 5) == 20
    assert transversal_clique_value(1, 2) == 0
    # odd r is the preceding even case shifted by n
    for n in (1, 4, 9):
        for r in (3, 5, 7):
            assert (
                transversal_clique_value(n, r)
                == transversal_clique_value(n, r - 1) + n
            )


def test_sliced_value():
    assert sliced_value(60, 10, 3) == 378
    assert sliced_value(10, 10, 3) == 63
    assert sliced_value(1, 10, 3) == 6
    assert sliced_value(60, 7, 3) == 256
    with pytest.raises(NotApplicableError):
        sliced_value(5, 6, 3)  # a = 0: divisible case, nothing to slice
    with pytest.raises(NotApplicableError):
        sliced_value(5, 5, 4)  # a = 3 > m = 2: residue out of range


def test_apex_value():
    assert apex_value(6, 7, 5) == 31
    assert apex_value(1, 7, 5) == 5
    assert apex_value(12, 5, 4) == 39
    with pytest.raises(NotApplicableError):
        apex_value(6, 10, 3)


def test_transfer_large_r():
    assert transfer_large_r(16, 3, 2)
    assert not transfer_large_r(15, 3, 2)
    assert transfer_large_r(100, 3, 0)
    with pytest.raises(DomainError):
        transfer_large_r(10, 3, 3)


def _rational_lhs(r: int, t: int) -> Fraction:
    """The left side of the large-parts condition, term by term in
    Fractions: the reference for the cross-multiplied integer test."""
    m, a = decompose(r, t)
    return (
        Fraction(r, t * (3 * t - 1) * (m - 1))
        - Fraction(a, t * (m - 1))
        + Fraction(a - 1, m * t - 2)
    )


def _assert_large_n_matches_rational(n: int, r: int, t: int, lhs: Fraction) -> None:
    assert transfer_large_n(n, r, t) is (lhs >= Fraction(1, n)), (n, r, t, lhs)


def test_transfer_large_n_razor_edges():
    # the thresholds are exact integer comparisons, no rounding anywhere
    assert transfer_large_n(60, 10, 3)
    assert not transfer_large_n(59, 10, 3)
    assert transfer_large_n(22, 13, 3)
    assert not transfer_large_n(21, 13, 3)


def test_transfer_large_n_literal_equality_at_60():
    # at n = 60, r = 10, t = 3 the condition holds with equality: the
    # left side is exactly 1/60
    assert _rational_lhs(10, 3) == Fraction(1, 60)


@st.composite
def _large_n_parts(draw):
    """(r, t) with t in 3..40 and 2 <= a <= min(m, t - 1)."""
    t = draw(st.integers(3, 40))
    a = draw(st.integers(2, t - 1))
    m = draw(st.integers(a, 1000))
    return m * t - a, t


@settings(max_examples=400, deadline=None)
@given(_large_n_parts(), st.integers(1, 10**6))
def test_transfer_large_n_matches_the_rational_test(parts, n):
    r, t = parts
    lhs = _rational_lhs(r, t)
    _assert_large_n_matches_rational(n, r, t, lhs)
    if lhs > 0:
        # the flip point: the least n with lhs >= 1/n, and the n below it
        flip = ceil_div(lhs.denominator, lhs.numerator)
        for edge in (flip - 1, flip):
            if edge >= 1:
                _assert_large_n_matches_rational(edge, r, t, lhs)


def test_transfer_large_n_holds_with_equality_at_unit_margins():
    # every (r, t) with t <= 40, m <= 40 whose left side is exactly 1/n
    units = 0
    for t in range(3, 41):
        for a in range(2, t):
            for m in range(a, 41):
                r = m * t - a
                lhs = _rational_lhs(r, t)
                if lhs.numerator != 1:
                    continue
                units += 1
                n = lhs.denominator
                assert transfer_large_n(n, r, t), (n, r, t)
                assert n == 1 or not transfer_large_n(n - 1, r, t), (n, r, t)
    assert units == 220


def test_transfer_large_n_monotone_in_n():
    for r, t in ((10, 3), (13, 3), (9, 4)):
        flags = [transfer_large_n(n, r, t) for n in range(1, 80)]
        assert flags == sorted(flags)  # False ... False True ... True


def _entry(bounds, source):
    (entry,) = [b for b in bounds if b.source == source]
    return entry.value, entry.conditions_met


def test_residue_bounds():
    # the residue case 2 <= a <= min(m, t - 1): the sliced blow-up below,
    # the chromatic bound above, counted for f where a transfer holds
    for (n, r, t), expected in {
        (60, 10, 3): (378, 378, True),
        (1, 10, 3): (6, 6, False),
        (7, 7, 3): (30, 30, False),
        (60, 13, 3): (496, 498, True),
    }.items():
        rep = best_known_bounds(n, r, t)
        lower, _ = _entry(rep.lower_bounds, "sliced-blowup")
        upper, met = _entry(rep.upper_bounds, "chromatic-transfer")
        assert (lower, upper, met) == expected, (n, r, t)
    with pytest.raises(NotApplicableError):
        transfer_large_n(5, 5, 3)  # a = 1


def test_aes_threshold():
    assert aes_threshold(3, 24) == Fraction(15)
    assert aes_threshold(2, 10) == Fraction(4)
    assert aes_threshold(4, 11) == Fraction(8)
    assert aes_threshold(3, 7) == Fraction(35, 8)


def test_chromatic_upper():
    assert chromatic_upper(10, 10, 3) == 63
    assert chromatic_upper(1, 5, 3) == 3
    assert chromatic_upper(60, 13, 3) == 498
    with pytest.raises(NotApplicableError):
        chromatic_upper(2, 6, 3)


def test_composition_bound():
    assert composition_bound(4, 2, 2, 2, 1) == 3
    assert composition_bound(6, 2, 2, 2, 1) == 5
    assert composition_bound(4, 2, 2, 3, 1) == 4
    assert composition_bound(4, 2, 2, 2, Fraction(1)) == 3
    with pytest.raises(DomainError):
        composition_bound(1, 2, 2, 2, 1)
    with pytest.raises(DomainError):
        composition_bound(4, 2, 3, 2, 1)
    with pytest.raises(DomainError):
        composition_bound(4, 2, 2, 1, 1)


def test_improves_on_blowup():
    # the sliced blow-up beats the balanced one once n >= (mt - 2) / (a - 1)
    for (n, r, t), improves in {(10, 10, 3): True, (1, 10, 3): False, (60, 10, 3): True}.items():
        lowers = best_known_bounds(n, r, t).lower_bounds
        sliced, _ = _entry(lowers, "sliced-blowup")
        balanced, _ = _entry(lowers, "balanced-blowup")
        assert (sliced > balanced) is improves, (n, r, t)


def test_odd_t_gap():
    assert odd_t_gap(12, 3)
    assert not odd_t_gap(1, 3)
    assert odd_t_gap(10, 5)
    with pytest.raises(DomainError):
        odd_t_gap(10, 4)


def test_best_known_bounds_exact_instances():
    rep = best_known_bounds(60, 10, 3)
    assert rep.status == "exact"
    assert rep.exact == 378
    assert rep.best_lower == rep.best_upper == 378
    assert {b.source for b in rep.lower_bounds} >= {"sliced-blowup", "balanced-blowup"}

    rep = best_known_bounds(2, 6, 3)
    assert rep.status == "exact" and rep.exact == 8

    rep = best_known_bounds(1, 4, 3)
    assert rep.status == "exact" and rep.exact == 2


def test_best_known_bounds_open_instance():
    rep = best_known_bounds(7, 7, 3)
    assert rep.status == "bounded"
    assert rep.exact is None
    assert rep.best_lower == 30
    assert rep.best_upper == 32
    assert rep.notes  # the r = 7, t = 3 gap is flagged


def test_best_known_bounds_unconditional_chromatic_listing():
    # the chromatic upper bound is always listed when applicable but only
    # enters the envelope when a transfer condition holds
    rep = best_known_bounds(10, 10, 3)
    chrom = [b for b in rep.upper_bounds if b.source == "chromatic-transfer"]
    assert len(chrom) == 1
    assert not chrom[0].conditions_met
    assert chrom[0].value == 63
    assert rep.best_upper == 66  # edge-count floor; the untransferred 63 stays out
    assert rep.status == "bounded"


def test_report_json_dict_is_integer_only():
    doc = best_known_bounds(7, 7, 3).to_json_dict()

    def walk(x):
        if isinstance(x, bool) or x is None:
            return
        if isinstance(x, int):
            return
        if isinstance(x, str):
            return
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
            return
        if isinstance(x, list):
            for v in x:
                walk(v)
            return
        raise AssertionError(f"unexpected JSON leaf {x!r}")

    walk(doc)


# r = t + 1 instances with at most 18 vertices that were "bounded" before
# the transversal family entered the table
TRANSVERSAL_SMALL = [
    (2, 4, 3), (2, 5, 4), (2, 6, 5), (2, 7, 6), (2, 8, 7),
    (2, 9, 8), (3, 4, 3), (3, 5, 4), (3, 6, 5), (4, 4, 3),
]


def test_transversal_family_settles_r_equals_t_plus_one():
    for n, r, t in TRANSVERSAL_SMALL:
        rep = best_known_bounds(n, r, t)
        assert rep.status == "exact" and rep.exact == transversal_clique_value(n, r)
    for t in range(3, 13):
        for n in (1, 2, 5, 12, 60, 997):
            rep = best_known_bounds(n, t + 1, t)
            value = transversal_clique_value(n, t + 1)
            assert _entry(rep.lower_bounds, "transversal") == (value, True)
            assert _entry(rep.upper_bounds, "transversal") == (value, True)
            assert rep.exact == value
    for n, r, t in ((3, 3, 2), (5, 6, 4), (5, 9, 4)):
        rep = best_known_bounds(n, r, t)
        assert "transversal" not in {b.source for b in rep.lower_bounds}


def test_value_functions_agree_with_the_report():
    for t in range(2, 9):
        for r in range(t + 1, 5 * t + 1):
            for n in (1, 2, 7, 60):
                rep = best_known_bounds(n, r, t)
                entries = {b.source: b.value for b in rep.lower_bounds + rep.upper_bounds}
                for source, value_of in (
                    ("sliced-blowup", sliced_value),
                    ("apex-blowup", apex_value),
                    ("chromatic-transfer", chromatic_upper),
                ):
                    try:
                        value = value_of(n, r, t)
                    except NotApplicableError:
                        assert source not in entries, (source, n, r, t)
                    else:
                        assert entries[source] == value, (source, n, r, t)
                settled = [entries.get(s) for s in ("pair-split", "divisible", "near-divisible")]
                assert [v for v in settled if v is not None] == (
                    [] if exact_value_cases(n, r, t) is None else [exact_value_cases(n, r, t)]
                )
                lo, hi = turan_sandwich(n, r, t)
                assert (entries["balanced-blowup"], entries["edge-count"]) == (lo, math.floor(hi))


def test_apex_value_is_the_closed_form():
    # (r - 1) n - (m - 1) ceil((r' - 1) n / (m t' - 2)), t' = t - a + m, r' = m (t' - 1)
    for t in range(4, 10):
        for r in range(t + 1, 6 * t):
            m, a = decompose(r, t)
            if not 2 <= m < a:
                continue
            t2 = t - a + m
            r2 = m * (t2 - 1)
            for n in (1, 3, 40):
                expected = (r - 1) * n - (m - 1) * ceil_div((r2 - 1) * n, m * t2 - 2)
                assert apex_value(n, r, t) == expected, (n, r, t)


def test_every_profile_attains_its_family_value():
    """Each profile is r rows of t entries summing to n, and its overlay's
    degree formula gives the family's closed-form value."""
    profiled = [family for family in _FAMILIES if family.profile is not None]
    assert [f.name for f in profiled] == ["balanced-blowup", "sliced-blowup", "apex-blowup"]
    checks = 0
    for family in profiled:
        for t in range(2, 9):
            for r in range(t + 1, 4 * t + 2):
                m, a = decompose(r, t)
                if not family.guard(t, m, a):
                    continue
                for n in range(1, 31):
                    profile = family.profile(n, r, t, m, a)
                    assert len(profile) == r
                    assert all(len(row) == t and sum(row) == n for row in profile)
                    value = family.value(n, r, t, m, a)
                    assert profile_min_degree(n, profile) == value, (family.name, n, r, t)
                    checks += 1
    assert checks == 6090


def test_bounds_json_bytes_are_pinned():
    """One hash over the sorted-key JSON of ``best_known_bounds`` at 81,585
    instances: n in 1..59 and {100, 777, 1000, 12345}, t in 2..15 and r in
    t+1..12t-1. It guards the bound formulas and transfer conditions
    against any change in what they report."""
    h = hashlib.sha256()
    rows = 0
    for n in [*range(1, 60), 100, 777, 1000, 12345]:
        for t in range(2, 16):
            for r in range(t + 1, 12 * t):
                doc = best_known_bounds(n, r, t).to_json_dict()
                h.update(json.dumps(doc, sort_keys=True).encode())
                rows += 1
    assert rows == 81_585
    assert h.hexdigest() == "e339c30714e25b82054df89908e053134a1fd6b2ccb960f276d58b9bfa8b9c04"
