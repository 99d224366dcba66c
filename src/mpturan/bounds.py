"""Closed-form bounds for the multipartite clique-free minimum-degree problem.

Throughout, ``f(n, r, t)`` denotes the largest minimum degree among
r-partite graphs with parts of size n and no clique on t + 1 vertices, and
``d(n, r, t)`` the same maximum restricted to graphs of chromatic number at
most t. Functions here evaluate the known closed forms and certified
bounds on these quantities. Everything is exact: values and conditions
are evaluated in Python ints, razor-edge conditions as cross-multiplied
integer comparisons. ``fractions.Fraction`` appears only where a function
returns a rational (``turan_sandwich``, ``aes_threshold``) or takes one
(``delta0`` of the block composition), and is imported there, so that
evaluating a bound loads no ``fractions``. No floats anywhere.

The residue decomposition r = m*t - a with m = ceil(r/t) and
0 <= a <= t - 1 organizes the case analysis and recurs in most signatures.
Every bound family is one entry of ``_FAMILIES``: its guard on (t, m, a),
its value formula, for an upper bound on d only the transfer condition
under which it bounds f, and for a t-chromatic construction its profile,
the r x t matrix counting the vertices of each part in each color.
``best_known_bounds``, the value functions and the builders all read it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import DomainError, NotApplicableError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ceil_div",
    "decompose",
    "turan_sandwich",
    "exact_value_cases",
    "transversal_clique_value",
    "sliced_value",
    "apex_value",
    "transfer_large_r",
    "transfer_large_n",
    "aes_threshold",
    "chromatic_upper",
    "composition_bound",
    "best_known_bounds",
    "odd_t_gap",
    "Bound",
    "BoundReport",
]


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a / b for integers, b > 0."""
    return -(-a // b)


def _decompose_instance(n: int, r: int, t: int) -> tuple[int, int]:
    """``decompose(r, t)`` once n is checked to be a part size."""
    # ``type(x) is int`` refuses floats, strings and bools alike
    if type(n) is not int:
        raise DomainError(f"part size n must be an int, got {n!r}")
    if n < 1:
        raise DomainError(f"part size n must be >= 1, got {n}")
    return decompose(r, t)


def decompose(r: int, t: int) -> tuple[int, int]:
    """Residue decomposition r = m*t - a with m = ceil(r/t), 0 <= a <= t - 1."""
    if not (type(r) is type(t) is int):
        raise DomainError(f"r and t must be ints, got r={r!r}, t={t!r}")
    if t < 2:
        raise DomainError(f"forbidden-clique parameter t must be >= 2, got {t}")
    if r <= t:
        raise DomainError(f"need more parts than colors, got r={r} <= t={t}")
    m = ceil_div(r, t)
    return m, m * t - r


def _balanced(n: int, r: int, t: int, m: int, a: int) -> int:
    """(r - ceil(r/t)) * n, the n-fold blow-up of the balanced t-partition."""
    return (r - m) * n


def _edge_count(n: int, r: int, t: int, m: int, a: int) -> int:
    """floor((r - r/t) * n), the classical edge-count barrier."""
    return (r * t - r) * n // t


def _slice_size(n: int, r: int, t: int, m: int) -> int:
    """ceil((r - 1) * n / (m * t - 2)), the sliced blow-up's slice length."""
    return ceil_div((r - 1) * n, m * t - 2)


def _sliced(n: int, r: int, t: int, m: int, a: int) -> int:
    """(r - 1) * n less m - 1 slices of ``_slice_size(n, r, t, m)``."""
    return (r - 1) * n - (m - 1) * _slice_size(n, r, t, m)


def _apex_core(t: int, m: int, a: int) -> tuple[int, int]:
    """Parts r' = m * (t' - 1) and colors t' = t - a + m of the apex core."""
    t2 = t - a + m
    return m * (t2 - 1), t2


def _apex(n: int, r: int, t: int, m: int, a: int) -> int:
    # the core (r', t') decomposes as (m, m), and each core vertex also
    # sees all (r - r') * n apex vertices
    r2, t2 = _apex_core(t, m, a)
    return _sliced(n, r2, t2, m, m) + (r - r2) * n


def _row(t: int, c: int, x: int, rest: int = 0) -> tuple[int, ...]:
    # a profile row: x vertices of color c, ``rest`` of color t - 1
    return tuple(x if i == c else rest if i == t - 1 else 0 for i in range(t))


def _balanced_profile(n: int, r: int, t: int, m: int, a: int) -> tuple[tuple[int, ...], ...]:
    # colors are unions of whole parts: t - a colors of m parts, a of m - 1
    widths = [m] * (t - a) + [m - 1] * a
    return tuple(_row(t, c, n) for c, width in enumerate(widths) for _ in range(width))


def _sliced_profile(n: int, r: int, t: int, m: int, a: int) -> tuple[tuple[int, ...], ...]:
    # color c < t - 1 takes a slice of each part in block c (parts c*m ..
    # (c+1)*m - 1); color t - 1 takes the rest
    size = _slice_size(n, r, t, m)
    sliced = tuple(_row(t, p // m, size, n - size) for p in range((t - 1) * m))
    return sliced + (_row(t, t - 1, n),) * (r - (t - 1) * m)


def _apex_profile(n: int, r: int, t: int, m: int, a: int) -> tuple[tuple[int, ...], ...]:
    # the sliced core on r' parts and t' colors, then each of the a - m
    # apex colors on m - 1 parts of its own
    r2, t2 = _apex_core(t, m, a)
    core = tuple(row + (0,) * (t - t2) for row in _sliced_profile(n, r2, t2, m, m))
    return core + tuple(_row(t, c, n) for c in range(t2, t) for _ in range(m - 1))


def _chromatic(n: int, r: int, t: int, m: int, a: int) -> int:
    return (r - 1) * n - ceil_div((m - 1) * (r - 1) * n, m * t - 2)


def transversal_clique_value(n: int, r: int) -> int:
    """f(n, r, r - 1): no clique meeting every part, r parts of size n.

    For even r the value is (r - 1) * n - ceil(r * n / (2 * (r - 1)));
    odd r reduces to the preceding even case plus n.
    """
    if not (type(n) is type(r) is int):
        raise DomainError(f"n and r must be ints, got n={n!r}, r={r!r}")
    if n < 1:
        raise DomainError(f"part size n must be >= 1, got {n}")
    if r < 2:
        raise DomainError(f"need r >= 2, got {r}")
    if r % 2 == 0:
        return (r - 1) * n - ceil_div(r * n, 2 * (r - 1))
    return transversal_clique_value(n, r - 1) + n


def transfer_large_r(r: int, t: int, a: int) -> bool:
    """Many-parts condition under which the optimum is t-chromatic.

    For r = -a (mod t), r >= a * (3t - 1) forces f(n, r, t) = d(n, r, t)
    for every n, so chromatic upper bounds transfer to f.
    """
    if t < 2 or a < 0 or a > t - 1:
        raise DomainError(f"need t >= 2 and 0 <= a <= t - 1, got t={t}, a={a}")
    return r >= a * (3 * t - 1)


def _large_n_applies(m: int, a: int) -> bool:
    return 2 <= a <= m


def _large_n_holds(n: int, r: int, t: int, m: int, a: int) -> bool:
    # the left side of ``transfer_large_n`` over its common denominator
    # t(m-1)(3t-1)(mt-2), which is positive since 2 <= a <= m gives m >= 2
    s, u = 3 * t - 1, m * t - 2
    numer = r * u - a * s * u + (a - 1) * t * (m - 1) * s
    return n * numer >= t * (m - 1) * s * u


def transfer_large_n(n: int, r: int, t: int) -> bool:
    """Large-parts condition under which the optimum is t-chromatic.

    With (m, a) = decompose(r, t) and 2 <= a <= min(m, t - 1), the test is

        r / (t * (3t - 1) * (m - 1)) - a / (t * (m - 1)) + (a - 1) / (mt - 2)
            >= 1 / n,

    evaluated exactly, as one integer comparison after multiplying both
    sides by n and the common denominator. Monotone nondecreasing in n.
    """
    m, a = _decompose_instance(n, r, t)
    if not _large_n_applies(m, a):
        raise NotApplicableError(
            f"large-parts transfer needs 2 <= a <= min(m, t-1), got m={m}, a={a}"
        )
    return _large_n_holds(n, r, t, m, a)


def _transfers(n: int, r: int, t: int, m: int, a: int) -> bool:
    """Whether a transfer condition certifies f = d at this instance."""
    return transfer_large_r(r, t, a) or (
        _large_n_applies(m, a) and _large_n_holds(n, r, t, m, a)
    )


# -- the table of bound families -----------------------------------------


class _Family(NamedTuple):
    """One bound family.

    ``role`` is "lower", "upper" or "exact" (both at once). ``guard`` takes
    (t, m, a), the others (n, r, t, m, a). A family with a ``transfer``
    bounds d(n, r, t) and counts for f only where the transfer condition
    holds. A ``profile`` has entry (p, c) the number of vertices of part p
    with color c; the graph it fixes joins the pairs that differ in both.
    """

    name: str
    role: str
    guard: Callable[[int, int, int], bool]
    value: Callable[[int, int, int, int, int], int]
    transfer: Callable[[int, int, int, int, int], bool] | None = None
    profile: Callable[[int, int, int, int, int], tuple[tuple[int, ...], ...]] | None = None


def _always(t: int, m: int, a: int) -> bool:
    return True


_FAMILIES: tuple[_Family, ...] = (
    _Family("pair-split", "exact", lambda t, m, a: t == 2, _balanced),
    _Family("divisible", "exact", lambda t, m, a: t > 2 and a == 0, _balanced),
    _Family("near-divisible", "exact", lambda t, m, a: t > 2 and a == 1, _balanced),
    _Family(  # r = t + 1 (Haxell-Szabo; Szabo-Tardos)
        "transversal", "exact", lambda t, m, a: t > 2 and m == 2 and a == t - 1,
        lambda n, r, t, m, a: transversal_clique_value(n, r),
    ),
    _Family("balanced-blowup", "lower", _always, _balanced, profile=_balanced_profile),
    _Family("edge-count", "upper", _always, _edge_count),
    _Family(
        "sliced-blowup", "lower", lambda t, m, a: 1 <= a <= m, _sliced,
        profile=_sliced_profile,
    ),
    _Family(
        "apex-blowup", "lower", lambda t, m, a: 2 <= m < a, _apex, profile=_apex_profile,
    ),
    _Family("chromatic-transfer", "upper", lambda t, m, a: a >= 1, _chromatic, _transfers),
)
_BY_NAME = {family.name: family for family in _FAMILIES}


def _evaluate(name: str, n: int, r: int, t: int, requirement: str) -> int:
    m, a = _decompose_instance(n, r, t)
    family = _BY_NAME[name]
    if not family.guard(t, m, a):
        raise NotApplicableError(f"{requirement}, got r={r}, t={t} (m={m}, a={a})")
    return family.value(n, r, t, m, a)


def turan_sandwich(n: int, r: int, t: int) -> tuple[int, Fraction]:
    """Unconditional envelope: (r - ceil(r/t)) * n <= f <= (r - r/t) * n.

    The lower bound is attained by the n-fold blow-up of the balanced
    t-partition of the parts; the upper bound is the classical edge-count
    barrier and is returned as an exact rational.
    """
    from fractions import Fraction

    m, a = _decompose_instance(n, r, t)
    return _balanced(n, r, t, m, a), Fraction((r * t - r) * n, t)


def exact_value_cases(n: int, r: int, t: int) -> int | None:
    """The balanced-value case split: the balanced value where it is the
    answer, else None.

    It is the answer for every instance with t = 2, for divisible r
    (t | r), and for r = -1 (mod t) with t >= 3: the guards of the exact
    families whose value is the balanced one. None does not mean that no
    closed form pins the value: the ``transversal`` family settles
    r = t + 1, so (3, 4, 3) gives None here while ``best_known_bounds``
    reports it exact at 7.
    """
    m, a = _decompose_instance(n, r, t)
    settled = [f for f in _FAMILIES if f.value is _balanced and f.role == "exact"]
    return _balanced(n, r, t, m, a) if any(f.guard(t, m, a) for f in settled) else None


def sliced_value(n: int, r: int, t: int) -> int:
    """Minimum degree achieved by the sliced blow-up, a certified lower bound.

    Requires m * (t - 1) <= r <= m * t - 1 for m = ceil(r/t), equivalently
    1 <= a <= m. The value is
    (r - 1) * n - (m - 1) * ceil((r - 1) * n / (m * t - 2)).
    """
    return _evaluate(
        "sliced-blowup", n, r, t, "sliced blow-up needs m*(t-1) <= r <= m*t - 1"
    )


def apex_value(n: int, r: int, t: int) -> int:
    """Minimum degree achieved by the apex blow-up, a certified lower bound.

    Covers the residues the sliced blow-up misses: 2 <= m < a < t. Writing
    t' = t - a + m and r' = m * (t' - 1), the value is the sliced value at
    (n, r', t') plus (r - r') * n.
    """
    return _evaluate("apex-blowup", n, r, t, "apex blow-up needs 2 <= m < a < t")


def chromatic_upper(n: int, r: int, t: int) -> int:
    """Upper bound on d(n, r, t), the t-chromatic relaxation of f.

    Valid whenever t does not divide r; with m = ceil(r/t) the bound is
    (r - 1) * n - ceil((m - 1) * (r - 1) * n / (m * t - 2)). It bounds f
    itself only where a transfer condition certifies f = d.
    """
    return _evaluate(
        "chromatic-transfer", n, r, t, "chromatic upper bound needs t to not divide r"
    )


def aes_threshold(t: int, total_vertices: int) -> Fraction:
    """Degree threshold (3t - 4) * N / (3t - 1) of the chromatic threshold
    theorem for clique-free graphs, as an exact rational.

    A graph on N vertices with no clique on t + 1 vertices and minimum
    degree strictly above this value is t-colorable.
    """
    if t < 2:
        raise DomainError(f"need t >= 2, got {t}")
    if total_vertices < 1:
        raise DomainError(f"need at least one vertex, got {total_vertices}")
    from fractions import Fraction

    return Fraction((3 * t - 4) * total_vertices, 3 * t - 1)


def composition_bound(
    n: int, r0: int, t0: int, k: int, delta0: Fraction | int
) -> int:
    """Max-degree guarantee of the block composition on r0 * k parts.

    Given a family of r0-partite graphs with no crossing independent set of
    size t0 and max degree at most delta0 * (part size), the composition on
    k blocks yields parts of size n, no crossing independent set of size
    k + t0, and max degree at most

        (r0 - 1) * ceil((delta0 + (k - 1) * r0) * n / (delta0 + k * r0 - 1)).
    """
    from fractions import Fraction

    delta0 = Fraction(delta0)
    _check_composition(n, r0, t0, k, delta0)
    numer = (delta0 + (k - 1) * r0) * n
    denom = delta0 + k * r0 - 1
    return (r0 - 1) * math.ceil(numer / denom)


def _check_composition(n: int, r0: int, t0: int, k: int, delta0: Fraction | int = 0) -> None:
    """The block composition's argument checks; every division in its
    formulas, and in the stock delta0 = ceil(r0 / (t0 - 1)) - 1, is
    defined once they pass."""
    if not (type(n) is type(r0) is type(t0) is type(k) is int):
        raise DomainError(f"n, r0, t0 and k must be ints, got {n!r}, {r0!r}, {t0!r}, {k!r}")
    if not 2 <= t0 <= r0:
        raise DomainError(f"need 2 <= t0 <= r0, got t0={t0}, r0={r0}")
    if k < 2:
        raise DomainError(f"need k >= 2 blocks, got {k}")
    if n < 2:
        raise DomainError(f"need part size n >= 2, got {n}")
    if delta0 < 0:
        raise DomainError(f"delta0 must be >= 0, got {delta0}")


def _composition_slice(n: int, r0: int, k: int, delta0: Fraction) -> int:
    """Small-side size l = floor((r0 - 1) n / (delta0 + k r0 - 1)) of the
    block composition, for arguments that pass ``_check_composition``."""
    from fractions import Fraction

    size = math.floor(Fraction((r0 - 1) * n) / (delta0 + k * r0 - 1))
    if size < 1:
        raise DomainError(
            f"degenerate composition: slice size floor((r0-1)n / (delta0 + k*r0 - 1)) "
            f"is {size} for n={n}, r0={r0}, k={k}, delta0={delta0}"
        )
    return size


def odd_t_gap(n: int, t: int) -> bool:
    """Whether f(n, t+1, t) provably exceeds its t-chromatic relaxation.

    For odd t the transversal-clique value gives f(n, t+1, t) exactly,
    while the chromatic upper bound caps d(n, t+1, t); a strict gap shows
    the clique-free optimum on t + 1 parts is not t-chromatic at this n.
    """
    if t < 3 or t % 2 == 0:
        raise DomainError(f"gap check is for odd t >= 3, got {t}")
    return transversal_clique_value(n, t + 1) > chromatic_upper(n, t + 1, t)


# -- aggregation -------------------------------------------------------


class Bound(NamedTuple):
    """One bound with its provenance tag.

    ``conditions_met`` is False for values recorded for explanation only,
    such as a chromatic upper bound whose transfer condition fails at this
    n. Only condition-satisfied bounds enter the best-known envelope.
    """

    value: int
    source: str
    conditions_met: bool = True


class BoundReport(NamedTuple):
    """Everything known about one instance (n, r, t).

    ``best_lower`` and ``best_upper`` are the envelope: the largest lower
    and the smallest upper bound whose conditions are met. ``status`` is
    "exact" when they coincide and "bounded" otherwise; "open" is reserved
    for instances no recorded statement reaches, which does not currently
    occur. Dominated bounds are kept so callers can explain where each
    number comes from.
    """

    n: int
    r: int
    t: int
    lower_bounds: tuple[Bound, ...]
    upper_bounds: tuple[Bound, ...]
    best_lower: int
    best_upper: int
    exact: int | None
    status: str
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "t": self.t,
            "status": self.status,
            "exact": self.exact,
            "lower": self.best_lower,
            "upper": self.best_upper,
            "lower_bounds": [
                {"value": b.value, "source": b.source, "conditions_met": b.conditions_met}
                for b in self.lower_bounds
            ],
            "upper_bounds": [
                {"value": b.value, "source": b.source, "conditions_met": b.conditions_met}
                for b in self.upper_bounds
            ],
            "notes": list(self.notes),
        }


_OPEN_CASE_NOTE = (
    "f(n, 7, 3) is open: no recorded statement closes the gap. Unproven "
    "estimates place the value between 30n/7 and roughly 4.31n; only the "
    "interval reported here is machine-checked. At n = 2 the exhaustive "
    "oracle settles it: duality_audit(2, 7, 4, cap=14) in mpturan.oracle "
    "gives f(2, 7, 3) = 8 and the dual delta = 4."
)


def best_known_bounds(n: int, r: int, t: int) -> BoundReport:
    """Every family whose guard holds at (n, r, t), with provenance.

    Lower bounds are all constructive and unconditional. The chromatic
    upper bound is listed always but counts toward the envelope only when
    a transfer condition certifies f = d at this instance.
    """
    m, a = _decompose_instance(n, r, t)
    lowers: list[Bound] = []
    uppers: list[Bound] = []
    for family in _FAMILIES:
        if not family.guard(t, m, a):
            continue
        met = family.transfer is None or family.transfer(n, r, t, m, a)
        bound = Bound(family.value(n, r, t, m, a), family.name, met)
        if family.role != "upper":
            lowers.append(bound)
        if family.role != "lower":
            uppers.append(bound)

    best_lower = max(b.value for b in lowers if b.conditions_met)
    best_upper = min(b.value for b in uppers if b.conditions_met)
    exact = best_lower if best_lower == best_upper else None
    status = "exact" if exact is not None else "bounded"
    notes: tuple[str, ...] = ((_OPEN_CASE_NOTE,) if (r, t) == (7, 3) else ())
    return BoundReport(
        n=n,
        r=r,
        t=t,
        lower_bounds=tuple(lowers),
        upper_bounds=tuple(uppers),
        best_lower=best_lower,
        best_upper=best_upper,
        exact=exact,
        status=status,
        notes=notes,
    )
