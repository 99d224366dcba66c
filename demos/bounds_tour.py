"""Tour of the bound inventory for f(n, r, t + 1).

Walks the closed-form results first, then an instance where lower and
upper bounds meet only because the large-parts transfer condition kicks
in, and finally the open case r = 7, t = 3 where a gap remains.
"""

from fractions import Fraction

from mpturan.bounds import (
    best_known_bounds,
    decompose,
    exact_value_cases,
    sliced_value,
    transfer_large_n,
    turan_sandwich,
)


def show(n: int, r: int, t: int) -> None:
    report = best_known_bounds(n, r, t)
    if report.status == "exact":
        print(f"  f({n}, {r}, {t + 1}) = {report.exact}")
    else:
        print(f"  f({n}, {r}, {t + 1}) in [{report.best_lower}, {report.best_upper}]")
    for bound in sorted(report.lower_bounds, key=lambda b: -b.value):
        mark = "" if bound.conditions_met else "   (condition not met)"
        print(f"    lower {bound.value:>5}  from {bound.source}{mark}")
    for bound in sorted(report.upper_bounds, key=lambda b: b.value):
        mark = "" if bound.conditions_met else "   (condition not met)"
        print(f"    upper {bound.value:>5}  from {bound.source}{mark}")
    for note in report.notes:
        print(f"    note: {note}")


def main() -> None:
    print("Closed forms: t = 2, t dividing r, and r = -1 (mod t)")
    for n, r, t in ((4, 9, 2), (2, 6, 3), (1, 5, 3)):
        value = exact_value_cases(n, r, t)
        print(f"  f({n}, {r}, {t + 1}) = {value}")
    print("and r = t + 1 (Haxell-Szabo; Szabo-Tardos), the transversal family:")
    show(3, 5, 4)
    print()

    print("Every instance sits inside the sandwich (r - ceil(r/t))n <= f <= (r - r/t)n:")
    for n, r, t in ((7, 7, 3), (12, 9, 4)):
        lo, hi = turan_sandwich(n, r, t)
        print(f"  f({n}, {r}, {t + 1}): {lo} <= f <= {hi}")
    print()

    print("r = 10, t = 3 writes r = mt - a with (m, a) =", decompose(10, 3))
    print("The sliced blow-up gives the lower bound", sliced_value(60, 10, 3))
    print("and the chromatic upper bound transfers once parts reach size 60:")
    for n in (59, 60):
        print(f"  n = {n}: transfer condition {transfer_large_n(n, 10, 3)}")
        show(n, 10, 3)
    print()

    print("The one open case with t = 3 below four blocks:")
    show(7, 7, 3)
    print()

    print("Exact rational bookkeeping, never floats:")
    margin = Fraction(10, 72) - Fraction(2, 9) + Fraction(1, 10)
    print(f"  transfer margin at (r=10, t=3) is {margin} against 1/n")


if __name__ == "__main__":
    main()
