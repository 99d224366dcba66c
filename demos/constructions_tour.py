"""Build each extremal family and verify its claims by exact search.

Every graph below is constructed, measured, and then re-checked from
scratch: clique-freeness by branch and bound, the coloring by search,
degrees by counting.
"""

from mpturan.bounds import apex_value, sliced_value
from mpturan.constructions import apex_blowup, sliced_blowup, turan_blowup
from mpturan.verifier import certify


def inspect(label: str, built, t: int) -> None:
    g = built.graph
    claims = [("kfree", t + 1), ("min_degree", built.claimed_min_degree)]
    if built.coloring is not None:
        claims.append(("colorable", t))
    cert = certify(g, claims)
    print(f"{label}: {g.n_parts} parts, {g.n_vertices} vertices, {g.edge_count()} edges")
    for check in cert.properties:
        print(f"  {check.kind} = {check.value}: {'ok' if check.verdict else 'FAILED'}")
    print()


def main() -> None:
    print("Balanced blow-up: r = 5 parts in t = 3 nearly equal color blocks")
    inspect("turan_blowup(2, 5, 3)", turan_blowup(2, 5, 3), 3)

    print("Sliced blow-up: colors cut across the parts, min degree",
          sliced_value(10, 10, 3))
    inspect("sliced_blowup(10, 10, 3)", sliced_blowup(10, 10, 3), 3)

    print("Apex blow-up for 2 <= m < a < t, min degree", apex_value(6, 7, 5))
    inspect("apex_blowup(6, 7, 5)", apex_blowup(6, 7, 5), 5)

    print("Parts crossed by the slicing sit at the minimum degree; the")
    print("remaining parts are busier:")
    g = sliced_blowup(10, 10, 3).graph
    per_part = [
        sorted({g.degree(v) for v, q in enumerate(g.part_of) if q == p})
        for p in range(g.n_parts)
    ]
    print(f"  degree sets by part: {per_part}")


if __name__ == "__main__":
    main()
