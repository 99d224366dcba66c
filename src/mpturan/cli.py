"""Command line interface.

Subcommands:

* ``bounds``     best known lower/upper bounds for one instance
* ``construct``  build an extremal graph and print or save it
* ``verify``     check claims about a graph file exactly
* ``oracle``     exhaustive ground truth on tiny instances
* ``table``      bounds for a range of part counts at fixed n and t

Exit codes: 0 success, 1 a checked claim is false or an internal
consistency audit failed, 2 invalid arguments or an inapplicable request,
3 an oracle instance exceeds the size cap.

All JSON output carries integers only; nothing is ever rounded to float.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Iterable
from fractions import Fraction
from functools import cache
from itertools import chain
from pathlib import Path

from .bounds import _check_composition, _composition_slice, best_known_bounds, ceil_div
from .constructions import (
    ConstructionOutput,
    apex_blowup,
    block_composition,
    default_inner_graph,
    sliced_blowup,
    turan_blowup,
)
from .errors import DomainError, GraphStructureError, InternalConsistencyError, SizeCapError
from .graphio import _batches, dimacs_chunks, from_dimacs, graph_to_json_dict, loads_graph
from .graphio import write_text
# not called here, but the benchmark's tracer wraps it by this module's name
from .graphio import to_dimacs  # noqa: F401
from .graphs import MAX_VERTICES, MultipartiteGraph
from .oracle import DEFAULT_CAP, duality_audit, oracle_delta, oracle_f
from .verifier import _CLAIMS, REFUTED, _check_claim_kinds, aes_check, certify

__all__ = ["main"]

# ``table`` builds every row before it prints; a longer range is refused
# up front instead of ending out of memory
MAX_TABLE_ROWS = 10_000

# Python prints no int of more than 4,300 digits; the commands print products
# of at most two arguments, at most 4,000 digits within this limit
MAX_INT_DIGITS = 2_000
_INT_BOUND = 10**MAX_INT_DIGITS


def _check_digits(value: int, what: str) -> int:
    if abs(value) >= _INT_BOUND:
        raise DomainError(f"{what} has more than {MAX_INT_DIGITS} digits")
    return value


def _jobs(flag: int | None) -> int | None:
    """``--jobs``, else MPTURAN_JOBS, else None; either must be positive."""
    source, raw = "--jobs", flag
    if flag is None:
        source, raw = "MPTURAN_JOBS", os.environ.get("MPTURAN_JOBS")
    if raw is None or raw == "":
        return None
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise DomainError(f"{source} must be a positive integer, got {raw!r}")
    return jobs


def _stream(chunks: Iterable[str], out: str | None) -> None:
    """Write the concatenation of ``chunks`` to ``out``, or to stdout without
    one, a batch at a time."""
    if not out:
        sys.stdout.writelines(_batches(chunks))
        return
    try:
        write_text(out, chunks)
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc.strerror}") from None


def _emit(text: str, out: str | None) -> None:
    _stream((text if text.endswith("\n") else text + "\n",), out)


def _render_report_text(report) -> str:
    head = f"f(n={report.n}, r={report.r}, t={report.t})"
    lines = []
    if report.status == "exact":
        lines.append(f"{head} = {report.exact}  [exact]")
    else:
        lines.append(f"{head} in [{report.best_lower}, {report.best_upper}]  [bounded]")
    lines.append("  lower bounds:")
    for b in sorted(report.lower_bounds, key=lambda b: -b.value):
        mark = "" if b.conditions_met else "  (condition not met)"
        lines.append(f"    {b.value:>8}  {b.source}{mark}")
    lines.append("  upper bounds:")
    for b in sorted(report.upper_bounds, key=lambda b: b.value):
        mark = "" if b.conditions_met else "  (condition not met)"
        lines.append(f"    {b.value:>8}  {b.source}{mark}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def _cmd_bounds(args: argparse.Namespace) -> int:
    report = best_known_bounds(args.n, args.r, args.t)
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict(), sort_keys=True, indent=2), args.out)
    else:
        _emit(_render_report_text(report), args.out)
    return 0


def _composition_from_defaults(n: int, r0: int, t0: int, k: int) -> ConstructionOutput:
    """Compose the stock inner family, the cross complement of a balanced
    clique-free blowup (complete multipartite for t0 = 2), whose max
    degree is delta0 = ceil(r0 / (t0 - 1)) - 1 times its part size."""
    _check_composition(n, r0, t0, k)
    delta0 = Fraction(ceil_div(r0, t0 - 1) - 1)
    inner = default_inner_graph(r0, t0, _composition_slice(n, r0, k, delta0))
    return block_composition(n, inner, t0, delta0, k)


# Each builder is looked up by name when its method runs, never bound here,
# so a rebinding of these names in this module reaches ``construct``.
_METHODS = {
    "turan": lambda a: turan_blowup(a.n, a.r, a.t),
    "sliced": lambda a: sliced_blowup(a.n, a.r, a.t),
    "apex": lambda a: apex_blowup(a.n, a.r, a.t),
    "composition": lambda a: _composition_from_defaults(a.n, a.r, a.t, a.k),
}


def _cmd_construct(args: argparse.Namespace) -> int:
    blocks = args.k if args.method == "composition" else 1
    if blocks * args.r * args.n > MAX_VERTICES:
        raise DomainError(
            f"the {args.method} construction would have {blocks * args.r} parts of "
            f"{args.n} vertices, above the limit of {MAX_VERTICES} vertices"
        )
    built = _METHODS[args.method](args)
    g = built.graph
    if args.format == "dimacs":
        _stream(dimacs_chunks(g), args.out)
    elif args.format == "json":
        doc = {
            "method": args.method,
            "source": built.source,
            "graph": graph_to_json_dict(g),
            "min_degree": built.claimed_min_degree,
            "max_degree": built.claimed_max_degree,
            "coloring": list(built.coloring.colors) if built.coloring else None,
        }
        encoder = json.JSONEncoder(sort_keys=True, indent=2)
        _stream(chain(encoder.iterencode(doc), "\n"), args.out)
    else:
        lines = [
            f"method: {args.method} ({built.source})",
            f"parts: {g.n_parts} x {g.part_sizes[0]}",
            f"vertices: {g.n_vertices}",
            f"edges: {g.edge_count()}",
        ]
        if built.claimed_min_degree is not None:
            lines.append(f"min degree: {built.claimed_min_degree}")
        if built.claimed_max_degree is not None:
            lines.append(f"max degree: {built.claimed_max_degree}")
        _emit("\n".join(lines), args.out)
    return 0


# what ``str.lstrip`` strips: Unicode whitespace, which within ASCII is
# ``\s`` and \x1c-\x1f
_SPACE = re.compile(r"\s*")
_ASCII_SPACE = re.compile(rb"[\s\x1c-\x1f]*")


def _read_graph_file(path: str) -> MultipartiteGraph:
    """The graph in the file at ``path``: a JSON graph document when its
    first non-whitespace character is ``{``, else DIMACS, read as bytes."""
    try:
        data = Path(path).read_bytes()
        # ASCII is UTF-8 as it stands; other bytes are decoded once to check
        text = None if data.isascii() else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphStructureError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    except IsADirectoryError:
        raise DomainError(f"{path} is a directory, not a graph file") from None
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    if text is None:
        is_json = data.startswith(b"{", _ASCII_SPACE.match(data).end())
    else:
        is_json = text.startswith("{", _SPACE.match(text).end())
    if not is_json:
        return from_dimacs(data)
    if text is None:
        text = data.decode("ascii")
    # the newlines a text-mode read would give, so that JSON errors name the
    # same positions
    return loads_graph(text.replace("\r\n", "\n").replace("\r", "\n"))


def _parse_claims(raw: list[str]) -> list[tuple[str, int]]:
    claims = []
    for item in raw:
        kind, sep, value = item.partition("=")
        if not sep:
            raise DomainError(f"claim must look like kind=value, got {item!r}")
        try:
            claims.append((kind, int(value)))
        except ValueError:
            raise DomainError(f"claim value must be an integer, got {item!r}")
    return claims


def _cmd_verify(args: argparse.Namespace) -> int:
    claims = _parse_claims(args.claim or [])
    _check_claim_kinds(claims)
    if not claims and args.aes is None:
        raise DomainError("nothing to verify: pass --claim and/or --aes")
    g = _read_graph_file(args.infile)
    failed = False
    doc: dict = {"graph_digest": g.digest()}
    # aes_check refuses a bad t before it searches, so it runs first
    if args.aes is not None:
        status = aes_check(g, args.aes)
        doc["aes"] = {"t": args.aes, "status": status}
        failed |= status == REFUTED
    if claims:
        cert = certify(g, claims)
        doc.update(cert.to_json_dict())
        failed |= not cert.all_true
    if args.format == "json":
        _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    else:
        lines = [f"graph: {doc['graph_digest']}"]
        for p in doc.get("properties", []):
            verdict = "ok" if p["verdict"] else "FALSE"
            lines.append(f"  {p['claim']}={p['value']}: {verdict}")
        if "aes" in doc:
            lines.append(f"  threshold coloring (t={args.aes}): {doc['aes']['status']}")
        _emit("\n".join(lines), args.out)
    return 1 if failed else 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    jobs = _jobs(args.jobs)
    size = args.t + 1
    kw = dict(cap=args.cap, seed=args.seed)
    if args.mode == "audit":
        audit = duality_audit(args.n, args.r, size, jobs=jobs, **kw)
        audit["t"] = args.t
        if args.format == "json":
            _emit(json.dumps(audit, sort_keys=True, indent=2), args.out)
        else:
            _emit(
                f"f(n={args.n}, r={args.r}, forbid K_{size}) = {audit['f']}\n"
                f"delta(n={args.n}, r={args.r}, cover size {size}) = {audit['delta']}\n"
                f"duality (r-1)n = {audit['f']} + {audit['delta']}: consistent",
                args.out,
            )
        return 0
    run = oracle_f if args.mode == "f" else oracle_delta
    result = run(args.n, args.r, size, **kw)
    if args.format == "json":
        doc = result.to_json_dict()
        doc["t"] = args.t
        doc["witness"] = graph_to_json_dict(result.witness)
        _emit(json.dumps(doc, sort_keys=True, indent=2), args.out)
    else:
        what = (
            f"max min degree, no clique on {size}"
            if args.mode == "f"
            else f"min max degree, no crossing independent {size}-set"
        )
        _emit(
            f"oracle {args.mode}(n={args.n}, r={args.r}, t={args.t}) = "
            f"{result.value}  ({what}; witness has {result.witness.edge_count()} edges)",
            args.out,
        )
    return 0


def _parse_r_range(raw: str) -> tuple[int, int]:
    lo, sep, hi = raw.partition("..")
    try:
        ends = (int(lo), int(hi)) if sep else (int(raw), int(raw))
    except ValueError:
        raise DomainError(f"range must look like 5..13 or a single integer, got {raw!r}")
    return _check_digits(ends[0], "--r"), _check_digits(ends[1], "--r")


def _cmd_table(args: argparse.Namespace) -> int:
    if args.r is not None:
        r_lo, r_hi = _parse_r_range(args.r)
    else:
        r_lo, r_hi = args.t + 1, 4 * args.t
    if r_lo <= args.t:
        raise DomainError(f"r must exceed t; got r={r_lo}, t={args.t}")
    if r_hi < r_lo:
        raise DomainError(f"empty range: {r_lo}..{r_hi}")
    if r_hi - r_lo + 1 > MAX_TABLE_ROWS:
        raise DomainError(
            f"the range {r_lo}..{r_hi} has {r_hi - r_lo + 1} rows, above the "
            f"limit of {MAX_TABLE_ROWS}"
        )
    reports = [best_known_bounds(args.n, r, args.t) for r in range(r_lo, r_hi + 1)]
    if args.format == "json":
        _emit(
            json.dumps([rep.to_json_dict() for rep in reports], sort_keys=True, indent=2),
            args.out,
        )
        return 0
    lines = [f"f(n={args.n}, r, t={args.t}) for r in [{r_lo}, {r_hi}]"]
    lines.append(f"{'r':>4}  {'lower':>8}  {'upper':>8}  status")
    for rep in reports:
        lines.append(
            f"{rep.r:>4}  {rep.best_lower:>8}  {rep.best_upper:>8}  {rep.status}"
        )
    _emit("\n".join(lines), args.out)
    return 0


def _add_common_output(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--format", choices=formats, default="text", help="output format")
    p.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


# Built on the first ``main`` call, not at import, and kept for the process.
# Parsing keeps no state in the parser: each call gets a fresh namespace,
# and every ``_cmd_*`` resolves the functions it calls when it runs.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpturan",
        description=(
            "Bounds, extremal constructions, exact verification, and "
            "brute-force ground truth for the minimum-degree threshold "
            "f(n, r, t) below which a balanced r-partite graph can avoid "
            "a clique on t + 1 vertices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="best known bounds for one instance")
    p.add_argument("--n", type=int, required=True, help="size of every part")
    p.add_argument("--r", type=int, required=True, help="number of parts")
    p.add_argument("--t", type=int, required=True, help="largest allowed clique order")
    _add_common_output(p, ("text", "json"))
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("construct", help="build an extremal graph")
    p.add_argument(
        "--method",
        choices=tuple(_METHODS),
        required=True,
        help="construction family",
    )
    p.add_argument("--n", type=int, required=True, help="size of every part")
    p.add_argument(
        "--r", type=int, required=True, help="number of parts (per block for composition)"
    )
    p.add_argument(
        "--t",
        type=int,
        required=True,
        help="largest allowed clique order (covering size of the inner family "
        "for composition)",
    )
    p.add_argument(
        "--k", type=int, default=2, help="number of blocks (composition only, default 2)"
    )
    _add_common_output(p, ("text", "json", "dimacs"))
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check claims about a graph file")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH",
                   help="graph file, JSON or DIMACS")
    p.add_argument(
        "--claim",
        action="append",
        metavar="KIND=VALUE",
        help=f"claim to check exactly; kinds: {', '.join(_CLAIMS)}; repeatable",
    )
    p.add_argument(
        "--aes",
        type=int,
        metavar="T",
        help="also test the min-degree threshold coloring statement at this t",
    )
    _add_common_output(p, ("text", "json"))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive search on a tiny instance")
    p.add_argument("--mode", choices=("f", "delta", "audit"), required=True)
    p.add_argument("--n", type=int, required=True, help="size of every part")
    p.add_argument("--r", type=int, required=True, help="number of parts")
    p.add_argument(
        "--t",
        type=int,
        required=True,
        help="largest allowed clique order; the search forbids cliques on "
        "t + 1 vertices, and covering modes use crossing sets of t + 1",
    )
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        help=f"vertex-count safety cap (default {DEFAULT_CAP})",
    )
    p.add_argument(
        "--jobs",
        type=int,
        help="run an audit's f and delta searches in two processes "
        "(default: MPTURAN_JOBS, else serial)",
    )
    p.add_argument("--seed", type=int, help="shuffle the pair order deterministically")
    _add_common_output(p, ("text", "json"))
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("table", help="bounds for a range of part counts")
    p.add_argument("--n", type=int, required=True, help="size of every part")
    p.add_argument("--t", type=int, required=True, help="largest allowed clique order")
    p.add_argument("--r", help="part count range, e.g. 5..13 or 8 (default t+1..4t)")
    _add_common_output(p, ("text", "json"))
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if type(value) is int:
                _check_digits(value, f"--{name}")
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
