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
It is the text of ``json.dumps(doc, sort_keys=True, indent=2)``, written by
``_json_chunks``, which takes the C string encoder and joins int lists in
batches, so a large graph document streams out in bounded pieces.

``_COMMANDS`` is the one declaration of the subcommands and their options.
A call whose first argument names a subcommand and whose rest is exact
``--option value`` pairs is read from it without importing ``argparse``;
any other call is parsed by the top-level ``argparse`` parser built from
the same table, whose help, messages and exit codes stay. A plain call
also loads no ``hashlib``, ``fractions`` or ``json``: each is imported
where a command first uses it.
"""

from __future__ import annotations

import os
import re
import stat
import sys
from collections.abc import Callable, Iterable, Iterator
from functools import cache
from itertools import chain, cycle, groupby, islice, repeat
from operator import add
from types import SimpleNamespace
from typing import NamedTuple

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _quote

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
from .graphio import (
    dimacs_chunks,
    from_dimacs,
    graph_to_json_dict,
    loads_graph,
    write_bytes,
)
# not called here, but the benchmark's tracer wraps it by this module's name
from .graphio import to_dimacs  # noqa: F401
from .graphs import MAX_INPUT_BYTES, MAX_VERTICES, MultipartiteGraph
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


def _stream(
    chunks: Iterable[str] | Iterable[bytes], out: str | None, binary: bool = False
) -> None:
    """Write the concatenation of ``chunks``, strings or, when ``binary``,
    bytes-like pieces, to ``out``, or to stdout without one. Bytes go to
    stdout's binary buffer, after any text before them; a stdout with no
    such buffer, as ``contextlib.redirect_stdout`` can install, is given
    them decoded."""
    try:
        if out:
            write_bytes(out, chunks if binary else map(str.encode, chunks))
        elif binary and hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            sys.stdout.buffer.writelines(chunks)
            sys.stdout.buffer.flush()
        else:
            sys.stdout.writelines(map(str, chunks, repeat("utf-8")) if binary else chunks)
            sys.stdout.flush()
    except OSError as exc:
        if not out:
            # the interpreter flushes stdout again as it exits; a failing
            # flush there would print a second report
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise DomainError(f"cannot write {out or 'standard output'}: {exc.strerror}") from None


def _emit(text: str, out: str | None) -> None:
    _stream((text if text.endswith("\n") else text + "\n",), out)


# items of an int list, ints or int lists, per piece it streams out in:
# about 170 KiB of text for the edge pairs of a construct document
_INT_BATCH = 4096


def _int_pieces(
    ints: Iterator[int], count: int, head: str, seps: tuple[str, ...], tail: str
) -> Iterator[str]:
    """``head``, then ``count`` ints from ``ints``, each followed by the next
    separator of ``seps`` in turn, the last by ``tail`` instead; joined in C,
    ``_INT_BATCH`` rounds of ``seps`` per piece."""
    yield head
    step = _INT_BATCH * len(seps)
    for start in range(0, count, step):
        text = "".join(map(add, map(int.__repr__, islice(ints, step)), cycle(seps)))
        yield text if start + step < count else text[: -len(seps[-1])] + tail


# the JSON text of each scalar type the CLI prints
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}


def _encode(value, nl: str, parts: list) -> None:
    """Append the indented JSON text of ``value`` to ``parts``, with ``nl``
    the newline and indent of its own line. A list of ints, or of int lists
    of one length, is appended as an iterator of pieces instead."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        parts.append(scalar(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                parts.append(sep + _quote(key) + ": " + scalar(item))
            else:
                parts.append(sep + _quote(key) + ": ")
                _encode(item, inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = nl + "  "
        kinds = set(map(type, value))
        if kinds == {int}:
            parts.append(
                _int_pieces(iter(value), len(value), "[" + inner, ("," + inner,), nl + "]")
            )
            return
        if kinds == {list} and len(widths := set(map(len, value))) == 1:
            (width,) = widths
            if width and set(map(type, chain.from_iterable(value))) == {int}:
                row = inner + "  "
                seps = ("," + row,) * (width - 1) + (inner + "]," + inner + "[" + row,)
                ints = chain.from_iterable(value)
                head, tail = "[" + inner + "[" + row, inner + "]" + nl + "]"
                parts.append(_int_pieces(ints, len(value) * width, head, seps, tail))
                return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _encode(item, inner, parts)
            sep = "," + inner
        parts.append(nl + "]")
    else:
        # a float too: the CLI prints integers only
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_chunks(doc) -> Iterator[str]:
    """The text of ``json.dumps(doc, sort_keys=True, indent=2)`` in pieces,
    for a document of str-keyed dicts, lists, tuples, strs, ints, bools and
    None. Everything but int lists is joined into one piece per stretch."""
    parts: list = []
    _encode(doc, "\n", parts)
    for kind, run in groupby(parts, type):
        if kind is str:
            yield "".join(run)
        else:
            for pieces in run:
                yield from pieces


def _emit_json(doc, out: str | None) -> None:
    _stream(chain(_json_chunks(doc), "\n"), out)


def _render_report_text(report) -> str:
    head = f"f(n={report.n}, r={report.r}, t={report.t})"
    lines = []
    if report.status == "exact":
        lines.append(f"{head} = {report.exact}  [exact]")
    else:
        lines.append(f"{head} in [{report.best_lower}, {report.best_upper}]  [bounded]")
    # lower bounds largest first, upper bounds smallest first
    for side, bounds, sign in (
        ("lower", report.lower_bounds, -1), ("upper", report.upper_bounds, 1)
    ):
        lines.append(f"  {side} bounds:")
        for b in sorted(bounds, key=lambda b: sign * b.value):
            mark = "" if b.conditions_met else "  (condition not met)"
            lines.append(f"    {b.value:>8}  {b.source}{mark}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def _cmd_bounds(args: SimpleNamespace) -> int:
    report = best_known_bounds(args.n, args.r, args.t)
    if args.format == "json":
        _emit_json(report.to_json_dict(), args.out)
    else:
        _emit(_render_report_text(report), args.out)
    return 0


def _composition_from_defaults(n: int, r0: int, t0: int, k: int) -> ConstructionOutput:
    """Compose the stock inner family, the cross complement of a balanced
    clique-free blowup (complete multipartite for t0 = 2), whose max
    degree is delta0 = ceil(r0 / (t0 - 1)) - 1 times its part size."""
    from fractions import Fraction

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


def _cmd_construct(args: SimpleNamespace) -> int:
    blocks = args.k if args.method == "composition" else 1
    if blocks * args.r * args.n > MAX_VERTICES:
        raise DomainError(
            f"the {args.method} construction would have {blocks * args.r} parts of "
            f"{args.n} vertices, above the limit of {MAX_VERTICES} vertices"
        )
    built = _METHODS[args.method](args)
    g = built.graph
    if args.format == "dimacs":
        _stream(dimacs_chunks(g), args.out, binary=True)
    elif args.format == "json":
        doc = {
            "method": args.method,
            "source": built.source,
            "graph": graph_to_json_dict(g),
            "min_degree": built.claimed_min_degree,
            "max_degree": built.claimed_max_degree,
            "coloring": list(built.coloring.colors) if built.coloring else None,
        }
        _emit_json(doc, args.out)
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

# what a pipe or a device is read by, per call, on its way to the byte cap
_READ_BLOCK = 1 << 20


def _read_bytes(path: str) -> bytes:
    """The bytes of the file at ``path``, refused past ``MAX_INPUT_BYTES``.

    A regular file's size is checked before its one read. A pipe or a
    device has no size, so it is read in blocks until it ends or passes the
    cap.
    """
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        if stat.S_ISREG(info.st_mode):
            total = info.st_size
            data = f.read() if total <= MAX_INPUT_BYTES else b""
        else:
            blocks, total = [], 0
            while total <= MAX_INPUT_BYTES and (block := f.read(_READ_BLOCK)):
                blocks.append(block)
                total += len(block)
            data = b"".join(blocks)
    if total > MAX_INPUT_BYTES:
        raise DomainError(f"{path} is longer than the limit of {MAX_INPUT_BYTES} bytes")
    return data


def _read_graph_file(path: str) -> MultipartiteGraph:
    """The graph in the file at ``path``: a JSON graph document when its
    first non-whitespace character is ``{``, else DIMACS, read as bytes."""
    try:
        data = _read_bytes(path)
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
    except MemoryError:
        raise DomainError(f"cannot read {path}: not enough memory") from None
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


def _cmd_verify(args: SimpleNamespace) -> int:
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
        _emit_json(doc, args.out)
    else:
        lines = [f"graph: {doc['graph_digest']}"]
        for p in doc.get("properties", []):
            verdict = "ok" if p["verdict"] else "FALSE"
            lines.append(f"  {p['claim']}={p['value']}: {verdict}")
        if "aes" in doc:
            lines.append(f"  threshold coloring (t={args.aes}): {doc['aes']['status']}")
        _emit("\n".join(lines), args.out)
    return 1 if failed else 0


def _cmd_oracle(args: SimpleNamespace) -> int:
    jobs = _jobs(args.jobs)
    size = args.t + 1
    kw = dict(cap=args.cap, seed=args.seed)
    if args.mode == "audit":
        audit = duality_audit(args.n, args.r, size, jobs=jobs, **kw)
        audit["t"] = args.t
        if args.format == "json":
            _emit_json(audit, args.out)
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
        _emit_json(doc, args.out)
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


def _cmd_table(args: SimpleNamespace) -> int:
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
        _emit_json([rep.to_json_dict() for rep in reports], args.out)
        return 0
    lines = [f"f(n={args.n}, r, t={args.t}) for r in [{r_lo}, {r_hi}]"]
    lines.append(f"{'r':>4}  {'lower':>8}  {'upper':>8}  status")
    for rep in reports:
        lines.append(
            f"{rep.r:>4}  {rep.best_lower:>8}  {rep.best_upper:>8}  {rep.status}"
        )
    _emit("\n".join(lines), args.out)
    return 0


class _Option(NamedTuple):
    """One option of a command: the keywords ``add_argument`` takes besides
    its option string, of which ``_parse_plain`` reads all but the last two."""

    dest: str
    type: Callable[[str], object] | None = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    default: object = None
    action: str = "store"  # or "append"
    metavar: str | None = None
    help: str | None = None


class _Command(NamedTuple):
    help: str
    func: Callable[[SimpleNamespace], int]
    # by option string, in the order argparse lists them
    options: dict[str, _Option]


def _output(*formats: str) -> dict[str, _Option]:
    return {
        "--format": _Option("format", choices=formats, default="text", help="output format"),
        "--out": _Option("out", metavar="PATH", help="write output to a file instead of stdout"),
    }


_N = _Option("n", int, required=True, help="size of every part")
_R = _Option("r", int, required=True, help="number of parts")
_T = _Option("t", int, required=True, help="largest allowed clique order")

# The one declaration of the CLI's commands and options. ``_parse_plain``
# reads a plain command line from it; ``_build_parser`` builds argparse's
# parsers from it for every other command line.
_COMMANDS = {
    "bounds": _Command("best known bounds for one instance", _cmd_bounds, {
        "--n": _N, "--r": _R, "--t": _T, **_output("text", "json"),
    }),
    "construct": _Command("build an extremal graph", _cmd_construct, {
        "--method": _Option(
            "method", choices=tuple(_METHODS), required=True, help="construction family"
        ),
        "--n": _N,
        "--r": _R._replace(help="number of parts (per block for composition)"),
        "--t": _T._replace(
            help="largest allowed clique order (covering size of the inner family "
            "for composition)"
        ),
        "--k": _Option(
            "k", int, default=2, help="number of blocks (composition only, default 2)"
        ),
        **_output("text", "json", "dimacs"),
    }),
    "verify": _Command("check claims about a graph file", _cmd_verify, {
        "--in": _Option(
            "infile", required=True, metavar="PATH", help="graph file, JSON or DIMACS"
        ),
        "--claim": _Option(
            "claim", action="append", metavar="KIND=VALUE",
            help=f"claim to check exactly; kinds: {', '.join(_CLAIMS)}; repeatable",
        ),
        "--aes": _Option(
            "aes", int, metavar="T",
            help="also test the min-degree threshold coloring statement at this t",
        ),
        **_output("text", "json"),
    }),
    "oracle": _Command("exhaustive search on a tiny instance", _cmd_oracle, {
        "--mode": _Option("mode", choices=("f", "delta", "audit"), required=True),
        "--n": _N,
        "--r": _R,
        "--t": _T._replace(
            help="largest allowed clique order; the search forbids cliques on "
            "t + 1 vertices, and covering modes use crossing sets of t + 1"
        ),
        "--cap": _Option(
            "cap", int, default=DEFAULT_CAP,
            help=f"vertex-count safety cap (default {DEFAULT_CAP})",
        ),
        "--jobs": _Option(
            "jobs", int,
            help="run an audit's one search in a worker process, which gains "
            "nothing and is slated for removal (default: MPTURAN_JOBS, else serial)",
        ),
        "--seed": _Option("seed", int, help="shuffle the pair order deterministically"),
        **_output("text", "json"),
    }),
    "table": _Command("bounds for a range of part counts", _cmd_table, {
        "--n": _N,
        "--t": _T,
        "--r": _Option("r", help="part count range, e.g. 5..13 or 8 (default t+1..4t)"),
        **_output("text", "json"),
    }),
}


def _parse_plain(command: _Command, argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for ``argv[1:]`` when it is all pairs of
    an exact option string of ``command`` and a value that is non-empty,
    does not start with ``-``, converts by the option's type and lies in
    its choices, and every required option is given; else None.

    Its entries come in argparse's order: ``command``, each option's
    default in declaration order, then ``func``. A repeated option keeps
    its last value, and an appending one gets a new list.
    """
    options = command.options
    rest = argv[1:]
    if len(rest) % 2:
        return None
    args = SimpleNamespace(command=argv[0])
    ns = vars(args)
    for option in options.values():
        ns[option.dest] = option.default
    ns["func"] = command.func
    given = set()
    try:
        for flag, raw in zip(rest[::2], rest[1::2]):
            option = options[flag]
            if not raw or raw[0] == "-":
                return None
            value = raw if option.type is None else option.type(raw)
            if option.choices is not None and value not in option.choices:
                return None
            if option.action == "append":
                # a new list, as argparse makes, so that no call extends a default
                value = [*(ns[option.dest] or ()), value]
            ns[option.dest] = value
            given.add(flag)
    except (KeyError, ValueError):
        return None
    for flag, option in options.items():
        if option.required and flag not in given:
            return None
    return args


# Built on the first command line ``_parse_plain`` declines, not at import,
# and kept for the process; the one place ``argparse`` is imported. Parsing
# keeps no state in the parser: each call gets a fresh namespace, and every
# ``_cmd_*`` resolves the functions it calls when it runs.
@cache
def _build_parser():
    import argparse

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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, option in command.options.items():
            p.add_argument(flag, **option._asdict())
        p.set_defaults(func=command.func)
    # the command parsers by name, each with its own help and usage
    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]) -> SimpleNamespace:
    """``_build_parser().parse_args(argv)``, as a ``SimpleNamespace``, with
    argparse left unloaded when ``argv`` is a plain command line: a command
    name and then exact ``--option value`` pairs only, read from
    ``_COMMANDS`` by ``_parse_plain``. Any other goes to the top-level
    parser, so every refusal keeps argparse's message and exit code.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    args = None if command is None else _parse_plain(command, argv)
    return args or _build_parser().parse_args(argv, SimpleNamespace())


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
