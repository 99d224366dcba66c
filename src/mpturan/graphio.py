"""Reading and writing graphs.

Two formats:

* a canonical JSON document (schema_version 1) holding the part sizes
  and the sorted edge list; serialization is byte-stable, so a load
  followed by a dump reproduces the input exactly;
* DIMACS edge format with a ``c part-sizes`` comment carrying the
  partition, 1-indexed as usual. Both sides work in bytes: the writer
  yields one vertex's run of ``e h v`` lines at a time, and the reader
  takes each run under one head in one split, its neighbor names mapped to
  ids through a name table, and skips the runs of its twins. A twin's run,
  the same lines under the next head, is written and checked as the next
  run of one generator, ``_twin_runs``, which both sides drive: it moves
  its last run to the next head by one strided slice assignment per
  stretch of lines of equal length, more only where a carry changes more
  digits, not one join step per line. In a file in another edge order most
  lines are runs of one line with no twin, each read as one edge.

``write_bytes`` writes any bytes given in pieces through one buffer of the
file, so a streamed DIMACS or JSON file is never held whole in memory.

Both readers accept at most ``MAX_VERTICES`` vertices, and any text either
gives a graph or raises ``GraphStructureError``.
"""

from __future__ import annotations

import os
import re
import stat
from array import array
from collections.abc import Iterable, Iterator
from itertools import count, islice, repeat
from operator import sub

from .errors import GraphStructureError
from .graphs import MAX_VERTICES, MultipartiteGraph, bit_indices, from_edges

__all__ = [
    "SCHEMA_VERSION",
    "graph_to_json_dict",
    "graph_from_json_dict",
    "dumps_graph",
    "loads_graph",
    "dimacs_chunks",
    "to_dimacs",
    "from_dimacs",
]

SCHEMA_VERSION = 1


def graph_to_json_dict(g: MultipartiteGraph) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "part_sizes": list(g.part_sizes),
        "edges": list(map(list, g.edges())),
    }


def graph_from_json_dict(doc: dict) -> MultipartiteGraph:
    if not isinstance(doc, dict):
        raise GraphStructureError("graph document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise GraphStructureError(
            f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    try:
        part_sizes = doc["part_sizes"]
        edges = doc["edges"]
    except KeyError as exc:
        raise GraphStructureError(f"malformed graph document: missing {exc}") from None
    # bool is a subclass of int and JSON has no other integer type, so
    # ``type(x) is int`` admits exactly the JSON integers
    if not isinstance(part_sizes, list) or any(type(s) is not int for s in part_sizes):
        raise GraphStructureError("part_sizes must be a list of integers")
    if not isinstance(edges, list) or any(
        type(e) is not list or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int
        for e in edges
    ):
        raise GraphStructureError("edges must be a list of [u, v] integer pairs")
    return from_edges(part_sizes, edges)


def dumps_graph(g: MultipartiteGraph) -> str:
    """Canonical serialization: sorted keys, no whitespace, sorted edges."""
    import json

    return json.dumps(graph_to_json_dict(g), sort_keys=True, separators=(",", ":"))


def loads_graph(text: str) -> MultipartiteGraph:
    import json

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers past the int-to-str digit limit
        raise GraphStructureError(f"not valid JSON: {exc}") from exc
    return graph_from_json_dict(doc)


_WRITE_BUFFER = 1 << 16
"""Bytes the file writer gathers before each write: pieces shorter than
this are copied into one buffer, longer ones written as they are."""


def write_bytes(path: str | os.PathLike, chunks: Iterable[bytes]) -> None:
    """Replace the contents of ``path`` with the concatenation of ``chunks``,
    any iterable of bytes-like pieces, each written before the next is
    asked for.

    The file is opened without O_TRUNC: truncating a file whose last
    contents are not yet written back makes the open wait for that
    writeback. A regular file is cut at the end of the bytes written, also
    when a chunk or a write fails, so no old tail is left behind the new
    bytes. Other targets, such as ``/dev/stdout`` or a FIFO, are written in
    place; the path itself is never unlinked or replaced.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb", buffering=_WRITE_BUFFER) as fh:
        try:
            fh.writelines(chunks)
            fh.flush()
        finally:
            # after a failure, what the buffer still holds is written at
            # the cut when the file closes
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _names(n: int) -> list[bytes]:
    """The name of each 0-based vertex id below ``n`` as DIMACS writes it
    at the end of a line: 1-based, with the line break."""
    return [b"%d\n" % v for v in range(1, n + 1)]


def dimacs_chunks(g: MultipartiteGraph) -> Iterator[bytes]:
    """The bytes of ``to_dimacs(g)`` in pieces: the two header lines, then
    one piece per vertex with higher neighbors, holding that vertex's run.

    A piece may be a ``bytearray`` that the next piece overwrites, so each
    must be written or copied before the next is asked for.

    Vertex names come from one table. Each run is the next of one
    ``_twin_runs`` per class of consecutive rows with the same higher
    neighbors, as twins have: the class's first row starts it.
    """
    n = g.n_vertices
    names = _names(n)
    yield b"c part-sizes %s\n" % " ".join(map(str, g.part_sizes)).encode()
    yield b"p edge %d %d\n" % (n, g.edge_count())
    previous = 0
    for head, row in enumerate(g.rows, 1):
        higher = row >> head
        if higher:
            # the same vertices as the previous row's list when the
            # previous row's higher mask is this one shifted up by one
            if higher << 1 != previous:
                # an empty first piece, as the reader's split gives
                pieces = [b""]
                pieces += map(names.__getitem__, bit_indices(higher, head))
                twins = _twin_runs(pieces, head - 1)
            yield next(twins)
        previous = higher


_PATCH_LINES = 32
"""Fewest lines per stretch, on average over a run, at which its twins are
patched in place rather than joined from their pieces."""


def _stretches(pieces: list[bytes], run: bytes, prefix: int) -> list[tuple[int, int]]:
    """One (line count, piece length) per stretch of a run, a stretch being
    consecutive lines of equal length, given the run's bytes, the length of
    its line prefix ``e h `` and its pieces, the run split on that prefix.

    The stretches are found by bisection on the piece lengths, which is
    right where they ascend, as the writer's names do, and checked on the
    run's bytes: each line holds one ``e``, at its start, so where each
    line the stretches give starts with one and they end where the run
    does, they are the run's. Empty where that check fails or the run has
    fewer than ``_PATCH_LINES`` lines per stretch.
    """
    # not loaded by every interpreter's start, so imported where first used
    from bisect import bisect_right

    stretches, start = [], 1  # the first piece is the empty one before the first prefix
    for length in range(len(pieces[1]), len(pieces[-1]) + 1):
        stop = bisect_right(pieces, length, start, key=len)
        if stop > start:
            stretches.append((stop - start, length))
            start = stop
    if start < len(pieces) or len(stretches) * _PATCH_LINES >= len(pieces):
        return []
    offset = 0
    for lines, length in stretches:
        step = prefix + length
        if run[offset : offset + lines * step : step] != b"e" * lines:
            return []
        offset += lines * step
    return stretches if offset == len(run) else []


_DIGITS = [bytearray(b"%d" % digit) for digit in range(10)]


def _twin_runs(pieces: list[bytes], head: int) -> Iterator[bytes]:
    """The run of ``pieces``, a run split on its line prefix, under each
    head after ``head`` in turn: the twins of a run under ``head``, or,
    started one head before a class's first, every run of the class.

    The first run of each head width is joined from the pieces, and so is
    every run where ``_stretches`` finds no layout. Every other run is one
    ``bytearray`` per head width, the run before it moved to the next head
    by one strided slice assignment per stretch over the head's last
    digit, and one more per stretch for each digit a carry changes. So
    each run must be written or compared before the next is asked for.
    """
    layout = None
    while True:
        head += 1
        prefix = b"e %d " % head
        run = prefix.join(pieces)
        yield run
        if layout is None:
            layout = _stretches(pieces, run, len(prefix))
            # each digit repeated once per line of a stretch, as a bytearray,
            # which a slice assignment takes without the copy it makes of bytes
            fills = [[d * lines for d in _DIGITS] for lines, _ in layout]
        if not layout:
            continue
        # per stretch: the last head digit of its first line, its end and
        # its line length
        buf, spans, start = bytearray(run), [], 0
        for (lines, piece), digits in zip(layout, fills):
            step = len(prefix) + piece
            spans.append((start + len(prefix) - 2, start + lines * step, step, digits))
            start += lines * step
        for head in range(head + 1, 10 ** (len(prefix) - 3)):
            place, shift = head, 0
            while True:
                digit = place % 10
                for last, end, step, digits in spans:
                    buf[last - shift : end : step] = digits[digit]
                if digit:
                    break
                place //= 10
                shift += 1
            yield buf


def to_dimacs(g: MultipartiteGraph) -> str:
    """DIMACS text with one ``e u v`` line per edge, u < v, 1-based."""
    return b"".join(map(bytes, dimacs_chunks(g))).decode()


_WINDOW = 1 << 18
"""Bytes a block that is not a run may span: it ends at the first edge line
within them, or, where none is in them, at the next newline after them, so
that a large file never becomes one list of millions of lines. A block that
starts with an edge line that is not a run is one line long, and each such
block right after it twice as long as the one before, up to this span."""

_RUN = re.compile(rb"e (\d{1,10}) (\d+)\r?\n(?:e \1 \d+\r?\n){0,%d}" % (MAX_VERTICES - 2))
"""One vertex's run as ``to_dimacs`` writes it: ``e h v`` lines under one
head h, at most ``MAX_VERTICES - 1`` of them. The bound keeps a match within
one run, so a long text under one head is not scanned again from every
block, which would take quadratic time; ten digits keep ``int`` on the head
far below the interpreter's digit limit. The first neighbor is a group too,
so that a run of one line is read from the match alone."""


_MAX_ID = (1 << 8 * array("I").itemsize) - 1
"""Largest 0-based id the line parser's unsigned arrays hold."""


def _malformed(lineno: int, what: str, raw: str) -> GraphStructureError:
    return GraphStructureError(f"line {lineno}: malformed {what}: {raw.strip()[:60]!r}")


class _LineParser:
    """The general DIMACS path: every line, parsed on its own.

    Edge endpoints are kept 0-based in two unsigned arrays, so a vertex id
    below 1 cannot be stored. ``lineno`` counts every line read so far,
    including those the caller skipped without parsing.
    """

    def __init__(self) -> None:
        self.part_sizes: list[int] | None = None
        self.declared: tuple[int, int] | None = None
        self.us = array("I")
        self.vs = array("I")
        self.lineno = 0

    def parse(self, block: str) -> None:
        add_u, add_v = self.us.append, self.vs.append
        lineno = self.lineno
        for raw in block.splitlines():
            lineno += 1
            fields = raw.split()
            if not fields:
                continue
            tag = fields[0]
            if tag == "e":
                try:
                    _, u, v = fields
                    add_u(int(u) - 1)
                    add_v(int(v) - 1)
                except (ValueError, OverflowError):
                    raise _malformed(lineno, "edge line", raw) from None
            elif tag == "c":
                if len(fields) >= 2 and fields[1] == "part-sizes":
                    try:
                        self.part_sizes = [int(x) for x in fields[2:]]
                    except ValueError:
                        raise _malformed(lineno, "part-sizes comment", raw) from None
            elif tag == "p":
                if len(fields) != 4 or fields[1] != "edge":
                    raise _malformed(lineno, "problem line", raw)
                try:
                    self.declared = (int(fields[2]), int(fields[3]))
                except ValueError:
                    raise _malformed(lineno, "problem line", raw) from None
            else:
                raise GraphStructureError(f"line {lineno}: unknown record {tag[:20]!r}")
        self.lineno = lineno


def _neighbor_ids(pieces: list[bytes], ids: dict[bytes, int] | None) -> array | None:
    """The 0-based ids of a run's pieces after the first, each an id and its
    line break: looked up in the name table ``ids``, or, where a piece is
    not in it, read by ``int``; None where an id fits no "I" entry."""
    if ids is not None:
        try:
            return array("I", map(ids.__getitem__, islice(pieces, 1, None)))
        except KeyError:
            pass
    try:
        return array("I", map(sub, map(int, islice(pieces, 1, None)), repeat(1)))
    except (ValueError, OverflowError):
        return None


def from_dimacs(data: bytes | str) -> MultipartiteGraph:
    """Read DIMACS edge format with a ``c part-sizes`` comment, from UTF-8
    bytes or from a string, which is encoded once on entry. Both ways pass
    surrogates, so that any string reads as text.

    The bytes are read in blocks. A run, one match of ``_RUN`` under a head
    h, is a block of its own. A run of one line that no twin follows, as in
    a file in another edge order, is one edge for the per-line parser's
    arrays. Any other run is read in one split on its line prefix ``e h ``,
    one neighbor and its line break per piece, each piece mapped to its id
    by a name table built once the part sizes are known, or by ``int``
    where it is not in the table, and ``from_edges`` receives it as one
    group. Where the bytes continue with the same run under the head h + 1,
    a twin, those lines are counted but not parsed, and the group's heads,
    a ``range``, grow by one. Each twin is compared with the next run of
    ``_twin_runs`` of the pieces, made only once the next head's line
    prefix follows.
    Any other block is decoded and given to one per-line parser; so is a
    run with an id that the parser would refuse, so that each error names
    its line as that parser does.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    lines = _LineParser()
    groups: list[tuple[range, array]] = []
    ids = None
    pos, end_of_text, reach = 0, len(data), 0
    while pos < end_of_text:
        run = _RUN.match(data, pos)
        if run:
            reach = 0
            end = run.end()
            head = int(run[1])
            if end - run.end(2) <= 2 and not data.startswith(b"e %d " % (head + 1), end):
                # a one-line run that no twin follows is an edge; both ids
                # are checked before either is kept, and a neighbor of more
                # than ten digits, which fits no entry, is left to the parser
                u, v = head - 1, int(run[2]) - 1 if len(run[2]) <= 10 else -1
                if 0 <= u <= _MAX_ID and 0 <= v <= _MAX_ID:
                    lines.us.append(u)
                    lines.vs.append(v)
                    lines.lineno += 1
                    pos = end
                    continue
            if ids is None and lines.part_sizes is not None:
                ids = dict(zip(_names(min(sum(lines.part_sizes), MAX_VERTICES)), count()))
            # the line prefix ``e h `` opens each line of the run and occurs
            # nowhere else in it, so each piece after the first holds one
            # neighbor. An id that fits no 0-based "I" entry leaves the
            # block to the line parser, which names its line
            pieces = run[0].split(b"e %s " % run[1])
            neighbors = _neighbor_ids(pieces, ids) if 0 < head <= _MAX_ID + 1 else None
            if neighbors is not None:
                # each twin's run is the next of ``_twin_runs``, asked for
                # only once the next head's prefix follows
                last, twins = head, _twin_runs(pieces, head)
                while data.startswith(b"e %d " % (last + 1), end):
                    twin = next(twins)
                    if not data.startswith(twin, end):
                        break
                    last += 1
                    end += len(twin)
                groups.append((range(head - 1, last), neighbors))
                lines.lineno += (last - head + 1) * len(neighbors)
                pos = end
                continue
        elif data.startswith(b"e ", pos):
            # an edge line the writer would not write; the lines after it
            # may be too, so each such block right after it spans twice
            # the bytes of the one before
            end = data.find(b"\n", pos + reach)
            end = end_of_text if end < 0 else end + 1
            reach = min(2 * (end - pos), _WINDOW)
        else:
            end = data.find(b"\ne ", pos, pos + _WINDOW)
            if end < 0:
                end = data.find(b"\n", pos + _WINDOW)
            end = end_of_text if end < 0 else end + 1
        try:
            block = data[pos:end].decode("utf-8", "surrogatepass")
        except UnicodeDecodeError as exc:
            raise GraphStructureError(
                f"not UTF-8 text ({exc.reason} at byte {pos + exc.start})"
            ) from None
        lines.parse(block)
        pos = end
    if lines.part_sizes is None:
        raise GraphStructureError(
            "missing 'c part-sizes' comment; the partition cannot be recovered"
        )
    if lines.declared is not None:
        n_vertices, n_edges = lines.declared
        if n_vertices != sum(lines.part_sizes):
            raise GraphStructureError(
                f"problem line declares {n_vertices} vertices, "
                f"part sizes sum to {sum(lines.part_sizes)}"
            )
        found = len(lines.us) + sum(len(heads) * len(nb) for heads, nb in groups)
        if n_edges != found:
            raise GraphStructureError(
                f"problem line declares {n_edges} edges, found {found}"
            )
    return from_edges(lines.part_sizes, zip(lines.us, lines.vs), groups)
