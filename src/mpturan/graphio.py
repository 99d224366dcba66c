"""Reading and writing graphs.

Two formats:

* a canonical JSON document (schema_version 1) holding the part sizes
  and the sorted edge list; serialization is byte-stable, so a load
  followed by a dump reproduces the input exactly;
* DIMACS edge format with a ``c part-sizes`` comment carrying the
  partition, 1-indexed as usual; the writer yields the text one vertex's
  run at a time, and the reader works on the file's bytes, takes each run
  of ``e h v`` lines under one head in one split and skips the runs of its
  twins. A twin's run, the same lines under the next head, is written and
  checked as a copy of the run before it with the head's changed digits
  patched in place, one strided slice per digit and stretch of lines of
  equal length, not one join step per line. In a file in another edge
  order most lines are runs of one line with no twin, each read as one
  edge.

``write_text`` writes any text given in pieces through the file's text
buffer, so a streamed DIMACS or JSON file is never held whole in memory.

Both readers accept at most ``MAX_VERTICES`` vertices, and any text either
gives a graph or raises ``GraphStructureError``.
"""

from __future__ import annotations

import os
import re
import stat
from array import array
from collections.abc import Iterable, Iterator
from itertools import compress, count, islice, repeat
from operator import ne, sub

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


def write_text(path: str | os.PathLike, chunks: Iterable[str]) -> None:
    """Replace the contents of ``path`` with the concatenation of ``chunks``,
    a string or any iterable of strings, as UTF-8.

    The chunks go through the file object's own buffer, so the text is
    never held whole. The file is opened without O_TRUNC: truncating a file
    whose last contents are not yet written back makes the open wait for
    that writeback. A regular file is cut at the end of the bytes written,
    also when a chunk or a write fails, so no old tail is left behind the
    new text. Other targets, such as ``/dev/stdout`` or a FIFO, are written
    in place; the path itself is never unlinked or replaced.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        try:
            fh.writelines((chunks,) if isinstance(chunks, str) else chunks)
            fh.flush()
        finally:
            # after a failure, what the buffer still holds is written at
            # the cut when the file closes
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def dimacs_chunks(g: MultipartiteGraph) -> Iterator[str]:
    """The text of ``to_dimacs(g)`` in pieces: the two header lines, then
    one piece per vertex with higher neighbors, holding that vertex's run.

    Vertex names come from one table. A row whose higher neighbors are
    those of the row before it (as with twins) writes that row's run with
    the new head: a copy of its bytes patched where the head digits differ,
    or, where the head gains a digit or the run has few lines per stretch,
    the same name list joined again.
    """
    n = g.n_vertices
    names = [str(v + 1) for v in range(n)]
    yield "c part-sizes " + " ".join(map(str, g.part_sizes)) + "\n"
    yield f"p edge {n} {g.edge_count()}\n"
    previous, ids, text, copy, stretches = 0, [], "", None, None
    for u, row in enumerate(g.rows):
        higher = row >> (u + 1)
        if higher:
            head = names[u]
            # the same vertices as the previous row's list when the
            # previous row's higher mask is this one shifted up by one
            if higher << 1 != previous:
                ids = list(map(names.__getitem__, bit_indices(higher, u + 1)))
                copy = stretches = None
            elif stretches is None:
                # a line is ``e h v\n``: four bytes besides its two ids
                stretches = _stretches(list(map(len, ids)), 4)
                if stretches:
                    copy = _RunCopy(text.encode(), names[u - 1], stretches)
            if copy is not None and len(copy.head) == len(head):
                text = copy.patch(head).decode()
            else:
                text = f"e {head} " + f"\ne {head} ".join(ids) + "\n"
                if copy is not None:
                    copy = _RunCopy(text.encode(), head, stretches)
            yield text
        previous = higher


_PATCH_LINES = 32
"""Fewest lines per stretch at which a twin's run is patched from a copy of
the run before it rather than joined from its pieces."""


def _stretches(lengths: list[int], rest: int) -> list[tuple[int, int]]:
    """One (line count, line length less the head) per stretch of a run,
    a stretch being consecutive lines of equal length, given the length of
    each line less its head and ``rest`` more bytes. Empty where the run has
    fewer than ``_PATCH_LINES`` lines per stretch."""
    limit = len(lengths) // _PATCH_LINES
    cuts = list(islice(compress(count(1), map(ne, lengths, islice(lengths, 1, None))), limit))
    if len(cuts) == limit:
        return []
    return [
        (stop - start, lengths[start] + rest)
        for start, stop in zip([0, *cuts], [*cuts, len(lengths)])
    ]


class _RunCopy:
    """The bytes of a run of ``e h v`` lines under the head ``head``, with
    the head's place in each stretch, so that the run under the next head of
    the same length is one strided slice assignment per differing digit and
    stretch away."""

    __slots__ = ("buf", "head", "spans")

    def __init__(self, text: bytes, head: str, stretches: list[tuple[int, int]]) -> None:
        self.buf = bytearray(text)
        self.head = head
        # per stretch: its first head byte, its end, its line length, and
        # each digit repeated once per line, as a bytearray, which a slice
        # assignment takes without the copy it makes of bytes
        self.spans = []
        start = 0
        for lines, rest in stretches:
            step = rest + len(head)
            fills = {digit: bytearray(digit, "ascii") * lines for digit in "0123456789"}
            self.spans.append((start + 2, start + lines * step, step, fills))
            start += lines * step

    def patch(self, head: str) -> bytearray:
        """The buffer, rewritten to hold the run under ``head``, the name of
        the number one above the buffer's head. The digits that differ are
        the last one and those that carry, the zeros before it."""
        buf = self.buf
        for k in range(len(head.rstrip("0")) - 1, len(head)):
            digit = head[k]
            for first, end, step, fills in self.spans:
                buf[first + k : end : step] = fills[digit]
        self.head = head
        return buf


def to_dimacs(g: MultipartiteGraph) -> str:
    """DIMACS text with one ``e u v`` line per edge, u < v, 1-based."""
    return "".join(dimacs_chunks(g))


_WINDOW = 1 << 18
"""Bytes a block that is not a run may span: it ends at the first edge line
within them, or, where none is in them or it starts with an edge line that
is not a run, at the next newline after them, so that a large file never
becomes one list of millions of lines."""

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


def from_dimacs(data: bytes | str) -> MultipartiteGraph:
    """Read DIMACS edge format with a ``c part-sizes`` comment, from UTF-8
    bytes or from a string, which is encoded once on entry. Both ways pass
    surrogates, so that any string reads as text.

    The bytes are read in blocks. A run, one match of ``_RUN`` under a head
    h, is a block of its own. A run of one line that no twin follows, as in
    a file in another edge order, is one edge for the per-line parser's
    arrays. Any other run is read in one split on its line prefix ``e h ``,
    one neighbor per piece, and ``from_edges`` receives it as one group.
    Where the bytes continue with the same run under the head h + 1, a
    twin, those lines are counted but not parsed, and the new head joins the
    group. The first twin, and one whose head gains a digit, is compared
    with the pieces joined by ``e h+1 ``; each later one with a ``_RunCopy``
    of the twin before it, patched in place, unless the run has fewer than
    ``_PATCH_LINES`` lines per stretch.
    Any other block ends at the first edge line, or spans ``_WINDOW`` bytes
    when it starts with one, and is decoded and given to one per-line
    parser; so is a run with an id that the parser would refuse, so that
    each error names its line as that parser does.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    lines = _LineParser()
    groups: list[tuple[list[int], array]] = []
    pos, end_of_text = 0, len(data)
    while pos < end_of_text:
        run = _RUN.match(data, pos)
        if run:
            end = run.end()
            if end - run.end(2) <= 2 and not data.startswith(b"e %d " % (int(run[1]) + 1), end):
                # a one-line run that no twin follows is an edge; both ids
                # are checked before either is kept, and a neighbor of more
                # than ten digits, which fits no entry, is left to the parser
                u, v = int(run[1]) - 1, int(run[2]) - 1 if len(run[2]) <= 10 else -1
                if 0 <= u <= _MAX_ID and 0 <= v <= _MAX_ID:
                    lines.us.append(u)
                    lines.vs.append(v)
                    lines.lineno += 1
                    pos = end
                    continue
            # the line prefix ``e h `` opens each line of the run and occurs
            # nowhere else in it, so each piece after the first holds one
            # neighbor; a str split, join and encode beat those of bytes.
            # An id that fits no 0-based "I" entry leaves the block to the
            # line parser, which names its line
            pieces = run[0].decode().split(f"e {run[1].decode()} ")
            heads = [int(run[1]) - 1]
            try:
                array("I", heads)  # the parser's range check on the head
                neighbors = array("I", map(sub, map(int, islice(pieces, 1, None)), repeat(1)))
            except (ValueError, OverflowError):
                pass
            else:
                # a twin's run is the run under the next head: its pieces
                # joined by ``e h+1 ``, or, once a twin has matched, a copy
                # of that twin's bytes patched where the head digits differ
                copy = stretches = None
                while data.startswith(b"e %d " % (heads[-1] + 2), end):
                    twin_head = str(heads[-1] + 2)
                    patched = copy is not None and len(copy.head) == len(twin_head)
                    if patched:
                        twin = copy.patch(twin_head)
                    else:
                        twin = f"e {twin_head} ".join(pieces).encode()
                    if not data.startswith(twin, end):
                        break
                    heads.append(heads[-1] + 1)
                    end += len(twin)
                    if not patched:
                        if stretches is None:
                            # a line is ``e h v`` and its line break: three
                            # bytes besides the head and its piece
                            stretches = _stretches(list(map(len, islice(pieces, 1, None))), 3)
                        copy = _RunCopy(twin, twin_head, stretches) if stretches else None
                groups.append((heads, neighbors))
                lines.lineno += len(heads) * len(neighbors)
                pos = end
                continue
        else:
            # an edge line here is one the writer would not write, as are
            # likely the lines after it, so they are not one block each
            end = -1 if data.startswith(b"e ", pos) else data.find(b"\ne ", pos, pos + _WINDOW)
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
