"""Reading and writing graphs.

Two formats:

* a canonical JSON document (schema_version 1) holding the part sizes
  and the sorted edge list; serialization is byte-stable, so a load
  followed by a dump reproduces the input exactly;
* DIMACS edge format with a ``c part-sizes`` comment carrying the
  partition, 1-indexed as usual; the writer yields the text one vertex's
  run at a time, and the reader works on the file's bytes, takes each run
  of ``e h v`` lines under one head in one split and skips the runs of its
  twins.

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
from itertools import repeat
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

    Vertex names come from one table, and a row whose higher neighbors are
    those of the row before it (as with twins) reuses that row's name list.
    """
    n = g.n_vertices
    names = [str(v + 1) for v in range(n)]
    yield "c part-sizes " + " ".join(map(str, g.part_sizes)) + "\n"
    yield f"p edge {n} {g.edge_count()}\n"
    previous, ids = 0, []
    for u, row in enumerate(g.rows):
        higher = row >> (u + 1)
        if higher:
            # the same vertices as the previous row's list when the
            # previous row's higher mask is this one shifted up by one
            if higher << 1 != previous:
                ids = list(map(names.__getitem__, bit_indices(higher, u + 1)))
            head = f"e {u + 1} "
            yield head + ("\n" + head).join(ids) + "\n"
        previous = higher


def to_dimacs(g: MultipartiteGraph) -> str:
    """DIMACS text with one ``e u v`` line per edge, u < v, 1-based."""
    return "".join(dimacs_chunks(g))


_WINDOW = 1 << 18
"""Bytes a block that is not a run may span: it ends at the first edge line
within them, or, where none is in them or it starts with an edge line that
is not a run, at the next newline after them, so that a large file never
becomes one list of millions of lines."""

_RUN = re.compile(rb"e (\d{1,10}) \d+\r?\n(?:e \1 \d+\r?\n){0,%d}" % (MAX_VERTICES - 2))
"""One vertex's run as ``to_dimacs`` writes it: ``e h v`` lines under one
head h, at most ``MAX_VERTICES - 1`` of them. The bound keeps a match within
one run, so a long text under one head is not scanned again from every
block, which would take quadratic time; ten digits keep ``int`` on the head
far below the interpreter's digit limit."""


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
    h, is a block of its own, read in one split: its neighbors are every
    third field, and ``from_edges`` receives the run as one group. The run
    then becomes a template, kept as its text split on its line prefix
    ``e h ``. Where the bytes continue with those pieces joined by
    ``e h+1 ``, those lines are counted but not parsed: they are the
    template's edges with the new head, which joins the template's group.
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
            # the run is one block, its neighbors every third field; an id
            # that fits no 0-based "I" entry leaves the block to the line
            # parser, which names its line
            end = run.end()
            heads = [int(run[1]) - 1]
            try:
                array("I", heads)  # the parser's range check on the head
                neighbors = array("I", map(sub, map(int, run[0].split()[2::3]), repeat(1)))
            except (ValueError, OverflowError):
                pass
            else:
                groups.append((heads, neighbors))
                # ``e h `` opens each line of the run and occurs nowhere else
                # in it, so a twin's run is its pieces joined by ``e h+1 ``;
                # a str join and one encode beat joining bytes pieces
                pieces = run[0].decode().split(f"e {run[1].decode()} ")
                while data.startswith(twin := f"e {heads[-1] + 2} ".join(pieces).encode(), end):
                    heads.append(heads[-1] + 1)
                    end += len(twin)
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
