"""Reading and writing graphs.

Two formats:

* a canonical JSON document (schema_version 1) holding the part sizes
  and the sorted edge list; serialization is byte-stable, so a load
  followed by a dump reproduces the input exactly, and digests of the
  serialized form are meaningful;
* DIMACS edge format with a ``c part-sizes`` comment carrying the
  partition, 1-indexed as usual.

Both readers accept at most ``MAX_VERTICES`` vertices, and any text either
gives a graph or raises ``GraphStructureError``.
"""

from __future__ import annotations

import json
import os
import stat
from array import array
from pathlib import Path
from typing import Iterator

from .errors import GraphStructureError
from .graphs import MultipartiteGraph, bit_indices, from_edges

__all__ = [
    "SCHEMA_VERSION",
    "graph_to_json_dict",
    "graph_from_json_dict",
    "dumps_graph",
    "loads_graph",
    "write_graph",
    "read_graph",
    "write_text",
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
    return json.dumps(graph_to_json_dict(g), sort_keys=True, separators=(",", ":"))


def loads_graph(text: str) -> MultipartiteGraph:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers past the int-to-str digit limit
        raise GraphStructureError(f"not valid JSON: {exc}") from exc
    return graph_from_json_dict(doc)


def write_text(path: str | Path, text: str) -> None:
    """Replace the contents of ``path`` with ``text`` as UTF-8.

    The file is opened without O_TRUNC: truncating a file whose last
    contents are not yet written back makes the open wait for that
    writeback. Every byte is written first, and a regular file is then cut
    to the new length. Other targets, such as ``/dev/stdout`` or a FIFO,
    are written in place; the path itself is never unlinked or replaced.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.flush()
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            os.ftruncate(fh.fileno(), len(data))


def write_graph(g: MultipartiteGraph, path: str | Path) -> None:
    write_text(path, dumps_graph(g) + "\n")


def read_graph(path: str | Path) -> MultipartiteGraph:
    return loads_graph(Path(path).read_text(encoding="utf-8"))


def to_dimacs(g: MultipartiteGraph) -> str:
    chunks = [
        "c part-sizes " + " ".join(map(str, g.part_sizes)) + "\n",
        f"p edge {g.n_vertices} {g.edge_count()}\n",
    ]
    for u, row in enumerate(g.rows):
        higher = row >> (u + 1)
        if higher:
            head = f"e {u + 1} "
            ids = map(str, bit_indices(higher, u + 2))
            chunks.append(head + ("\n" + head).join(ids) + "\n")
    return "".join(chunks)


def _blocks(text: str, size: int = 1 << 16) -> Iterator[str]:
    """Consecutive pieces of ``text`` of about ``size`` characters, each
    ending at a newline (or at the end), so that no piece splits a line
    and a large file never becomes one list of millions of lines."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + size)
        end = len(text) if end < 0 else end + 1
        yield text[start:end]
        start = end


def _malformed(lineno: int, what: str, raw: str) -> GraphStructureError:
    return GraphStructureError(f"line {lineno}: malformed {what}: {raw.strip()[:60]!r}")


def from_dimacs(text: str) -> MultipartiteGraph:
    part_sizes: list[int] | None = None
    declared: tuple[int, int] | None = None
    # 0-based endpoints; unsigned, so a vertex id below 1 cannot be stored
    us = array("I")
    vs = array("I")
    add_u, add_v = us.append, vs.append
    lineno = 0
    for block in _blocks(text):
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
                        part_sizes = [int(x) for x in fields[2:]]
                    except ValueError:
                        raise _malformed(lineno, "part-sizes comment", raw) from None
            elif tag == "p":
                if len(fields) != 4 or fields[1] != "edge":
                    raise _malformed(lineno, "problem line", raw)
                try:
                    declared = (int(fields[2]), int(fields[3]))
                except ValueError:
                    raise _malformed(lineno, "problem line", raw) from None
            else:
                raise GraphStructureError(f"line {lineno}: unknown record {tag[:20]!r}")
    if part_sizes is None:
        raise GraphStructureError(
            "missing 'c part-sizes' comment; the partition cannot be recovered"
        )
    if declared is not None:
        if declared[0] != sum(part_sizes):
            raise GraphStructureError(
                f"problem line declares {declared[0]} vertices, "
                f"part sizes sum to {sum(part_sizes)}"
            )
        if declared[1] != len(us):
            raise GraphStructureError(
                f"problem line declares {declared[1]} edges, found {len(us)}"
            )
    return from_edges(part_sizes, zip(us, vs))
