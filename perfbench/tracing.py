"""Layer spans for mpturan, recorded from outside the package.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` swaps the
public functions each layer exposes for timing wrappers, in the namespace
of the module that calls them (``mpturan.cli`` calls the bounds,
construction, I/O, verifier and oracle entry points; ``mpturan.oracle``
calls its clique and cover probes; ``mpturan.graphio`` calls
``from_edges``), and ``restore`` puts the originals back. Untraced runs
never install it, so they execute the package unchanged.

Spans are kept in flat arrays (name, parent, op, start, end) so that the
hundreds of thousands of oracle probes of one run stay a few megabytes,
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

SOLVE = "oracle.solve"


class Tracer:
    """Span store plus counters, and the wrappers that feed them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter[str] = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span store ------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- wrappers --------------------------------------------------------

    def _swap(self, owner: object, attr: str, wrapper) -> None:
        real = getattr(owner, attr)
        self._undo.append((owner, attr, real))
        setattr(owner, attr, wrapper(real))

    def wrap(self, owner: object, attr: str, name: str, after=None, *, under=None) -> None:
        """Replace ``owner.attr`` by a spanned call.

        ``after(args, result)`` runs once the span has closed, to update
        counters without timing them. With ``under=(parent, other)``, a call
        whose innermost open span is not named ``parent`` is recorded as
        ``other`` instead, and ``after`` is skipped for it.
        """
        nid = self._id(name)
        parent_id, other_id = (self._id(under[0]), self._id(under[1])) if under else (-1, -1)

        def wrapper(real):
            def traced(*args, **kwargs):
                stack = self._stack
                here = nid
                if under and not (stack and self.name_id[stack[-1]] == parent_id):
                    here = other_id
                idx = self._open(here)
                try:
                    result = real(*args, **kwargs)
                finally:
                    self._close(idx)
                if after is not None and here == nid:
                    after(args, result)
                return result

            return traced

        self._swap(owner, attr, wrapper)

    def count_calls(self, owner: object, attr: str, counter: str) -> None:
        """Replace ``owner.attr`` by a call that only counts itself."""

        def wrapper(real):
            def counted(*args, **kwargs):
                self.counts[counter] += 1
                return real(*args, **kwargs)

            return counted

        self._swap(owner, attr, wrapper)

    def install(self) -> None:
        import mpturan.cli as cli
        import mpturan.graphio as graphio
        import mpturan.graphs as graphs
        import mpturan.oracle as oracle
        import mpturan.verifier as verifier

        def read_bytes(args, _result):
            self.counts["graphio.read_bytes"] += len(args[0])

        # graph_to_json_dict returns the document the CLI then dumps; its
        # size is taken as the length of that document's default dump
        def write_bytes(_args, result):
            text = result if isinstance(result, str) else json.dumps(result)
            self.counts["graphio.write_bytes"] += len(text)

        self.wrap(cli, "best_known_bounds", "bounds.best_known_bounds")
        for attr in ("turan_blowup", "sliced_blowup", "apex_blowup", "block_composition"):
            self.wrap(cli, attr, "constructions.build")
        self.wrap(cli, "default_inner_graph", "constructions.inner_graph")
        for attr in ("loads_graph", "from_dimacs"):
            self.wrap(cli, attr, "graphio.read", read_bytes)
        for attr in ("to_dimacs", "graph_to_json_dict"):
            self.wrap(cli, attr, "graphio.write", write_bytes)
        self.wrap(graphio, "from_edges", "graphs.from_edges")
        self.wrap(graphs.MultipartiteGraph, "digest", "graphs.digest")
        self.wrap(cli, "certify", "verifier.certify")
        for attr in ("find_clique", "find_coloring", "find_crossing_independent"):
            self.wrap(verifier, attr, "verifier." + attr)
        for attr in ("oracle_f", "oracle_delta"):
            self.wrap(cli, attr, SOLVE)
            self.wrap(oracle, attr, SOLVE)
        self.wrap(cli, "duality_audit", "oracle.audit")

        # A probe is a clique or cover search issued by the decision search
        # itself; the audit's final witness checks are kept apart so that
        # probe counts equal search node counts. A probe that finds nothing
        # has found a feasible completion: a hit.
        def count_hit(_args, result):
            if result is None:
                self.counts["oracle.probe_hits"] += 1

        for attr, kind in (("find_clique", "clique"), ("find_crossing_independent", "cover")):
            self.wrap(
                oracle, attr, f"oracle.probe.{kind}", count_hit,
                under=(SOLVE, "oracle.audit_check"),
            )
        self.count_calls(oracle, "MultipartiteGraph", "oracle.graph_wraps")
        self.count_calls(oracle, "ProcessPoolExecutor", "oracle.pools_opened")

    def restore(self) -> None:
        while self._undo:
            owner, attr, real = self._undo.pop()
            setattr(owner, attr, real)

    # -- summaries -------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children, i.e. the part of its interval no deeper layer covers.
        """
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i] / 1e9
            row["self_s"] += (dur[i] - child[i]) / 1e9
        return out

    def per_layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics named in ``BENCHMARK.json``, as (value, unit)."""
        t = self.layer_totals()
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

        def get(name, key):
            return t.get(name, zero)[key]

        probes = get("oracle.probe.clique", "calls") + get("oracle.probe.cover", "calls")
        hits = self.counts["oracle.probe_hits"]
        return {
            "cli.self_s": (get("cli", "self_s"), "s"),
            "bounds.best_known_bounds.calls": (get("bounds.best_known_bounds", "calls"), "count"),
            "bounds.best_known_bounds.self_s": (get("bounds.best_known_bounds", "self_s"), "s"),
            "constructions.build.calls": (get("constructions.build", "calls"), "count"),
            "constructions.build.self_s": (get("constructions.build", "self_s"), "s"),
            "graphio.read_s": (get("graphio.read", "total_s"), "s"),
            "graphio.read_bytes": (self.counts["graphio.read_bytes"], "bytes"),
            "graphio.write_s": (get("graphio.write", "total_s"), "s"),
            "graphio.write_bytes": (self.counts["graphio.write_bytes"], "bytes"),
            "graphs.from_edges_s": (get("graphs.from_edges", "total_s"), "s"),
            "graphs.digest.calls": (get("graphs.digest", "calls"), "count"),
            "graphs.digest_s": (get("graphs.digest", "total_s"), "s"),
            "verifier.find_coloring.calls": (get("verifier.find_coloring", "calls"), "count"),
            "verifier.find_coloring_s": (get("verifier.find_coloring", "total_s"), "s"),
            "verifier.find_clique_s": (get("verifier.find_clique", "total_s"), "s"),
            "verifier.certify_s": (get("verifier.certify", "total_s"), "s"),
            "oracle.solve.calls": (get(SOLVE, "calls"), "count"),
            "oracle.solve_s": (get(SOLVE, "total_s"), "s"),
            "oracle.search_self_s": (get(SOLVE, "self_s"), "s"),
            "oracle.clique_probes": (get("oracle.probe.clique", "calls"), "count"),
            "oracle.cover_probes": (get("oracle.probe.cover", "calls"), "count"),
            "oracle.probe_s": (
                get("oracle.probe.clique", "total_s") + get("oracle.probe.cover", "total_s"),
                "s",
            ),
            "oracle.probe_hit_ratio": (hits / probes if probes else 0.0, "ratio"),
            "oracle.graph_wraps": (self.counts["oracle.graph_wraps"], "count"),
            "oracle.pools_opened": (self.counts["oracle.pools_opened"], "count"),
        }

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line, names resolved."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name_id[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
