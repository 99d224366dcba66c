"""The benchmark's tracer swaps package functions by name; a rename in the
package must fail here, not only in the benchmark's own suite."""

import importlib.util
from pathlib import Path

import mpturan.cli
import mpturan.graphio
import mpturan.graphs
import mpturan.oracle
import mpturan.verifier

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

OWNERS = (
    mpturan.cli,
    mpturan.graphio,
    mpturan.oracle,
    mpturan.verifier,
    mpturan.graphs.MultipartiteGraph,
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_swap():
    tracer = _load_tracing().Tracer()
    before = [dict(vars(owner)) for owner in OWNERS]
    try:
        tracer.install()
        swapped = {(id(owner), attr) for owner, attr, _ in tracer._undo}
        for owner, attr, real in tracer._undo:
            assert callable(real), attr
            assert getattr(owner, attr) is not real, attr
        changed = {
            (id(owner), attr)
            for owner, old in zip(OWNERS, before)
            for attr, value in vars(owner).items()
            if old.get(attr) is not value
        }
        assert changed == swapped
        assert {attr for _, attr, _ in tracer._undo} >= {
            "find_clique",
            "find_crossing_independent",
            "MultipartiteGraph",
            "ProcessPoolExecutor",
            "default_inner_graph",
            "block_composition",
        }
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in OWNERS] == before


def test_tracer_sees_each_layer_through_the_cli(tmp_path, capsys):
    tracer = _load_tracing().Tracer()
    path = tmp_path / "g.dimacs"
    try:
        tracer.install()
        construct = ["construct", "--method", "sliced", "--n", "2", "--r", "5", "--t", "3"]
        assert mpturan.cli.main([*construct, "--format", "dimacs", "--out", str(path)]) == 0
        assert mpturan.cli.main(["verify", "--in", str(path), "--claim", "colorable=3"]) == 0
        assert mpturan.cli.main(["oracle", "--mode", "audit", "--n", "1", "--r", "4", "--t", "2"]) == 0
        builds = tracer.layer_totals()["constructions.build"]["calls"]
        composition = ["construct", "--method", "composition", "--n", "6", "--r", "5", "--t", "3"]
        assert mpturan.cli.main(composition) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    totals = tracer.layer_totals()
    for name in ("constructions.build", "verifier.find_coloring", "oracle.probe.clique"):
        assert totals[name]["calls"] > 0, name
    # the composition is built through cli.block_composition, its inner
    # graph through cli.default_inner_graph
    assert totals["constructions.build"]["calls"] == builds + 1
    assert totals["constructions.inner_graph"]["calls"] == 1
