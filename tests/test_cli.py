import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpturan import cli
from mpturan.cli import MAX_TABLE_ROWS, main
from mpturan.constructions import sliced_blowup
from mpturan.errors import GraphStructureError
from mpturan.graphio import from_dimacs, graph_to_json_dict, loads_graph, to_dimacs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def assert_integers_only(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return
    if isinstance(value, float):
        raise AssertionError(f"float leaked into JSON output: {value!r}")
    if isinstance(value, list):
        for item in value:
            assert_integers_only(item)
        return
    if isinstance(value, dict):
        for k, v in value.items():
            assert isinstance(k, str)
            assert_integers_only(v)
        return
    raise AssertionError(f"unexpected JSON node: {value!r}")


def test_bounds_exact_instance_json(capsys):
    doc = run_json(capsys, "bounds", "--n", "60", "--r", "10", "--t", "3", "--format", "json")
    assert doc["status"] == "exact"
    assert doc["exact"] == 378
    assert doc["lower"] == 378
    assert doc["upper"] == 378
    assert_integers_only(doc)


def test_bounds_collapsed_sandwich(capsys):
    doc = run_json(capsys, "bounds", "--n", "1", "--r", "7", "--t", "3", "--format", "json")
    assert doc["status"] == "exact"
    assert doc["exact"] == 4


def test_bounds_text_output(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "2", "--r", "6", "--t", "3")
    assert code == 0
    assert "= 8" in out
    assert "[exact]" in out


def test_bounds_open_case_note(capsys):
    doc = run_json(capsys, "bounds", "--n", "7", "--r", "7", "--t", "3", "--format", "json")
    assert doc["status"] == "bounded"
    assert doc["lower"] == 30
    assert doc["upper"] == 32
    assert doc["notes"]


def test_bounds_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "bounds", "--n", "0", "--r", "6", "--t", "3")
    assert code == 2
    assert "error" in err


def test_construct_sliced_json(capsys):
    doc = run_json(
        capsys,
        "construct", "--method", "sliced", "--n", "10", "--r", "10", "--t", "3",
        "--format", "json",
    )
    assert doc["source"] == "sliced-blowup"
    assert doc["min_degree"] == 63
    assert sum(doc["graph"]["part_sizes"]) == 100
    assert max(doc["coloring"]) <= 2
    assert_integers_only(doc)


def test_construct_turan_text(capsys):
    code, out, _ = run(capsys, "construct", "--method", "turan", "--n", "2", "--r", "5", "--t", "3")
    assert code == 0
    assert "min degree: 6" in out


def test_construct_not_applicable_exit_code(capsys):
    code, _, err = run(
        capsys, "construct", "--method", "apex", "--n", "6", "--r", "10", "--t", "3"
    )
    assert code == 2
    assert "error" in err


def test_construct_composition_json(capsys):
    doc = run_json(
        capsys,
        "construct", "--method", "composition", "--n", "4", "--r", "2", "--t", "2",
        "--k", "2", "--format", "json",
    )
    assert doc["source"] == "block-composition"
    assert doc["max_degree"] == 3
    assert doc["graph"]["part_sizes"] == [4, 4, 4, 4]


def test_construct_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "sliced.dimacs"
    code, _, _ = run(
        capsys,
        "construct", "--method", "sliced", "--n", "10", "--r", "10", "--t", "3",
        "--format", "dimacs", "--out", str(path),
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "verify", "--in", str(path),
        "--claim", "kfree=4", "--claim", "min_degree=63", "--claim", "colorable=3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(p["verdict"] for p in doc["properties"])
    assert_integers_only(doc)


def test_construct_verify_at_full_size(tmp_path, capsys):
    # the 2600-vertex DIMACS traffic of the benchmark's certify workload
    path = tmp_path / "sliced.dimacs"
    code, _, err = run(
        capsys,
        "construct", "--method", "sliced", "--n", "200", "--r", "13", "--t", "3",
        "--format", "dimacs", "--out", str(path),
    )
    assert code == 0, err
    doc = run_json(
        capsys,
        "verify", "--in", str(path),
        "--claim", "kfree=4", "--claim", "min_degree=1660", "--claim", "colorable=3",
        "--format", "json",
    )
    assert [p["verdict"] for p in doc["properties"]] == [True] * 3
    assert doc["graph_digest"] == sliced_blowup(200, 13, 3).graph.digest()


def test_construct_and_verify_hold_a_large_file_at_most_once(tmp_path, capsys):
    """``construct`` streams the 24.7 MB DIMACS file of sliced(200, 13, 3)
    and ``verify`` reads it as bytes: traced peaks below 0.25 and 1.25 times
    the file's size, where joining the text and reading it as text peaked
    at about 2.0 times each."""
    path = tmp_path / "sliced.dimacs"
    construct = ["construct", "--method", "sliced", "--n", "200", "--r", "13", "--t", "3",
                 "--format", "dimacs", "--out", str(path)]
    verify = ["verify", "--in", str(path), "--claim", "min_degree=1660"]
    peaks = []
    for argv in (construct, verify):
        assert run(capsys, *argv)[0] == 0  # warms what a first call builds
        tracemalloc.start()
        try:
            code = main(argv)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    capsys.readouterr()
    size = path.stat().st_size
    assert peaks[0] < 0.25 * size
    assert peaks[1] < 1.25 * size
    assert path.read_bytes() == to_dimacs(sliced_blowup(200, 13, 3).graph).encode()


# (method, n, r, t) for every method over the grid of acceptance criterion 1:
# t = 3..5, t < r <= 4t, n = 1..10
_ACCEPTANCE_GRID = [
    (method, n, r, t)
    for t in (3, 4, 5)
    for r in range(t + 1, 4 * t + 1)
    for n in range(1, 11)
    for method in cli._METHODS
]


def _construct_both_ways(capsys, path, method, n, r, t, fmt):
    """Exit code, stdout, and the bytes of ``--out``, of ``construct``."""
    argv = ["construct", "--method", method, "--n", str(n), "--r", str(r), "--t", str(t),
            "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--out", str(path))[0] == code
    return code, out, path.read_bytes() if code == 0 else None


def test_construct_streams_the_bytes_of_to_dimacs(tmp_path, capsys):
    built = 0
    for method, n, r, t in _ACCEPTANCE_GRID:
        code, out, data = _construct_both_ways(
            capsys, tmp_path / "g.col", method, n, r, t, "dimacs"
        )
        if code == 0:
            g = cli._METHODS[method](argparse.Namespace(n=n, r=r, t=t, k=2)).graph
            text = to_dimacs(g)
            assert (out, data) == (text, text.encode()), (method, n, r, t)
            built += 1
    assert built > 700


def test_construct_streams_the_bytes_of_json_dumps(tmp_path, capsys):
    # the pure-Python encoder that indenting takes is slow, so the grid
    # stops at n = 3, and sliced(60, 10, 3) gives a document of several MiB
    grid = [c for c in _ACCEPTANCE_GRID if c[1] <= 3] + [("sliced", 60, 10, 3)]
    built = 0
    for method, n, r, t in grid:
        code, out, data = _construct_both_ways(
            capsys, tmp_path / "g.json", method, n, r, t, "json"
        )
        if code == 0:
            doc = json.loads(data)
            g = cli._METHODS[method](argparse.Namespace(n=n, r=r, t=t, k=2)).graph
            assert doc["graph"] == graph_to_json_dict(g)
            text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
            assert (out, data) == (text, text.encode()), (method, n, r, t)
            built += 1
    assert built > 200
    assert len(data) > 2 * 2**20


def test_verify_false_claim_exit_code(tmp_path, capsys):
    path = tmp_path / "turan.json"
    run(
        capsys,
        "construct", "--method", "turan", "--n", "1", "--r", "6", "--t", "3",
        "--format", "json", "--out", str(path),
    )
    doc = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(doc["graph"]), encoding="utf-8")
    code, out, _ = run(
        capsys, "verify", "--in", str(path), "--claim", "kfree=3", "--format", "json"
    )
    assert code == 1
    report = json.loads(out)
    (prop,) = report["properties"]
    assert prop["verdict"] is False
    assert len(prop["witness"]) == 3


def test_verify_unknown_claim_exit_code(tmp_path, capsys):
    path = tmp_path / "g.dimacs"
    run(
        capsys,
        "construct", "--method", "turan", "--n", "1", "--r", "4", "--t", "2",
        "--format", "dimacs", "--out", str(path),
    )
    code, _, err = run(capsys, "verify", "--in", str(path), "--claim", "girth=5")
    assert code == 2
    assert "girth" in err


def test_verify_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--in", "/nonexistent/g.json", "--claim", "kfree=3")
    assert code == 2
    assert "error" in err


def test_verify_composition_certificate(tmp_path, capsys):
    path = tmp_path / "comp.json"
    code, _, _ = run(
        capsys,
        "construct", "--method", "composition", "--n", "4", "--r", "2", "--t", "2",
        "--format", "json", "--out", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(doc["graph"]), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "verify", "--in", str(path),
        "--claim", "no_crossing_independent=4", "--claim", "max_degree=3",
        "--format", "json",
    )
    assert code == 0
    assert all(p["verdict"] for p in json.loads(out)["properties"])


def test_verify_many_parts(tmp_path, capsys):
    # 1,500 one-vertex parts and no edge: the clique search passes every
    # part without a stack frame per part
    path = tmp_path / "sparse.dimacs"
    path.write_text("c part-sizes " + " ".join(["1"] * 1500) + "\np edge 1500 0\n")
    code, out, err = run(
        capsys,
        "verify", "--in", str(path),
        "--claim", "kfree=2", "--claim", "no_crossing_independent=2", "--format", "json",
    )
    assert code == 1, err
    verdicts = {p["claim"]: p["verdict"] for p in json.loads(out)["properties"]}
    assert verdicts == {"kfree": True, "no_crossing_independent": False}


def test_verify_colorable_with_a_huge_palette(tmp_path, capsys):
    path = tmp_path / "g.dimacs"
    run(
        capsys,
        "construct", "--method", "turan", "--n", "2", "--r", "4", "--t", "2",
        "--format", "dimacs", "--out", str(path),
    )
    code, out, err = run(
        capsys,
        "verify", "--in", str(path), "--claim", "colorable=1000000000000", "--format", "json",
    )
    assert code == 0, err
    (prop,) = json.loads(out)["properties"]
    assert prop["verdict"] is True


def test_verify_aes_status(tmp_path, capsys):
    path = tmp_path / "dense.dimacs"
    run(
        capsys,
        "construct", "--method", "turan", "--n", "3", "--r", "6", "--t", "3",
        "--format", "dimacs", "--out", str(path),
    )
    code, out, _ = run(capsys, "verify", "--in", str(path), "--aes", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["aes"]["status"] == "confirmed"


# (graph, --aes value, exit code, status or error): t < 2 is refused before
# the graph is searched, so the sliced graph and the edgeless one agree
_SLICED_2_5_3 = ["construct", "--method", "sliced", "--n", "2", "--r", "5", "--t", "3"]
_AES_EXIT_CODES = {
    "sliced aes 3": ("sliced", "3", 0, "vacuous"),
    "sliced aes 2": ("sliced", "2", 0, "vacuous"),
    "sliced aes 1": ("sliced", "1", 2, "error: need t >= 2, got 1"),
    "sliced aes 0": ("sliced", "0", 2, "error: need t >= 2, got 0"),
    "sliced aes -1": ("sliced", "-1", 2, "error: need t >= 2, got -1"),
    "edgeless aes 2": ("edgeless", "2", 0, "vacuous"),
    "edgeless aes 1": ("edgeless", "1", 2, "error: need t >= 2, got 1"),
    "edgeless aes 0": ("edgeless", "0", 2, "error: need t >= 2, got 0"),
    "edgeless aes -1": ("edgeless", "-1", 2, "error: need t >= 2, got -1"),
}


@pytest.mark.parametrize("case", sorted(_AES_EXIT_CODES))
def test_verify_aes_exit_codes(tmp_path, capsys, case):
    graph, t, expected, status = _AES_EXIT_CODES[case]
    path = tmp_path / "g.dimacs"
    if graph == "sliced":
        assert run(capsys, *_SLICED_2_5_3, "--format", "dimacs", "--out", str(path))[0] == 0
    else:
        path.write_text("c part-sizes 1 1\np edge 2 0\n")
    code, out, err = run(capsys, "verify", "--in", str(path), "--aes", t, "--format", "json")
    assert code == expected
    if expected == 0:
        assert json.loads(out)["aes"] == {"t": int(t), "status": status}
    else:
        assert (out, err) == ("", status + "\n")


def test_verify_refuses_a_bad_aes_before_any_claim_search(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.dimacs"
    assert run(capsys, *_SLICED_2_5_3, "--format", "dimacs", "--out", str(path))[0] == 0
    monkeypatch.setattr(cli, "certify", lambda *_: pytest.fail("a claim was searched"))
    result = run(capsys, "verify", "--in", str(path), "--claim", "kfree=4", "--aes", "1")
    assert result == (2, "", "error: need t >= 2, got 1\n")


def test_oracle_f_json(capsys):
    doc = run_json(
        capsys, "oracle", "--mode", "f", "--n", "1", "--r", "5", "--t", "3",
        "--format", "json",
    )
    assert doc["value"] == 3
    assert doc["t"] == 3
    assert sum(doc["witness"]["part_sizes"]) == 5
    assert_integers_only(doc)


def test_oracle_open_instance_smallest_size(capsys):
    code, out, _ = run(capsys, "oracle", "--mode", "f", "--n", "1", "--r", "7", "--t", "3")
    assert code == 0
    assert "= 4" in out


def test_oracle_audit(capsys):
    doc = run_json(
        capsys, "oracle", "--mode", "audit", "--n", "1", "--r", "5", "--t", "3",
        "--format", "json",
    )
    assert doc["f"] == 3
    assert doc["delta"] == 1
    assert doc["f"] + doc["delta"] == (doc["r"] - 1) * doc["n"]


def test_oracle_audit_jobs_prints_the_serial_bytes(capsys):
    argv = ["oracle", "--mode", "audit", "--n", "2", "--r", "5", "--t", "3", "--format", "json"]
    serial = run(capsys, *argv)
    assert serial[0] == 0
    assert run(capsys, *argv, "--jobs", "2") == serial


def test_oracle_audit_jobs_over_the_cap():
    # a fresh process, so that the pool's workers write to the stderr read here
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mpturan.cli", "oracle", "--mode", "audit",
         "--n", "2", "--r", "6", "--t", "3", "--jobs", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: ") and "cap" in proc.stderr
    assert proc.stderr.count("\n") == 1


def _construct_to(stdout):
    """Run ``construct`` of a 1.1 MB DIMACS file in a fresh process with
    ``stdout`` as its standard output."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "mpturan.cli", "construct", "--method", "sliced",
         "--n", "60", "--r", "10", "--t", "3", "--format", "dimacs"],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
    )


def test_construct_to_a_closed_pipe_exits_2_with_one_line():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _construct_to(write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_construct_to_a_full_device_exits_2_with_one_line():
    with open("/dev/full", "w") as full:
        proc = _construct_to(full)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: No space left on device\n"


def test_verify_refuses_a_file_one_byte_over_the_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.col"
    path.write_text(to_dimacs(sliced_blowup(3, 5, 3).graph))
    size = path.stat().st_size
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size)
    assert run(capsys, "verify", "--in", str(path), "--claim", "kfree=4")[0] == 0
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size - 1)
    # the size refuses the file before any of it is parsed
    monkeypatch.setattr(cli, "from_dimacs", None)
    code, out, err = run(capsys, "verify", "--in", str(path), "--claim", "kfree=4")
    assert (code, out) == (2, "")
    assert err == f"error: {path} is longer than the limit of {size - 1} bytes\n"


def _verify_dev_zero_in_bounded_memory(cap=None):
    """``verify --in /dev/zero`` in a fresh process limited to 128 MiB of
    address space, so that an unbounded read fails fast; ``cap`` replaces
    ``MAX_INPUT_BYTES`` there."""
    probe = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))\n"
        "from mpturan import cli\n"
        f"cli.MAX_INPUT_BYTES = {cap} or cli.MAX_INPUT_BYTES\n"
        "sys.exit(cli.main(['verify', '--in', '/dev/zero', '--claim', 'kfree=3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )


_NEEDS_DEV_ZERO = pytest.mark.skipif(
    not os.path.exists("/dev/zero") or sys.platform != "linux", reason="needs Linux /dev/zero"
)


@_NEEDS_DEV_ZERO
def test_verify_refuses_an_endless_device_at_the_cap():
    proc = _verify_dev_zero_in_bounded_memory(cap=8 << 20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: /dev/zero is longer than the limit of {8 << 20} bytes\n"


@_NEEDS_DEV_ZERO
def test_verify_of_an_endless_device_without_the_memory_for_the_cap_exits_2():
    # the cap is 2 GiB, more than this process may hold: exit 2, no traceback
    proc = _verify_dev_zero_in_bounded_memory()
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: cannot read /dev/zero: not enough memory\n"


def test_oracle_search_deeper_than_the_recursion_limit(capsys):
    # 990 cross pairs, one search frame each
    limit = sys.getrecursionlimit()
    doc = run_json(
        capsys, "oracle", "--mode", "f", "--n", "1", "--r", "45", "--t", "44",
        "--cap", "45", "--format", "json",
    )
    assert doc["value"] == 43
    assert sys.getrecursionlimit() == limit


def test_oracle_cap_exit_code(capsys):
    code, _, err = run(capsys, "oracle", "--mode", "f", "--n", "2", "--r", "6", "--t", "3")
    assert code == 3
    assert "cap" in err.lower()


def test_oracle_jobs_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("MPTURAN_JOBS", "2")
    doc = run_json(
        capsys, "oracle", "--mode", "f", "--n", "1", "--r", "5", "--t", "3",
        "--format", "json",
    )
    assert doc["value"] == 3
    monkeypatch.setenv("MPTURAN_JOBS", "bogus")
    code, _, _ = run(capsys, "oracle", "--mode", "f", "--n", "1", "--r", "5", "--t", "3")
    assert code == 2


def test_table_default_range(capsys):
    doc = run_json(capsys, "table", "--n", "7", "--t", "3", "--format", "json")
    assert [row["r"] for row in doc] == list(range(4, 13))
    by_r = {row["r"]: row for row in doc}
    assert by_r[6]["exact"] == 28
    assert_integers_only(doc)


def test_table_explicit_range(capsys):
    doc = run_json(
        capsys, "table", "--n", "12", "--t", "4", "--r", "5..9", "--format", "json"
    )
    by_r = {row["r"]: row for row in doc}
    assert by_r[5]["exact"] == 40  # r = t + 1: the transversal value
    assert (by_r[6]["lower"], by_r[6]["upper"]) == (50, 54)
    assert by_r[7]["exact"] == 60
    assert by_r[8]["exact"] == 72
    assert (by_r[9]["lower"], by_r[9]["upper"]) == (76, 81)


def test_table_single_value_range(capsys):
    doc = run_json(capsys, "table", "--n", "60", "--t", "3", "--r", "10", "--format", "json")
    (row,) = doc
    assert row["exact"] == 378


def test_table_rejects_bad_range(capsys):
    code, _, _ = run(capsys, "table", "--n", "7", "--t", "3", "--r", "9..5")
    assert code == 2
    code, _, _ = run(capsys, "table", "--n", "7", "--t", "3", "--r", "wat")
    assert code == 2
    code, _, _ = run(capsys, "table", "--n", "7", "--t", "3", "--r", "2..5")
    assert code == 2


def test_table_text_output(capsys):
    code, out, _ = run(capsys, "table", "--n", "60", "--t", "3", "--r", "5..13")
    assert code == 0
    lines = out.strip().splitlines()
    assert any("378" in line and "exact" in line for line in lines)
    assert any("496" in line and "498" in line for line in lines)


_BAD_GRAPH_FILES = {
    "problem line": b"c part-sizes 1 1\np edge x 1\ne 1 2\n",
    "edge line": b"c part-sizes 1 1\np edge 2 1\ne 1 z\n",
    "part sizes": b"c part-sizes 2 x\np edge 2 0\n",
    "vertex id 0": b"c part-sizes 1 1\ne 0 1\n",
    "dimacs vertex limit": b"c part-sizes 1000000000\n",
    "not utf-8": b"c part-sizes 1 1\ne 1 2 \xff\xfe\n",
    "json true id": b'{"schema_version": 1, "part_sizes": [1, 1], "edges": [[true, 1]]}',
    "json float id": b'{"schema_version": 1, "part_sizes": [1, 1], "edges": [[0, 1.5]]}',
    "json bool part size": b'{"schema_version": 1, "part_sizes": [true, 1], "edges": []}',
    "json vertex limit": b'{"schema_version": 1, "part_sizes": [1000000000], "edges": []}',
    "json nesting": b"{" + b'"a":{' * 100000,
}


@pytest.mark.parametrize(
    "case", sorted(_BAD_GRAPH_FILES) + ["directory", "file as directory", "name too long"]
)
def test_verify_malformed_input_exit_code(tmp_path, capsys, case):
    if case == "directory":
        path = tmp_path
    elif case == "file as directory":
        (tmp_path / "g.in").write_bytes(b"")
        path = tmp_path / "g.in" / "x"
    elif case == "name too long":
        path = tmp_path / ("x" * 5000)
    else:
        path = tmp_path / "g.in"
        path.write_bytes(_BAD_GRAPH_FILES[case])
    code, out, err = run(capsys, "verify", "--in", str(path), "--claim", "kfree=3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def _text_mode_read(path):
    """The graph file reader that read text: a text-mode read, then JSON
    when the text starts with ``{`` after whitespace, else DIMACS."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphStructureError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    return loads_graph(text) if text.lstrip().startswith("{") else from_dimacs(text)


_JSON_EDGE = '{"schema_version": 1, "part_sizes": [1, 1], "edges": [[0, 1]]}'


@pytest.mark.parametrize(
    "data",
    [
        b"c part-sizes 1 1\ne 1 \xff 2\n",
        b"c part-sizes 1 1\nc caf\xc3",
        "c \u00e9\n".encode() + b"c \xed\xa0\x80\nc part-sizes 1 1\n",
        b"\xef\xbb\xbfc part-sizes 1 1\n",
        b"\xef\xbb\xbf" + _JSON_EDGE.encode(),
        "c part-sizes 1 1\r\ne 1\u00a02\r\n".encode(),
        b"c part-sizes 1 1\re 1 2\re 1 0\r",
        b"\r\n" + _JSON_EDGE.replace(", ", ",\r\n").encode(),
        _JSON_EDGE.replace(", ", ",\r\n").replace("]]", "],]").encode(),
        _JSON_EDGE.replace(", ", ",\r").replace("]]", "]] x").encode(),
        b" \t\x0b\x0c\n" + _JSON_EDGE.encode(),
        b"\x1c\x1f" + _JSON_EDGE.encode(),
        "\u2028\u3000 ".encode() + _JSON_EDGE.encode(),
        "\u00a0{".encode(),
        b"\x1c c part-sizes 1 1\n",
    ],
)
def test_verify_reads_files_as_the_text_reader_did(tmp_path, capsys, data):
    # the same graph, or exactly the same message on exit 2
    path = tmp_path / "g.in"
    path.write_bytes(data)
    try:
        g = _text_mode_read(path)
    except GraphStructureError as exc:
        code, out, err = run(capsys, "verify", "--in", str(path), "--claim", "kfree=3")
        assert (code, out, err) == (2, "", f"error: {exc}\n")
    else:
        assert cli._read_graph_file(str(path)) == g


@pytest.mark.parametrize(
    "claims",
    [[], ["--claim", "kfree"], ["--claim", "kfree=x"], ["--claim", "girth=5"]],
    ids=["none", "no value", "not int", "unknown kind"],
)
def test_verify_checks_its_claims_before_reading_the_graph(tmp_path, capsys, monkeypatch, claims):
    path = tmp_path / "g.dimacs"
    assert run(capsys, *_SLICED_2_5_3, "--format", "dimacs", "--out", str(path))[0] == 0
    monkeypatch.setattr(cli, "from_dimacs", lambda *_: pytest.fail("the graph was read"))
    code, out, err = run(capsys, "verify", "--in", str(path), *claims)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


_ORACLE = ["oracle", "--mode", "f", "--n", "1", "--r", "4", "--t", "3"]
_AUDIT = ["oracle", "--mode", "audit", "--n", "1", "--r", "4", "--t", "3"]
# each construct case builds just past graphs.MAX_VERTICES = 16384 vertices
_BAD_ARGUMENTS = {
    "oracle cap 0": (_ORACLE + ["--cap", "0"], None),
    "oracle cap -1": (_ORACLE + ["--cap", "-1"], None),
    "oracle jobs 0": (_ORACLE + ["--jobs", "0"], None),
    "oracle jobs -3": (_ORACLE + ["--jobs", "-3"], None),
    "MPTURAN_JOBS 0": (_ORACLE, "0"),
    "MPTURAN_JOBS -3": (_ORACLE, "-3"),
    "oracle audit jobs 0": (_AUDIT + ["--jobs", "0"], None),
    "audit MPTURAN_JOBS 0": (_AUDIT, "0"),
    "output is a directory": (["bounds", "--n", "3", "--r", "5", "--t", "2", "--out", "."], None),
    "construct turan": (["construct", "--method", "turan", "--n", "8193", "--r", "2", "--t", "2"], None),
    "construct sliced": (["construct", "--method", "sliced", "--n", "1639", "--r", "10", "--t", "3"], None),
    "construct apex": (["construct", "--method", "apex", "--n", "1171", "--r", "14", "--t", "6"], None),
    "construct composition": (
        ["construct", "--method", "composition", "--n", "2731", "--r", "3", "--t", "2"], None
    ),
    # k, r and n multiply to 6,000 digits, too long for Python to print
    "construct composition of 2,000-digit arguments": (
        ["construct", "--method", "composition", "--n", "9" * 2000, "--r", "9" * 2000,
         "--t", "2", "--k", "9" * 2000], None
    ),
    "composition t 1": (["construct", "--method", "composition", "--n", "5", "--r", "3", "--t", "1"], None),
    "composition t 0": (["construct", "--method", "composition", "--n", "5", "--r", "2", "--t", "0"], None),
    "composition k 0": (
        ["construct", "--method", "composition", "--n", "5", "--r", "2", "--t", "2", "--k", "0"], None
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_bad_arguments_exit_code(capsys, monkeypatch, case):
    argv, env_jobs = _BAD_ARGUMENTS[case]
    if env_jobs is not None:
        monkeypatch.setenv("MPTURAN_JOBS", env_jobs)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


_TABLE = ["table", "--n", "3", "--t", "3"]
_ORACLE_F = ["oracle", "--mode", "f", "--n", "2", "--t", "3"]
_HUGE = "9" * 4299
# (argv, exit code): bad instances, malformed or oversized ranges, and
# oracle instances over the vertex cap
_EXIT_CODES = {
    "bounds n 0": (["bounds", "--n", "0", "--r", "6", "--t", "3"], 2),
    "bounds n -1": (["bounds", "--n", "-1", "--r", "6", "--t", "3"], 2),
    "bounds t 1": (["bounds", "--n", "3", "--r", "6", "--t", "1"], 2),
    "bounds r = t": (["bounds", "--n", "3", "--r", "3", "--t", "3"], 2),
    "bounds r < t": (["bounds", "--n", "3", "--r", "2", "--t", "3"], 2),
    "table n 0": (["table", "--n", "0", "--t", "3"], 2),
    "table t 1": (["table", "--n", "3", "--t", "1"], 2),
    "table t 0": (["table", "--n", "3", "--t", "0"], 2),
    "table r = t": (_TABLE + ["--r", "3..5"], 2),
    "table r < t": (_TABLE + ["--r", "2"], 2),
    "table range without end": (_TABLE + ["--r", "5.."], 2),
    "table range of dots": (_TABLE + ["--r", ".."], 2),
    "table range empty string": (_TABLE + ["--r", ""], 2),
    "table range not a number": (_TABLE + ["--r", "five"], 2),
    "table range reversed": (_TABLE + ["--r", "9..5"], 2),
    "table row limit": (_TABLE + ["--r", f"4..{MAX_TABLE_ROWS + 4}"], 2),
    "table default range over the row limit": (["table", "--n", "3", "--t", "5000"], 2),
    "oracle n 0": (["oracle", "--mode", "f", "--n", "0", "--r", "3", "--t", "2"], 2),
    "oracle r 1": (["oracle", "--mode", "delta", "--n", "1", "--r", "1", "--t", "2"], 2),
    "oracle t 0": (["oracle", "--mode", "audit", "--n", "1", "--r", "3", "--t", "0"], 2),
    "oracle f over the cap": (_ORACLE_F + ["--r", "6"], 3),
    "oracle delta over the cap": (
        ["oracle", "--mode", "delta", "--n", "1", "--r", "11", "--t", "3"], 3
    ),
    "oracle audit over the cap": (
        ["oracle", "--mode", "audit", "--n", "2", "--r", "6", "--t", "3"], 3
    ),
    "oracle f over a lowered cap": (_ORACLE_F + ["--r", "3", "--cap", "5"], 3),
    # Python prints no int of more than 4,300 digits; each of these would
    # print a product of n and another argument
    "bounds n of 4,299 digits": (["bounds", "--n", _HUGE, "--r", "100", "--t", "3"], 2),
    "bounds json n of 4,299 digits": (
        ["bounds", "--n", _HUGE, "--r", "100", "--t", "3", "--format", "json"], 2
    ),
    "table n of 4,299 digits": (["table", "--n", _HUGE, "--t", "3", "--r", "20..20"], 2),
    "oracle delta n of 4,299 digits": (
        ["oracle", "--mode", "delta", "--n", _HUGE, "--r", "200", "--t", "200", "--cap", "12"], 2
    ),
    "table range end of 2,001 digits": (_TABLE + ["--r", "9" * 2001], 2),
}


@pytest.mark.parametrize("case", sorted(_EXIT_CODES))
def test_bounds_table_oracle_exit_codes(capsys, case):
    argv, expected = _EXIT_CODES[case]
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "9" * 2000, "--r", "100", "--t", "3", "--format", "json"],
        ["table", "--n", "9" * 2000, "--t", "3", "--r", "9" * 2000],
    ],
    ids=["bounds", "table"],
)
def test_integers_of_2000_digits_are_accepted(capsys, argv):
    assert run(capsys, *argv)[0] == 0


def test_table_at_the_row_limit(capsys):
    code, out, _ = run(capsys, "table", "--n", "1", "--t", "2", "--r", f"3..{MAX_TABLE_ROWS + 2}")
    assert code == 0
    assert len(out.splitlines()) == MAX_TABLE_ROWS + 2


def test_table_refuses_a_long_range_before_evaluating(capsys, monkeypatch):
    monkeypatch.setattr(cli, "best_known_bounds", lambda *_: pytest.fail("row evaluated"))
    code, out, err = run(capsys, *_TABLE, "--r", f"4..{10**12}")
    assert (code, out) == (2, "")
    assert "limit" in err


def test_construct_output_bytes_are_pinned(capsys):
    """One hash over (exit code, stdout, stderr) of 1,800 ``construct``
    calls: every method, t 1..5, r 1..3t+1, n in {0, 1, 3} and every
    format, errors included. It guards refactors of the builders and the
    graph type against any change in what ``construct`` prints."""
    h = hashlib.sha256()
    calls = 0
    for method in ("turan", "sliced", "apex", "composition"):
        for t in range(1, 6):
            for r in range(1, 3 * t + 2):
                for n in (0, 1, 3):
                    for fmt in ("text", "json", "dimacs"):
                        result = run(
                            capsys, "construct", "--method", method, "--n", str(n),
                            "--r", str(r), "--t", str(t), "--format", fmt,
                        )
                        h.update(repr(result).encode())
                        calls += 1
    assert calls == 1800
    assert h.hexdigest() == "b6ed2c634c1932422c16fb6c83654a5756a15fcba76e0aa3a144779b4afc317c"


# (method, n, r, t) and the graph's clique number, chromatic number,
# largest crossing independent set, minimum and maximum degree
_VERIFY_PIN_GRAPHS = (
    ("turan", 3, 5, 3, (3, 3, 2, 9, 12)),
    ("sliced", 3, 7, 3, (3, 3, 3, 12, 18)),
    ("apex", 2, 7, 5, (4, 4, 2, 10, 12)),
    ("composition", 5, 3, 3, (4, 4, 4, 3, 8)),
)


def test_verify_output_bytes_are_pinned(tmp_path, capsys):
    """One hash over (exit code, stdout, stderr) of 85 calls: ``construct
    --format dimacs`` for each method, then ``verify`` on each file with a
    true and a false value of every claim kind in text and JSON, and one
    ``--aes`` call. It guards the verifier against any change in the
    verdicts and witnesses that ``verify`` prints."""
    h = hashlib.sha256()
    calls = 0
    for method, n, r, t, (clique, chromatic, crossing, low, high) in _VERIFY_PIN_GRAPHS:
        path = tmp_path / f"{method}.dimacs"
        result = run(
            capsys, "construct", "--method", method, "--n", str(n), "--r", str(r),
            "--t", str(t), "--format", "dimacs", "--out", str(path),
        )
        h.update(repr(result).encode())
        calls += 1
        claims = (
            ("kfree", clique + 1), ("kfree", clique),
            ("min_degree", low), ("min_degree", low + 1),
            ("max_degree", high), ("max_degree", high - 1),
            ("colorable", chromatic), ("colorable", chromatic - 1),
            ("no_crossing_independent", crossing + 1), ("no_crossing_independent", crossing),
        )
        for kind, value in claims:
            for fmt in ("text", "json"):
                result = run(
                    capsys, "verify", "--in", str(path), "--claim", f"{kind}={value}",
                    "--format", fmt,
                )
                assert result[0] == (0 if (kind, value) in claims[::2] else 1)
                h.update(repr(result).encode())
                calls += 1
    result = run(capsys, "verify", "--in", str(tmp_path / "turan.dimacs"), "--aes", "3")
    h.update(repr(result).encode())
    calls += 1
    assert calls == 85
    assert h.hexdigest() == "09ee6e541f8c909b96e2b92d7f61ce0ef6db2afdd69279e04592b04a04bc9e19"


def _help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_reused_parser_keeps_calls_independent(tmp_path, capsys):
    path = tmp_path / "g.dimacs"
    run(
        capsys, "construct", "--method", "turan", "--n", "1", "--r", "6", "--t", "3",
        "--format", "dimacs", "--out", str(path),
    )
    # an appended --claim list does not carry over to the next call
    doc = run_json(capsys, "verify", "--in", str(path), "--claim", "kfree=4", "--format", "json")
    assert [p["claim"] for p in doc["properties"]] == ["kfree"]
    doc = run_json(
        capsys, "verify", "--in", str(path), "--claim", "colorable=3", "--format", "json"
    )
    assert [p["claim"] for p in doc["properties"]] == ["colorable"]

    # a refusal by argparse leaves nothing behind for the next call
    argv = ("bounds", "--n", "60", "--r", "10", "--t", "3", "--format", "json")
    cli._build_parser.cache_clear()
    first = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "x", "--r", "10", "--t", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *argv) == first

    # help text is the same on the call that builds the parser and after
    for command in ((), ("bounds",), ("construct",), ("verify",), ("oracle",), ("table",)):
        cli._build_parser.cache_clear()
        first = _help_text(capsys, *command)
        assert _help_text(capsys, *command) == first
        assert _help_text(capsys, *command) == first


def _count_parsers(monkeypatch, calls: int) -> int:
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(calls):
            assert main(["bounds", "--n", "1", "--r", "7", "--t", "3"]) == 0
    return len(built)


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    once = _count_parsers(monkeypatch, 1)
    assert once == 6  # the top-level parser and one per subcommand
    assert _count_parsers(monkeypatch, 50) == once


def test_importing_the_cli_builds_no_parser():
    # a parser built at import would add to every process's start-up
    probe = (
        "import argparse\n"
        "built = []\n"
        "real_init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    real_init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import mpturan.cli\n"
        "print(len(built))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_importing_the_cli_loads_no_pool_and_no_dataclasses():
    # only a pooled audit needs the process pool, which imports it when it
    # opens one; the records are NamedTuples, so nothing loads dataclasses
    # and the inspect, ast and dis modules behind it
    probe = (
        "import sys\n"
        "import mpturan.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing', 'dataclasses',"
        " 'inspect') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# -- the argv parse and the JSON writer ------------------------------------

_OPTION_WORDS = sorted({
    option
    for parser in cli._build_parser().commands.values()
    for action in parser._actions
    for option in action.option_strings
})
_ARGV_WORDS = st.one_of(
    st.sampled_from(sorted(cli._build_parser().commands) + ["bound", "tables", "help"]),
    st.sampled_from(_OPTION_WORDS),
    st.sampled_from(_OPTION_WORDS).map(lambda o: o[:3] if o.startswith("--") else o),
    st.tuples(st.sampled_from(_OPTION_WORDS), st.sampled_from(["5", "x", "json", ""])).map(
        "=".join
    ),
    st.sampled_from(["-h", "--help", "--he", "-x", "--bogus", "--", "-", "--n=-3", "--r2"]),
    st.sampled_from(["0", "3", "7", "-1", "60", "5..13", "x", "json", "text", "dimacs",
                     "turan", "sliced", "audit", "f", "kfree=4", "g.col", "", " ", "é"]),
)


# a complete call of each command, for argv that parse without an error
_CALLS = {
    "bounds": ["--n", "5", "--r", "7", "--t", "3"],
    "construct": ["--method", "turan", "--n", "2", "--r", "4", "--t", "3"],
    "verify": ["--in", "g.col"],
    "oracle": ["--mode", "f", "--n", "1", "--r", "4", "--t", "3"],
    "table": ["--n", "5", "--t", "3"],
}


@st.composite
def _argv(draw):
    words = draw(st.lists(_ARGV_WORDS, max_size=8))
    if draw(st.booleans()):
        return words
    command = draw(st.sampled_from(sorted(_CALLS)))
    call = _CALLS[command]
    call = call[: draw(st.one_of(st.just(len(call)), st.integers(0, len(call))))]
    at = draw(st.integers(0, len(call)))
    return [command, *call[:at], *words[: draw(st.integers(0, 3))], *call[at:]]


def _parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(_argv())
def test_main_parses_as_the_top_level_parser_does(argv):
    # a command's parser takes the rest of argv at once; its namespace, or
    # the exit code and the text on both streams, must be the top-level
    # parser's
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(
        cli._build_parser().parse_args, argv
    )


def test_main_reads_sys_argv(monkeypatch, capsys):
    argv = ["mpturan", "bounds", "--n", "5", "--r", "7", "--t", "3", "--bogus"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("mpturan: error: unrecognized arguments: --bogus\n")


# the same int in spellings ``int`` accepts: signs, spaces, underscores and
# non-ASCII decimal digits
_INT_SPELLINGS = st.tuples(
    st.integers(0, 10**6),
    st.sampled_from([
        str,
        "+{}".format,
        " {} ".format,
        " -{}".format,
        "{:_}".format,
        lambda i: str(i).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
        lambda i: str(i).translate(str.maketrans("0123456789", "０１２３４５６７８９")),
    ]),
).map(lambda pair: pair[1](pair[0]))
_STR_VALUES = st.sampled_from(["g.col", "kfree=4", "5..13", "8", "é", " x", "a b", "="])


def _value_of(action):
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    return _INT_SPELLINGS if action.type is int else _STR_VALUES


@st.composite
def _plain_argv(draw):
    # every command, its required options once or more, any others, in any
    # order; each value one the option accepts
    name = draw(st.sampled_from(sorted(cli._build_parser().commands)))
    actions = [a for a in cli._build_parser().commands[name]._actions if a.nargs is None]
    chosen = [a for a in actions if a.required or draw(st.booleans())]
    chosen += draw(st.lists(st.sampled_from(actions), max_size=4))
    pairs = [
        (draw(st.sampled_from(action.option_strings)), draw(_value_of(action)))
        for action in draw(st.permutations(chosen))
    ]
    return [name, *chain.from_iterable(pairs)]


@settings(max_examples=500, deadline=None)
@given(_plain_argv())
def test_plain_command_lines_read_as_the_command_parser_does(argv):
    # the option table gives argparse's namespace, key order included
    command = cli._build_parser().commands[argv[0]]
    want, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    assert extras == []
    got = cli._parse_plain(command, argv)
    assert got is not None
    assert list(vars(got).items()) == list(vars(want).items())
    assert list(vars(cli._parse(argv)).items()) == list(vars(want).items())


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "5", "--r", "7", "--t", "3", "--format", "xml"],
        ["construct", "--method", "bogus", "--n", "2", "--r", "4", "--t", "3"],
        ["oracle", "--mode", "g", "--n", "1", "--r", "4", "--t", "3"],
        ["oracle", "--mode", "f", "--n", "1", "--r", "4", "--t", "3", "--mode", "x"],
        ["bounds", "--n", "5", "--r", "7", "--t", "x"],
        ["bounds", "--n", "5", "--r", "7", "--t", ""],
        ["bounds", "--n", "5", "--r", "7", "--t", "3", "--out", ""],
        ["bounds", "--n", "5", "--r", "7", "--t", "-3"],
        ["bounds", "--n", "5", "--r", "7"],
        ["bounds", "--n", "5", "--r", "7", "--t"],
        ["bounds", "--n", "5", "--r", "7", "--t", "3", "--k", "2"],
        ["table", "--n", "5", "--t", "3", "--r", "-1"],
        ["verify", "--in", "g.col", "--claim", "-x"],
    ],
)
def test_lines_the_table_does_not_read_go_to_argparse(argv):
    # a value refused by its type or choices, an empty value or one that
    # starts with "-", a missing value, a missing or unknown option: argparse
    # reads each one, and its namespace, or its exit code and text, is what
    # the CLI gives
    assert cli._parse_plain(cli._build_parser().commands[argv[0]], argv) is None
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(
        cli._build_parser().parse_args, argv
    )


def test_plain_calls_never_reach_argparse(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain command line")

    cli._build_parser()
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    path = str(tmp_path / "g.col")
    calls = [
        ["bounds", "--n", "5", "--r", "7", "--t", "3", "--format", "json"],
        ["construct", "--method", "turan", "--n", "1", "--r", "6", "--t", "3",
         "--format", "dimacs", "--out", path],
        ["verify", "--in", path, "--claim", "kfree=4", "--claim", "colorable=3"],
        ["oracle", "--mode", "audit", "--n", "1", "--r", "4", "--t", "3", "--cap", "12"],
        ["table", "--n", "5", "--t", "3", "--r", "4..6"],
    ]
    assert sorted(call[0] for call in calls) == sorted(cli._build_parser().commands)
    for call in calls:
        assert run(capsys, *call)[0] == 0, call


@pytest.mark.parametrize("plain", [True, False], ids=["plain", "equals"])
def test_oversized_ints_are_named_in_namespace_order(capsys, plain):
    # main reports the first oversized int of the namespace, whichever path
    # read the command line
    digits = "9" * (cli.MAX_INT_DIGITS + 1)
    n = ["--n", digits] if plain else [f"--n={digits}"]
    code, out, err = run(capsys, "bounds", *n, "--r", digits, "--t", "3")
    assert code == 2
    assert out == ""
    assert err == f"error: --n has more than {cli.MAX_INT_DIGITS} digits\n"


_JSON_TEXT = st.one_of(
    st.text(),
    st.lists(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "é", " ", "\U0001f600", "a"])
    ).map("".join),
)
_JSON_INTS = st.one_of(
    st.integers(), st.integers(2**64, 2**300), st.integers(-(2**300), -(2**64))
)
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), _JSON_INTS, _JSON_TEXT)
_JSON_DOCS = st.recursive(
    st.one_of(
        _JSON_SCALARS,
        st.lists(_JSON_INTS),
        st.integers(0, 3).flatmap(
            lambda k: st.lists(st.lists(_JSON_INTS, min_size=k, max_size=k))
        ),
        st.lists(st.lists(_JSON_INTS, max_size=3)),
        st.lists(st.one_of(st.booleans(), _JSON_INTS)),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_JSON_TEXT, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(_JSON_DOCS)
def test_json_writer_matches_json_dumps(doc):
    want = json.dumps(doc, sort_keys=True, indent=2)
    assert "".join(cli._json_chunks(doc)) == want
    # two items per piece, so that int lists end on and across batch edges
    batch, cli._INT_BATCH = cli._INT_BATCH, 2
    try:
        assert "".join(cli._json_chunks(doc)) == want
    finally:
        cli._INT_BATCH = batch


def test_json_writer_refuses_floats():
    # the CLI prints integers only
    for doc in (1.5, {"a": [1, 2.0]}, [[1, 2.0]], [[0.5]]):
        with pytest.raises(TypeError):
            "".join(cli._json_chunks(doc))


def test_construct_json_streams_in_bounded_pieces(monkeypatch):
    sizes = []
    monkeypatch.setattr(cli, "_stream", lambda chunks, out: sizes.extend(map(len, chunks)))
    assert main(["construct", "--method", "sliced", "--n", "60", "--r", "10", "--t", "3",
                 "--format", "json"]) == 0
    assert sum(sizes) > 4 * 2**20
    assert max(sizes) <= 2**18
