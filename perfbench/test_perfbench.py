"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "certify": ["certify.small_p50_s", "certify.large_p50_s", "certify.failed_ratio"],
    "oracle": ["oracle.small_p50_ms", "oracle.cap_pass_s", "oracle.jobs2_pass_s", "oracle.failed_ratio"],
    "sweep": ["sweep.op_p50_ms", "sweep.op_p99_ms", "sweep.failed_ratio"],
}
COUNTS = ("oracle.clique_probes", "oracle.cover_probes", "graphs.digest.calls", "oracle.pools_opened")


def bench(workload, trace, seed=7):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def declared(kind):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_metric(workload):
    report, result = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[0] for line in report}
    assert set(END_TO_END[workload]) | {"setup_s", "peak_rss_mb"} <= printed
    assert all("(n=" in line for line in report if line.split()[0] in printed - {"env"}
               and not line.startswith("failed"))
    assert result["correct"] is True


def test_json_leg_counts_as_failed():
    report, result = bench("certify", trace=0)
    assert result["failed"] >= 1
    assert any("unsupported schema_version None" in line for line in report)


def test_traced_counts_repeat_exactly():
    first = bench("oracle", trace=1)[1]
    second = bench("oracle", trace=1)[1]
    assert set(first["metrics"]) == declared("per_layer")
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["oracle.clique_probes"]["value"] > 0
    assert first["metrics"]["oracle.pools_opened"]["value"] > 0


def test_traced_certify_counts_digests():
    metrics = bench("certify", trace=1)[1]["metrics"]
    # large pass plus two DIMACS light ops, two digests per verify
    assert metrics["graphs.digest.calls"]["value"] == 6
    assert metrics["verifier.find_coloring.calls"]["value"] == 2
    assert metrics["graphio.read_bytes"]["value"] > 0


def test_wrong_expected_value_counts_as_failed(tmp_path):
    import mpturan.cli

    plan = workloads.build_plan("oracle", 7, tmp_path, smoke=True)
    op = plan.light[0]
    runner = run.Runner(mpturan.cli.main)
    assert runner.run(op) is not None
    op.expect["f"] += 1
    assert runner.run(op) is None
    assert (runner.attempted, runner.failed, runner.wrong) == (2, 1, 1)
    assert (runner.ops_attempted, runner.ops_failed) == (1, 1)


def test_result_counts_distinct_ops(tmp_path):
    # the JSON leg is one distinct op, however many cycles a run fits
    _, result = bench("certify", trace=0)
    plan = workloads.build_plan("certify", 7, tmp_path, smoke=True)
    assert result["attempted"] == len(plan.light) + sum(len(p.ops) for p in plan.passes)
    assert result["failed"] == 1


def test_same_seed_same_inputs(tmp_path):
    def argvs(seed):
        plan = workloads.build_plan("sweep", seed, tmp_path)
        return [c.argv for op in plan.light for c in op.calls]

    assert argvs(3) == argvs(3)
    assert argvs(3) != argvs(4)


def test_closed_forms_match_the_package():
    from mpturan.bounds import apex_value, best_known_bounds, sliced_value

    assert workloads.blowup_min_degree("sliced", 60, 10, 3) == sliced_value(60, 10, 3) == 378
    assert workloads.blowup_min_degree("apex", 40, 14, 6) == apex_value(40, 14, 6) == 452
    assert workloads.composition_max_degree(60, 5, 3) == 156
    for (n, r, s), f in workloads.SMALL_F.items():
        if s - 1 >= 2 and r > s - 1:
            report = best_known_bounds(n, r, s - 1)
            assert report.best_lower <= f <= report.best_upper


def test_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
