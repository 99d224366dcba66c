"""Benchmark of the mpturan command line, one workload per process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Runs the workload's ops in this process through ``mpturan.cli.main``, the
way the ``mpturan`` command runs them, with files in a scratch directory
under ``.perfbench/``. Every output is checked. The human-readable report
goes to standard output, followed by one JSON line with the metrics named
in ``BENCHMARK.json``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The full record, with the
environment, every sample count and every failure reason, is written to
``.perfbench/<workload>-seed<seed>-trace<0|1>.json``; a traced run also
writes its spans next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 11
REFERENCE_EVERY_S = 0.25
# setup_s is reported at this reference speed: the median reference_loop
# time on the 2-vCPU Xeon VM (2.0 GHz, Python 3.11) it was tuned on
REFERENCE_NOMINAL_S = 0.002


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def _has_clique(rows: list[int], cand: int, k: int) -> bool:
    if k == 0:
        return True
    while cand:
        bit = cand & -cand
        cand ^= bit
        if _has_clique(rows, cand & rows[bit.bit_length() - 1], k - 1):
            return True
    return False


def _reference_rows(n: int = 40) -> list[int]:
    """A fixed pseudo-random graph, half of all pairs adjacent."""
    x, rows = 1, [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            if x >> 63:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


REFERENCE_ROWS = _reference_rows()


def reference_loop() -> float:
    """Seconds one fixed piece of pure-Python work takes: a bitset clique
    search and a JSON dump, the kinds of work the package does.

    Collection is paused so that heap the package left behind cannot slow
    the loop.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _has_clique(REFERENCE_ROWS, (1 << len(REFERENCE_ROWS)) - 1, 9)
        json.dumps([{"v": i, "label": str(i)} for i in range(300)])
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class ReferenceClock:
    """Times ``reference_loop`` every ``REFERENCE_EVERY_S`` from a SIGALRM
    handler, so that samples land inside long ops too.

    The machines this runs on are shared, and their speed drifts by 20-40 %
    within seconds and by as much between runs. Dividing each op's time by
    the reference samples taken across it (unit ``ref``) leaves a figure
    that moves with the code under test far more than with the machine.
    Time spent in the handler is kept in ``paused`` and left out of op times.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0

    def _tick(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        self.samples.append(reference_loop())
        self.paused += time.perf_counter() - start

    def __enter__(self) -> "ReferenceClock":
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Runner:
    """Executes ops, checks their outputs and keeps the tallies.

    ``attempted``, ``failed`` and ``wrong`` count executions, so they grow
    with the number of repeats that fit in a run. ``outcomes`` holds one
    entry per distinct op, False once any of its executions failed: those
    counts depend only on the plan, so they repeat exactly for a seed
    however fast the machine is.
    """

    def __init__(self, main, tracer=None, clock: ReferenceClock | None = None) -> None:
        self.main = main
        self.tracer = tracer  # when set, each call runs inside a "cli" span
        self.clock = clock
        self.scale = 1.0  # mean reference time across the last op
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[str, int] = {}
        self.outcomes: dict[int, bool] = {}  # id(op) -> no execution failed

    @property
    def ops_attempted(self) -> int:
        return len(self.outcomes)

    @property
    def ops_failed(self) -> int:
        return sum(not ok for ok in self.outcomes.values())

    def _call(self, argv: list[str]) -> tuple[int, float, str, str]:
        out, err = io.StringIO(), io.StringIO()
        paused = self.clock.paused if self.clock else 0.0
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer is None:
                    code = self.main(argv)
                else:
                    code = self.tracer.span("cli", self.main, argv)
            except SystemExit as exc:  # argparse rejects an argv this way
                code = exc.code if isinstance(exc.code, int) else 2
        took = time.perf_counter() - start
        if self.clock:
            took -= self.clock.paused - paused
        return code, took, out.getvalue(), err.getvalue()

    def run(self, op) -> float | None:
        """Seconds the op's calls took, or None when the op failed.

        Sets ``scale`` to the mean of the reference samples taken during the
        op and the last one before it.
        """
        first = len(self.clock.samples) - 1 if self.clock else 0
        if self.tracer is not None:
            self.tracer.current_op = self.attempted  # spans of one op share it
        self.attempted += 1
        saved = {key: os.environ.get(key) for key in op.env}
        os.environ.update(op.env)
        try:
            seconds, outputs, reason = 0.0, [], None
            for call in op.calls:
                try:
                    code, took, stdout, stderr = self._call(call.argv)
                except Exception as exc:  # a traceback is a failed op, not a crash
                    reason = f"{type(exc).__name__}: {exc}"
                    break
                seconds += took
                if code != call.exit:
                    first_line = (stderr.strip().splitlines() or [""])[0]
                    reason = f"{call.argv[0]} exit {code}, expected {call.exit}: {first_line}"
                    break
                outputs.append(call.out.read_text(encoding="utf-8") if call.out else stdout)
            else:
                try:
                    wrong = op.check(op.expect, outputs)
                except (KeyError, ValueError, TypeError, IndexError) as exc:
                    wrong = f"unreadable output: {type(exc).__name__}: {exc}"
                if wrong is not None:
                    self.wrong += 1
                    reason = f"wrong: {wrong}"
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        if self.clock:
            self.scale = statistics.fmean(self.clock.samples[first:])
        self.outcomes[id(op)] = self.outcomes.get(id(op), True) and reason is None
        if reason is None:
            return seconds
        self.failed += 1
        key = f"{op.label}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1
        return None

    def run_pass(self, ops) -> tuple[float, float] | None:
        """Seconds for the whole list and the same in reference units, or
        None if any op in it failed."""
        raw = ref = 0.0
        for op in ops:
            took = self.run(op)
            if took is None:
                return None
            raw += took
            ref += took / self.scale
        return raw, ref

    def run_cycle(self, ops, latencies: list[tuple[float, float]]) -> float:
        """Run every op once. Successful ops append (seconds, reference
        units) to ``latencies``; returns their total seconds."""
        total = 0.0
        for op in ops:
            took = self.run(op)
            if took is not None:
                latencies.append((took, took / self.scale))
                total += took
        return total


def setup_seconds() -> list[tuple[float, float]]:
    """Cold import times of ``mpturan.cli``, each in a fresh interpreter,
    paired with the reference time measured right after it in that
    interpreter.

    One untimed import first writes the bytecode cache, as an installed
    package would have it.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    code = (
        "import time; t = time.perf_counter(); import mpturan.cli; "
        "took = time.perf_counter() - t; import run; "
        "print(took, min(run.reference_loop() for _ in range(3)))"
    )
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=60, check=True,
        )
        if i:
            took, reference = map(float, done.stdout.split())
            samples.append((took, reference))
    return samples


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    sources = hashlib.sha256()
    for path in sorted((SRC / "mpturan").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def measure(runner: Runner, passes, light, seconds: float, cycles: int | None) -> dict:
    """Rounds of passes then one light cycle each, ``cycles`` rounds or as
    many as start within ``seconds`` (at least one).

    Every pass runs in the first round; an ``every_round`` pass runs in
    each, so its samples spread over the whole run.
    """
    deadline = time.perf_counter() + seconds
    pass_times: dict[str, list[tuple[float, float]]] = {p.metric: [] for p in passes}
    latencies: list[tuple[float, float]] = []
    cycle_times: list[float] = []
    while not cycle_times or (
        len(cycle_times) < cycles if cycles is not None else time.perf_counter() < deadline
    ):
        for p in passes:
            if p.every_round or not cycle_times:
                took = runner.run_pass(p.ops)
                if took is not None:
                    pass_times[p.metric].append(took)
        cycle_times.append(runner.run_cycle(light, latencies))
    return {"passes": pass_times, "latencies": latencies, "cycle_times": cycle_times}


def summarize(plan, runner: Runner, data: dict) -> dict[str, dict]:
    """Every report metric as {value, unit, samples}."""
    def stat(name, values, unit, scale=1.0, q=None):
        value = None
        if values:
            value = (percentile(values, q) if q else statistics.median(values)) * scale
        return name, {"value": value, "unit": unit, "samples": len(values)}

    lat = [raw for raw, _ in data["latencies"]]
    ms = plan.light_metric.endswith("_ms")
    rows = [stat(plan.light_metric, lat, "ms" if ms else "s", 1000.0 if ms else 1.0)]
    if plan.light_tail:
        rows.append(stat(plan.light_tail, lat, "ms", 1000.0, q=99))
    rows += [stat(name, [raw for raw, _ in values], "s") for name, values in data["passes"].items()]
    rows.append((f"{plan.workload}.failed_ratio", {
        "value": runner.failed / runner.attempted, "unit": "ratio", "samples": runner.attempted,
    }))
    return dict(rows)


def untraced_run(plan, main, seconds: int) -> tuple[Runner, dict, dict]:
    """Set-up samples, then the measured run; returns the runner, the report
    and the end-to-end metrics."""
    setup = setup_seconds()
    with ReferenceClock() as clock:
        runner = Runner(main, clock=clock)
        data = measure(runner, plan.passes, plan.light, seconds, None)
    report = summarize(plan, runner, data)
    report["setup_import_s"] = {
        "value": statistics.median(took for took, _ in setup), "unit": "s", "samples": len(setup),
    }
    report["setup_s"] = {
        "value": statistics.median(took / ref for took, ref in setup) * REFERENCE_NOMINAL_S,
        "unit": "s", "samples": len(setup),
    }
    report["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unit": "MB", "samples": 1,
    }
    report["reference_ms"] = {
        "value": statistics.median(clock.samples) * 1000, "unit": "ms",
        "samples": len(clock.samples),
    }
    light = [ref for _, ref in data["latencies"]]
    first_pass = [ref for _, ref in data["passes"][plan.passes[0].metric]]
    metrics = {
        "setup_s": {"value": report["setup_s"]["value"], "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"]["value"], "unit": "MB"},
        "op_p50_ref": {"value": statistics.median(light) if light else None, "unit": "ref"},
        "pass_ref": {
            "value": statistics.median(first_pass) if first_pass else None, "unit": "ref",
        },
    }
    return runner, report, metrics


def traced_run(plan, main, seconds: int, spans: Path) -> tuple[Runner, dict, dict]:
    """The passes and one light cycle traced, then untraced light cycles for
    the rest of ``seconds``; returns the runner, the report of the traced
    part and the per-layer metrics.

    The traced part is fixed, so its counts repeat exactly for a seed. The
    untraced cycles run the same ops and are the baseline for the overhead.
    """
    from tracing import Tracer

    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    runner = Runner(main, tracer)
    tracer.install()
    try:
        traced = measure(runner, plan.passes, plan.light, 0, cycles=1)
    finally:
        tracer.restore()
    runner.tracer = None
    baseline = measure(runner, [], plan.light, deadline - time.perf_counter(), None)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.per_layer_metrics().items()}
    metrics["trace.overhead_s"] = {
        "value": traced["cycle_times"][0] - statistics.median(baseline["cycle_times"]),
        "unit": "s",
    }
    report = summarize(plan, runner, traced)
    report["layers"] = tracer.layer_totals()
    tracer.write(spans)
    return runner, report, metrics


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS, build_plan

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op lists, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "mpturan" / "cli.py").is_file():
        print(f"error: no mpturan sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mpturan.cli

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=stem + "-", dir=OUT))
    try:
        plan = build_plan(args.workload, args.seed, workdir, smoke=args.smoke)
        if args.trace:
            spans = OUT / f"{args.workload}-seed{args.seed}.spans.tsv"
            runner, report, metrics = traced_run(plan, mpturan.cli.main, args.seconds, spans)
        else:
            runner, report, metrics = untraced_run(plan, mpturan.cli.main, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    layers = report.pop("layers", None)

    env = environment(args.workload, args.seed, args.seconds, args.trace)
    record = dict(env=env, report=report, metrics=metrics, layers=layers,
                  ops_attempted=runner.ops_attempted, ops_failed=runner.ops_failed,
                  attempted=runner.attempted, failed=runner.failed, wrong=runner.wrong,
                  failures=runner.reasons)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, m in report.items():
        value = "n/a" if m["value"] is None else m["value"]
        print(f"{name:<28} {value:>14} {m['unit']:<5} (n={m['samples']})")
    print(f"failed ops: {runner.ops_failed} of {runner.ops_attempted} distinct, "
          f"{runner.failed} of {runner.attempted} executions")
    for reason, count in runner.reasons.items():
        print(f"failed x{count}: {reason}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:<34} {m['value']:>14} {m['unit']}")
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.ops_attempted,
        "failed": runner.ops_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
