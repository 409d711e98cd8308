"""metaclust benchmark runner: one workload, one seed, one run.

    python3 perfbench/run.py --workload kgrid --seed 7 --seconds 40 --trace 0

Every pass of the workload runs in a fresh child process (``workload_pass.py``),
one child at a time, so peak RSS is per pass.  With ``--trace 0`` the run
repeats untraced passes while the next one still fits in ``--seconds`` (at
least one), times set-up in at least ``SETUP_SAMPLES`` children, and reports
the medians of the end-to-end metrics.  With ``--trace 1`` it alternates
untraced and traced passes (at least one of each) and reports the per-layer
metrics, after checking that traced result CSVs are byte-identical to the
untraced ones and that exactly the layers the workload should use were
called.  Every pass's result CSVs are checked (``checks.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (pipeline invocations) and ``metrics``.  The run
record, with machine and environment info, is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import OUTPUTS, check_pass, load_reference
from tracer import (
    OVERHEAD_RATIO,
    TRACED_NAMES,
    USEFUL_RATIOS,
    WORK_COUNTS,
    per_layer_metric_names,
    per_layer_unit,
    read_spans,
    self_times,
)
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run, and every child it starts, ends within this


def run_child(workload: str, seed: int, out: Path, trace: int = 0, setup_only: bool = False, timeout=RUN_LIMIT_S):
    """Run one child pass; returns (pass record or None, seconds, stderr tail)."""
    cmd = [sys.executable, str(BENCH_DIR / "workload_pass.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--out", str(out), "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - start, f"timed out after {timeout:.0f} s"
    seconds = time.monotonic() - start
    if proc.returncode != 0 or not (out / "pass.json").is_file():
        return None, seconds, proc.stderr[-2000:]
    with open(out / "pass.json", encoding="utf-8") as fh:
        return json.load(fh), seconds, ""


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_record(workload, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "workload": workload.name,
        "seed": seed,
        "inputs": workload.describe(),
        "synth": workload.synth,
        "pipelines": [list(p) for p in workload.pipelines],
        "pipeline_seed": seed if workload.pipeline_seed is None else workload.pipeline_seed,
    }


class Run:
    """Passes of one benchmark run and what they measured."""

    def __init__(self, workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.reference = load_reference(workload.name, seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.environment = None
        self.samples = {}
        self._deadline = time.monotonic() + RUN_LIMIT_S
        self._n = 0

    def child(self, trace: int = 0, setup_only: bool = False):
        """Run one child; returns (record, pass dir, seconds); record is None if it failed."""
        out = self.work_dir / f"pass{self._n}"
        self._n += 1
        timeout = max(1.0, self._deadline - time.monotonic())
        record, seconds, err = run_child(self.workload.name, self.seed, out, trace, setup_only, timeout)
        if record is not None:
            self.environment = record["environment"]
        if setup_only:
            if record is None:
                self.problems.append(f"set-up child failed: {err}")
            return record, out, seconds
        self.attempted += len(self.workload.pipelines)
        if record is None:
            self.failed += len(self.workload.pipelines)
            self.problems.append(f"pass failed: {err}")
            return None, out, seconds
        for pipeline, problems in check_pass(self.workload, out, self.reference).items():
            if problems:
                self.failed += 1
                self.problems += [f"{pipeline}: {p}" for p in problems]
        return record, out, seconds


def _result_csvs(workload, pass_dir: Path) -> dict:
    files = {}
    for pipeline, *_flags in workload.pipelines:
        path = pass_dir / pipeline / OUTPUTS[pipeline][0]
        files[pipeline] = path.read_bytes() if path.is_file() else None
    return files


def measure_untraced(run: Run, seconds: float) -> dict:
    setups = []
    while len(setups) < SETUP_SAMPLES:
        record, out, _s = run.child(setup_only=True)
        shutil.rmtree(out, ignore_errors=True)
        if record is None:
            break
        setups.append(record["setup_s"])
    walls, rss, durations = [], [], []
    start = time.monotonic()
    while True:
        record, out, took = run.child()
        shutil.rmtree(out, ignore_errors=True)
        durations.append(took)
        if record is not None:
            walls.append(record["wall_s"])
            rss.append(record["peak_rss_mb"])
            setups.append(record["setup_s"])
        if record is None or time.monotonic() - start + statistics.median(durations) > seconds:
            break
    run.samples.update(wall_s=walls, setup_s=setups, peak_rss_mb=rss)
    if not walls or not setups:
        return {}
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def measure_traced(run: Run, seconds: float) -> dict:
    walls = {0: [], 1: []}
    traced = []  # (span self times, calls, pass record)
    last = {}
    untraced_csvs = None
    start = time.monotonic()
    for i in itertools.count():
        trace = i % 2
        record, out, took = run.child(trace=trace)
        last[trace] = took
        if record is not None:
            walls[trace].append(record["wall_s"])
            csvs = _result_csvs(run.workload, out)
            if trace == 0 and untraced_csvs is None:
                untraced_csvs = csvs
            if trace == 1:
                spans = read_spans(out / "spans.csv")
                calls = {name: 0 for name in TRACED_NAMES}
                for s in spans:
                    calls[s.name] += 1
                traced.append((self_times(spans), calls, record))
                if untraced_csvs is not None and csvs != untraced_csvs:
                    changed = [p for p in csvs if csvs[p] != untraced_csvs[p]]
                    run.problems.append(f"traced result CSVs differ from untraced: {changed}")
        shutil.rmtree(out, ignore_errors=True)
        if record is None:
            break
        if i >= 1 and time.monotonic() - start + last[(i + 1) % 2] > seconds:
            break
    run.samples.update(untraced_wall_s=walls[0], traced_wall_s=walls[1])
    if not traced or not walls[0]:
        return {}

    _self_s, calls, first = traced[0]
    used = {name for name, n in calls.items() if n > 0}
    if used != run.workload.layers_used:
        run.problems.append(
            f"coverage: called but not expected {sorted(used - run.workload.layers_used)}, "
            f"expected but not called {sorted(run.workload.layers_used - used)}"
        )
    values = {}
    for name in TRACED_NAMES:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = statistics.median(t[0].get(name, 0.0) for t in traced)
        values[f"{name}.failed"] = first["failed"].get(name, 0)
    for name in USEFUL_RATIOS:
        values[f"{name}.useful_ratio"] = first["useful_ratio"][name]
    for name in WORK_COUNTS:
        values[name] = first["work"].get(name, 0)
    values[OVERHEAD_RATIO] = statistics.median(walls[1]) / statistics.median(walls[0])
    return {name: (values[name], per_layer_unit(name)) for name in per_layer_metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "metaclust" / "__init__.py").is_file():
        print(f"error: no metaclust sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / f"work-{label}-{os.getpid()}"
    run = Run(workload, args.seed, work_dir)
    try:
        measure = measure_traced if args.trace else measure_untraced
        metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = bool(metrics) and run.failed == 0 and not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"machine": machine_record(workload, args.seed), "environment": run.environment}
    record.update(problems=run.problems, samples=run.samples, result=result)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{label}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in run.problems:
        print(f"problem: {problem}")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"{label}: error_rate={error_rate:.4g} ({run.failed}/{run.attempted} pipeline invocations)")
    for name, (value, unit) in metrics.items():
        count = f" (median of {len(run.samples[name])})" if name in run.samples else ""
        print(f"{label}: {name} = {value:.6g} {unit}{count}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
