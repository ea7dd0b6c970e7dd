#!/usr/bin/env python3
"""Benchmark of the diskgeom package: three closed-loop workloads.

    python3 perfbench/run.py --workload {curves,checks,area,all} \\
        [--seed N] [--seconds S] [--trace {0,1}]

One client runs a workload's fixed task list one task after another in this
process (``--jobs 1``), in passes, until ``--seconds`` is used up, with at
least two passes.  After every task its output is checked against oracles
computed independently of the package (``oracles.py``).  The command prints
each metric as ``name value unit`` and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer
metrics, taken from spans recorded around the package's public functions in
traced passes that alternate with untraced ones.  Every time is scaled to a
reference machine speed, gauged by ``speed.py`` right before each timed call.
``--workload all`` runs each workload in its own process and prefixes the
metric names.

Run it from the root of a source checkout; it imports ``diskgeom`` from
``src/`` and exits with status 2 and no result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread of work: BLAS threads spinning beside tiny L-BFGS-B calls cost
# wall time and add noise on a small machine.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import speed  # noqa: E402  (after the BLAS setting)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 20260815
MIN_PASSES = 2
SETUP_REPEATS = 5
# An oracle-backed value further than this from its reference is a wrong answer.
GROSS_REL_ERR = 0.05
# Rounding allowance of the oracles themselves, relative to the reference.
ORACLE_ROUNDING = 1e-13
# Bars below this share of their value are quadrature or rounding noise that
# swings by orders of magnitude with the input's rotation; err_bar_rel_med
# describes the bars above it.
BAR_FLOOR = 1e-9
SETUP_CODE = (
    "import time\n"
    "import diskgeom.cli\n"
    "diskgeom.cli.build_parser()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("curves", "checks", "area", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def scaled(seconds: float, reference: float) -> float:
    """A time measured while the reference kernel took ``reference``, at reference speed."""
    return seconds * speed.REFERENCE_S / reference


def measure_setup(repeats: int):
    """Wall time of a fresh interpreter importing the CLI and building its parser.

    Returns the medians over ``repeats`` interpreters at reference speed and
    as measured.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, raw = [], []
    for _ in range(repeats):
        reference = speed.reference_seconds()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        seconds = float(done.stdout.strip().splitlines()[-1]) - start
        raw.append(seconds)
        times.append(scaled(seconds, reference))
    return statistics.median(times), statistics.median(raw)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


class Outcome:
    """Task outcomes over all passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.malformed = 0
        self.messages = {}  # (task, message) -> count
        self.values = []

    def add(self, task, rec):
        self.attempted += 1
        self.failed += bool(rec.failures)
        self.malformed += bool(rec.malformed)
        for why in rec.failures + [f"malformed: {m}" for m in rec.malformed]:
            self.messages[(task, why)] = self.messages.get((task, why), 0) + 1
        self.values.extend(rec.values)

    def rel_errors(self):
        return [abs(est - ref) / abs(ref) for _, est, ref, _ in self.values]

    def correct(self) -> bool:
        return self.malformed == 0 and all(e <= GROSS_REL_ERR for e in self.rel_errors())


def run_pass(tasks, outcome, record_cls, tracer=None, pass_id=0):
    """One pass over the task list.

    Returns {task name: (seconds, reference seconds)}, the reference kernel
    being timed right before the task, outside any span.
    """
    times = {}
    for task in tasks:
        reference = speed.reference_seconds()
        if tracer is not None:
            tracer.task = f"{pass_id}/{task.name}"
        rec = record_cls()
        start = time.perf_counter()
        try:
            result = task.run()
        except Exception as exc:  # a task that raises has failed; keep going
            times[task.name] = (time.perf_counter() - start, reference)
            rec.fail(f"raised {type(exc).__name__}: {exc}")
            traceback.print_exc(limit=2, file=sys.stderr)
        else:
            times[task.name] = (time.perf_counter() - start, reference)
            try:
                task.check(result, rec)
            except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
                rec.bad(f"unexpected output shape: {type(exc).__name__}: {exc}")
        outcome.add(task.name, rec)
    return times


def wall(passes, at_reference_speed=True) -> float:
    """Sum over tasks of each task's median time across passes."""
    def seconds(p, name):
        t, reference = p[name]
        return scaled(t, reference) if at_reference_speed else t

    return math.fsum(statistics.median(seconds(p, name) for p in passes) for name in passes[0])


def pass_seconds(passes) -> str:
    return " ".join(f"{math.fsum(t for t, _ in p.values()):.3f}" for p in passes)


def run_workload(args, spec) -> dict:
    sys.path.insert(0, str(SRC))
    import diskgeom
    import diskgeom.cli

    if not Path(diskgeom.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"diskgeom was imported from {diskgeom.__file__}, not from {SRC}")
    import numpy
    import scipy

    import oracles
    import workloads
    from tracer import Tracer

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"# nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} src_lines={src_lines()}"
    )
    setup_s, setup_raw = measure_setup(SETUP_REPEATS) if not args.trace else (None, None)
    tasks = workloads.build(args.workload, diskgeom, args.seed)
    if len({t.name for t in tasks}) != len(tasks):
        raise SystemExit("task names must be unique")
    outcome = Outcome()

    plain, traced, traced_stats = [], [], []
    tracer = Tracer(oracles.critical_radius) if args.trace else None
    start = time.perf_counter()
    if tracer is not None:
        # Untraced passes bracket each traced one, so a steady drift in
        # machine speed cancels out of the overhead.
        plain.append(run_pass(tasks, outcome, workloads.Record))
    while True:
        t0 = time.perf_counter()
        if tracer is not None:
            first = len(tracer.spans)
            with tracer.installed(diskgeom):
                traced.append(run_pass(tasks, outcome, workloads.Record, tracer, len(traced)))
            traced_stats.append(tracer.stats(tracer.spans[first:]))
        plain.append(run_pass(tasks, outcome, workloads.Record))
        last = time.perf_counter() - t0
        enough = tracer is not None or len(plain) >= MIN_PASSES
        if enough and time.perf_counter() - start + last > args.seconds:
            break

    print(f"# pass seconds as measured: {pass_seconds(plain)}"
          + (f"; traced: {pass_seconds(traced)}" if traced else ""))
    reference_s = statistics.median(ref for p in plain for _, ref in p.values())
    print(f"# reference kernel median {reference_s:.5f} s (REFERENCE_S {speed.REFERENCE_S} s); "
          f"as measured: wall_s {wall(plain, False):.3f} s"
          + (f", setup_s {setup_raw:.3f} s" if setup_raw is not None else ""))
    for (task, why), count in sorted(outcome.messages.items()):
        print(f"# failed {task} ({count}x): {why}")
    rel = outcome.rel_errors()
    bars = [(est, ref, bar) for _, est, ref, bar in outcome.values if bar is not None]
    print(
        f"# passes={len(plain)}{'+' + str(len(traced)) + ' traced' if traced else ''} "
        f"tasks={len(tasks)} attempted={outcome.attempted} failed={outcome.failed} "
        f"oracle_values={len(rel)} with_error_bar={len(bars)}"
    )
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "task_ok_frac": 1.0 - outcome.failed / outcome.attempted,
            "oracle_rel_err_max": max(rel),
            "err_bar_cover_frac": sum(
                abs(e - r) <= b + ORACLE_ROUNDING * abs(r) for e, r, b in bars
            ) / len(bars),
            "err_bar_rel_med": statistics.median(
                b / abs(e) for e, _, b in bars if b >= BAR_FLOOR * abs(e) > 0.0
            ),
        }
        declared = spec["end_to_end"]
    else:
        metrics = {
            "trace_overhead_s": wall(traced) - wall(plain),
            "wall_measured_s": wall(plain, at_reference_speed=False),
            "reference_s": reference_s,
        }
        for m in spec["per_layer"]:
            if m["name"] in metrics:
                continue
            span, field = m["name"].rsplit(".", 1)
            values = [s[span][field] if span in s else 0.0 for s in traced_stats]
            metrics[m["name"]] = statistics.median(values)
        declared = spec["per_layer"]
        path = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")
    result = {}
    for m in declared:
        value = float(metrics[m["name"]])
        print(f"{m['name']} {value!r} {m['unit']}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": outcome.correct(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": result,
    }


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("curves", "checks", "area"):
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, entry in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = ROOT / "BENCHMARK.json"
    if not (SRC / "diskgeom" / "__init__.py").is_file() or not bench.is_file():
        print(f"no diskgeom source under {SRC} or no {bench.name}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text())
    result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
