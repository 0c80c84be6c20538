#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 perfbench/run.py --workload synth_modes --seed 0 --seconds 28 --trace 0

Workloads: ``synth_modes``, ``mc_sweep``, ``explore_grid``, ``cold_cli``
(see ``perfbench/README.md`` for what each stresses and why).

The run sets the workload up ``SETUP_SAMPLES`` times, each in a fresh
process, and reports the median set-up time; the last of those
processes then runs timed passes for ``--seconds`` seconds, checking
every pass's outputs.  A human-readable report goes to stdout first;
the last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``pass_s``, ``peak_rss_mb``); with ``--trace 1`` the passes alternate
untraced / traced and the metrics are the per-layer ones of
``layers.METRICS``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth_modes", "mc_sweep", "explore_grid", "cold_cli")
SETUP_SAMPLES = 3
#: Seconds one set-up may take, and a run may overrun ``--seconds``;
#: together they keep a whole run under three minutes.
SETUP_TIMEOUT = 25
RUN_SLACK = 100


def quartiles(values):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(values):
    """The highest of p90/p99 with at least ten samples beyond it."""
    for q in (0.99, 0.9):
        if len(values) * (1 - q) >= 10:
            ordered = sorted(values)
            return f"p{round(q * 100)}", ordered[int(q * len(ordered))]
    return None


def spawn_worker(args, workdir: Path, setup_only: bool):
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    if setup_only:
        command.append("--setup-only")
    spawned = time.time()
    timeout = SETUP_TIMEOUT if setup_only else args.seconds + RUN_SLACK
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: {args.workload} worker exited "
                         f"{done.returncode}")
    data = json.loads(done.stdout.strip().splitlines()[-1])
    data["setup_s"] = data["ready"] - spawned
    return data


def environment(jobs: int) -> str:
    import numpy
    import scipy

    cores = len(os.sched_getaffinity(0))
    return (f"env: nproc={cores} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"workers={min(jobs, cores)} (jobs={jobs})")


def describe(name: str, unit: str, values) -> str:
    q1, mid, q3 = quartiles(values)
    line = (f"  {name:<32} {mid:12.6g} {unit:<6} "
            f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}]")
    extra = tail(values)
    if extra is not None:
        line += f" {extra[0]}={extra[1]:.6g}"
    return line


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {ROOT / 'src'}; "
                         f"run from a checkout of the repository")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = [spawn_worker(args, workdir / f"setup{i}", True)["setup_s"]
                  for i in range(SETUP_SAMPLES - 1)]
        run = spawn_worker(args, workdir / "run", False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    setups.append(run["setup_s"])
    passes = run["passes"]
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(untraced), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(environment(run["jobs"]))
    print(f"passes: {len(passes)} ({len(untraced)} untraced), "
          f"{run['items_per_pass']} items/pass, "
          f"failed {failed}/{attempted} "
          f"(failed_frac={failed / attempted:.6g})")
    print("end-to-end:")
    print(describe("setup_s", "s", setups))
    print(describe("pass_s", "s", untraced))
    print(describe("items_per_s", "1/s",
                   [run["items_per_pass"] / s for s in untraced]))
    print(f"  {'peak_rss_mb':<32} {run['peak_rss_mb']:12.6g} MB")
    for p in passes:
        for message in p["failures"][:3]:
            print(f"FAILED: {message}", file=sys.stderr)

    if args.trace:
        from layers import UNITS

        traced = [p["seconds"] for p in passes if p["traced"]]
        metrics = {name: (statistics.median(values[name]
                                            for values in run["layers"])
                          if run["layers"] else 0.0, unit)
                   for name, unit in UNITS.items()}
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced) / end_to_end["pass_s"][0] - 1),
            "%")
        wall = statistics.median(traced)
        print(f"layers (median per traced pass; pass wall {wall:.4f} s):")
        print(f"  {'span':<24} {'self_s':>10} {'total_s':>10} "
              f"{'self%':>6} {'calls':>7}")
        rows = sorted(run["layer_report"].items(),
                      key=lambda item: -statistics.median(item[1]["self"]))
        if not rows:
            print("  (no in-process spans: the work runs in subprocesses)")
        for name, entry in rows:
            self_s = statistics.median(entry["self"])
            print(f"  {name:<24} {self_s:10.4f} "
                  f"{statistics.median(entry['total']):10.4f} "
                  f"{100 * self_s / wall:6.1f} "
                  f"{statistics.median(entry['calls']):7.0f}")
        print("per-layer metrics:")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<32} {value:12.6g} {unit}")
    else:
        metrics = end_to_end

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
