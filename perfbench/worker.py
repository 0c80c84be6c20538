"""One workload in one fresh process: set up, then timed passes.

Started by ``run.py`` (never by hand).  Prints one JSON line to stdout:
the wall-clock time set-up finished (``ready``) and, unless
``--setup-only``, every pass's wall time and check outcome, the peak
RSS (own plus largest child), and for a traced run the per-layer
metrics.

In a traced run the passes alternate untraced / traced, so the
untraced median next to the traced median gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

from layers import pass_metrics  # noqa: E402
from tracing import Tracer, layer_times  # noqa: E402


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among the children
    it waited for (pool workers, CLI subprocesses), in MB.

    An approximation of the process tree's peak, not a bound: children
    that run at the same time (two pool workers) can together exceed
    the largest one, and pages shared with forked children count twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run(args) -> dict:
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    bench = workloads.WORKLOADS[args.workload](args.seed, workdir)
    out = {"ready": time.time(), "jobs": bench.jobs,
           "items_per_pass": bench.items_per_pass()}
    if args.setup_only:
        return out

    tracer = Tracer() if args.trace else None
    passes, layers, layer_report = [], [], {}
    min_passes = 2 if args.trace else 1
    started = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.pass_id = index
            tracer.install()
        began = time.perf_counter()
        try:
            outputs, error = bench.run_pass(index), None
        except Exception:  # a failed pass is counted, the run goes on
            outputs, error = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - began
        if traced:
            tracer.uninstall()
        if error is None:
            try:
                attempted, failures = bench.check(outputs)
                failed = min(len(failures), attempted)
            except Exception:  # outputs too malformed to check
                error = traceback.format_exc(limit=3)
        if error is not None:
            attempted, failures = bench.items_per_pass(), [error]
            failed = attempted
        passes.append({"seconds": wall, "traced": traced,
                       "attempted": attempted, "failed": failed,
                       "failures": failures})
        if traced and error is None:
            spans = tracer.pass_spans(index)
            layers.append(pass_metrics(spans, bench.counts(outputs), wall))
            for name, entry in layer_times(spans).items():
                total = layer_report.setdefault(
                    name, {"self": [], "total": [], "calls": []})
                for key in total:
                    total[key].append(entry[key])
        index += 1
        elapsed = time.perf_counter() - started
        typical = statistics.median([p["seconds"] for p in passes])
        if index >= min_passes and elapsed + typical > args.seconds:
            break
    out.update(passes=passes, layers=layers, layer_report=layer_report,
               peak_rss_mb=peak_rss_mb())
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    try:
        result = run(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
