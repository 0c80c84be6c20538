#!/usr/bin/env python3
"""Record result sets: run the benchmark over seeds, save every result.

Usage (from the root of a checkout that holds this benchmark):

    python3 perfbench/collect.py --out perfbench-results --seeds 1-10 \
        parent=../parent-checkout change=.

Each ``LABEL=CHECKOUT`` argument names one side; with one side the
script records a single set (to check the benchmark's steadiness).
With two, every workload and seed runs on both sides back to back,
alternating which side goes first, so the two runs of a pair share the
host's speed at that moment: a shared host's speed can drift for
minutes at a time, and two sets recorded one after the other can
differ by that drift alone.  ``compare.py`` refuses pairs that were
not recorded back to back.

Every run uses the command of its own checkout's ``BENCHMARK.json``
(``--trace 0``, the end-to-end metrics) and is saved as
``<out>/<label>/<workload>.<seed>.json``: the result line plus the
wall-clock ``started`` and ``ended`` of the run.  Afterwards the script
prints, per side, workload and end-to-end metric, the median, the
quartiles and the spread (q3 - q1) / median next to a third of the
metric's bound — the steadiness the benchmark is tuned to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def side(text: str):
    label, sep, checkout = text.partition("=")
    if not sep or not label or not checkout:
        raise argparse.ArgumentTypeError(f"expected LABEL=CHECKOUT, got "
                                         f"{text!r}")
    return label, Path(checkout).resolve()


def load_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def load_set(directory: Path):
    """``{workload: {seed: result}}`` of one result directory."""
    results = {}
    for path in sorted(directory.glob("*.json")):
        workload, seed = path.stem.rsplit(".", 1)
        results.setdefault(workload, {})[int(seed)] = json.loads(
            path.read_text())
    return results


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(results, spec) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<13} {'metric':<12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound/3':>7}  n")
    for workload, by_seed in results.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in by_seed.values()]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            flag = "" if spread(values) < bound / 3 else "  <-- wide"
            print(f"{workload:<13} {name:<12} {statistics.median(values):10.5g}"
                  f" {q1:10.5g} {q3:10.5g} {spread(values):7.3f} "
                  f"{bound / 3:7.3f}  {len(values)}{flag}")
        failed = sum(r["failed"] for r in by_seed.values())
        attempted = sum(r["attempted"] for r in by_seed.values())
        print(f"{workload:<13} failed {failed}/{attempted}")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    spec = load_spec(checkout)
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    started = time.time()
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    ended = time.time()
    if done.returncode != 0:
        sys.exit(f"{checkout}: {workload} seed {seed}: exit "
                 f"{done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {**result, "started": started, "ended": ended}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("sides", nargs="+", type=side,
                        metavar="LABEL=CHECKOUT")
    args = parser.parse_args()
    if len(args.sides) > 2 or len({label for label, _ in args.sides}) != len(
            args.sides):
        parser.error("give one or two sides with distinct labels")
    spec = load_spec()
    for label, _ in args.sides:
        (args.out / label).mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        for position, seed in enumerate(args.seeds):
            order = args.sides if position % 2 == 0 else args.sides[::-1]
            for label, checkout in order:
                result = run_once(checkout, workload, seed)
                (args.out / label / f"{workload}.{seed}.json").write_text(
                    json.dumps(result) + "\n")
                print(f"{label} {workload} seed {seed}: "
                      f"{json.dumps(result['metrics'])}", flush=True)
    for label, _ in args.sides:
        print(f"-- {label}")
        summarize(load_set(args.out / label), spec)


if __name__ == "__main__":
    main()
