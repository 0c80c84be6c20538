#!/usr/bin/env python3
"""Compare two result sets: parent commit vs change.

Usage:

    python3 perfbench/compare.py perfbench-results/parent perfbench-results/change

Both directories are the sides of one ``collect.py`` call with both
checkouts (same benchmark code on both sides).  Runs pair up by
workload and seed.  A verdict counts only when each pair ran back to
back: the script refuses pairs whose runs are more than ``MAX_GAP_S``
apart, since a shared host's speed can drift for minutes at a time
and whole sets recorded one after the other differ by that drift
alone.  For
every workload x end-to-end metric the script prints each side's
median and quartiles, the pairs the change won, and a verdict:

* ``improved``: the change wins at least 9/10 of at least ten pairs
  (ties count for neither), and the medians differ by more than the
  parent's own spread (q3 - q1);
* ``regressed``: the change's median is worse than the parent's by
  more than the metric's bound from ``BENCHMARK.json``;
* ``unresolved``: the parent's spread (q3 - q1) / median is wider than
  the bound and not every change run beats every parent run, or too
  few pairs to claim a gain;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from collect import load_set, load_spec

#: Most seconds between the end of one run of a pair and the start of
#: the other for the pair to count as recorded back to back.
MAX_GAP_S = 15.0


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, pairs, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # > 0 means worse
    p1, pmid, p3 = quartiles(parent)
    _, cmid, _ = quartiles(change)
    won = sum(1 for p, c in pairs if sign * (c - p) < 0)
    worse_by = sign * (cmid - pmid) / pmid
    gained = (len(pairs) >= 10 and won >= 0.9 * len(pairs)
              and sign * (cmid - pmid) < 0 and abs(cmid - pmid) > p3 - p1)
    if (p3 - p1) / pmid > bound:
        dominates = all(sign * (c - p) < 0 for c in change for p in parent)
        if not dominates:
            return "unresolved"
        return "improved" if gained else "unchanged"
    if worse_by > bound:
        return "regressed"
    if gained:
        return "improved"
    if sign * (cmid - pmid) < 0 and won >= 0.9 * len(pairs):
        return "unresolved"  # looks better, but too few pairs to claim
    return "unchanged"


def apart(first: dict, second: dict) -> float:
    """Seconds between two runs (0 if they overlap; infinite if either
    lacks the times ``collect.py`` records)."""
    if not all("started" in run and "ended" in run for run in (first, second)):
        return float("inf")
    return max(0.0, max(first["started"], second["started"])
               - min(first["ended"], second["ended"]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    spec = load_spec()
    parent_set, change_set = load_set(args.parent), load_set(args.change)
    seeds = {workload: sorted(set(parent_set[workload])
                              & set(change_set[workload]))
             for workload in sorted(set(parent_set) & set(change_set))}
    for workload, common in seeds.items():
        for seed in common:
            gap = apart(parent_set[workload][seed], change_set[workload][seed])
            if gap > MAX_GAP_S:
                sys.exit(f"{workload} seed {seed}: the two runs are "
                         f"{gap:.0f} s apart, not back to back; record both "
                         f"sides in one collect.py call")
    print(f"{'workload':<13} {'metric':<12} {'parent median [q1,q3]':>30} "
          f"{'change median [q1,q3]':>30} {'won':>6}  verdict")
    for workload, common in seeds.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pairs = [(parent_set[workload][s]["metrics"][name]["value"],
                      change_set[workload][s]["metrics"][name]["value"])
                     for s in common]
            if len(pairs) < 2:
                continue
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            won = sum(1 for p, c in pairs if sign * (c - p) < 0)
            cells = []
            for values in (parent, change):
                q1, mid, q3 = quartiles(values)
                cells.append(f"{mid:.5g} [{q1:.5g},{q3:.5g}]")
            print(f"{workload:<13} {name:<12} {cells[0]:>30} {cells[1]:>30} "
                  f"{won:>3}/{len(pairs):<2}  "
                  f"{verdict(parent, change, pairs, metric['better'], metric['bound'])}")


if __name__ == "__main__":
    main()
