#!/usr/bin/env python3
"""Rebuild ``pinned.json``: the expected outputs at the default seed.

* ``synth_modes``: round count and summed latency objective per mode;
* ``mc_sweep``: per grid point, the statistics of the ``fast`` engine
  (bit-identical to ``reference`` and quicker), against which every
  vectorized pass is checked with ``repro.mc.assert_distribution_equivalent``;
* ``explore_grid``: the Pareto front as ``[payload, B]`` pairs.

Run from the repository root:  python3 perfbench/pin.py
Re-pin only when the program's answers change on purpose, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))


def main() -> None:
    seed = workloads.DEFAULT_SEED
    pinned = {}
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as tmp:
        from repro.api import Experiment
        from repro.engine import ScheduleCache

        started = time.perf_counter()
        scenarios = workloads.synth_modes_inputs(seed)
        result = Experiment(scenarios, jobs=1).run(simulate=False)
        pinned["synth_modes"] = {}
        for scenario in scenarios:
            mode = scenario.modes[0]
            schedule = result[scenario.name].schedules[mode.name]
            pinned["synth_modes"][scenario.name] = {
                "rounds": schedule.num_rounds,
                "objective": schedule.total_latency,
            }
        print(f"synth_modes pinned in {time.perf_counter() - started:.1f}s",
              file=sys.stderr)

        started = time.perf_counter()
        campaign = workloads.run_mc_sweep(
            workloads.mc_sweep_scenarios(seed),
            ScheduleCache(Path(tmp) / "cache"), engine="fast")
        pinned["mc_sweep"] = [
            {"scenario": point.scenario,
             "data_loss": point.point["data_loss"],
             "engine": campaign.engines[point.scenario],
             "stats": point.stats.to_dict()}
            for point in campaign
        ]
        print(f"mc_sweep pinned in {time.perf_counter() - started:.1f}s",
              file=sys.stderr)

        started = time.perf_counter()
        explored = workloads.explore_space(workloads.design_space(seed),
                                           Path(tmp), "pin", jobs=1)
        pinned["explore_grid"] = {"front": workloads.front_keys(explored)}
        print(f"explore_grid pinned in {time.perf_counter() - started:.1f}s",
              file=sys.stderr)

    workloads.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                                + "\n")
    print(f"wrote {workloads.PINNED}", file=sys.stderr)


if __name__ == "__main__":
    main()
