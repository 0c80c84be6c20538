"""Ablation: Algorithm 1 cold start vs. demand-bound warm start.

The paper's Algorithm 1 starts at R_M = 0 and increments; the demand
bound ceil(instances / B) is a provably-safe starting point.  This
bench measures how many ILP iterations and how much wall-clock the
warm start saves on message-heavy modes, while asserting identical
results.

It is also the synthesis scaling record: per mode size it writes the
cold and warm seconds, the probe counts, the accepted objective and
the summed eq. (13) bound to ``BENCH_synthesis.json``.  On these
pipeline modes the latency optimum sits exactly on the eq. (13) bound,
which the exact ILP's latency floor (see ``repro.core.ilp_builder``)
turns into the solver's dual bound, so the optimality proof ends at
the first incumbent that reaches it; the bench asserts that the
accepted objective equals the bound sum.
"""

import pytest
# HiGHS is imported lazily on the first solve; load it here so the
# first size's cold_s times the solve, not the import.
import scipy.optimize  # noqa: F401

from repro.analysis import format_table
from repro.core import (
    Mode,
    SchedulingConfig,
    demand_round_bound,
    latency_lower_bound,
    synthesize,
)
from repro.workloads import closed_loop_pipeline

SIZES = (2, 4, 6)


def build_mode(num_apps):
    return Mode(
        f"m{num_apps}",
        [
            closed_loop_pipeline(f"p{i}", period=40, deadline=40, num_hops=2)
            for i in range(num_apps)
        ],
    )


def compare():
    config = SchedulingConfig(round_length=1.0, slots_per_round=2,
                              max_round_gap=None)
    records = []
    for num_apps in SIZES:
        mode = build_mode(num_apps)
        cold = synthesize(mode, config)
        warm = synthesize(mode, config, warm_start=True)
        assert cold.num_rounds == warm.num_rounds
        accepted = warm.solve_stats.iterations[-1]
        records.append({
            "apps": num_apps,
            "messages": 2 * num_apps,
            "demand_bound": demand_round_bound(mode, config),
            "rounds": cold.num_rounds,
            "probes_cold": len(cold.solve_stats.iterations),
            "probes_warm": len(warm.solve_stats.iterations),
            "cold_s": cold.solve_stats.total_time,
            "warm_s": warm.solve_stats.total_time,
            "objective": accepted.objective,
            "eq13_bound": sum(
                latency_lower_bound(app, config.round_length)
                for app in mode.applications
            ),
            "bound_met": accepted.bound_met,
        })
    return records


def test_bench_ablation_warm_start(benchmark, capsys, bench_record):
    records = benchmark.pedantic(compare, rounds=1, iterations=1)
    bench_record("synthesis", sizes=records)
    with capsys.disabled():
        print("\n=== Ablation: Algorithm 1 cold vs warm start (B=2) ===")
        print(format_table(
            ["workload", "demand bound", "final R", "iters cold",
             "iters warm", "t cold [s]", "t warm [s]", "objective",
             "eq.13 sum"],
            [(f"{r['apps']} apps ({r['messages']} msgs)", r["demand_bound"],
              r["rounds"], r["probes_cold"], r["probes_warm"],
              round(r["cold_s"], 3), round(r["warm_s"], 3),
              r["objective"], r["eq13_bound"]) for r in records],
        ))
    for r in records:
        assert r["probes_warm"] <= r["probes_cold"]  # never iterates more
        assert r["objective"] == pytest.approx(r["eq13_bound"], abs=1e-6)
