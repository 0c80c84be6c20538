"""Monte-Carlo campaign throughput: vectorized vs fast vs reference.

Three performance claims, all *mechanism, not results*:

* **Engine**: the compiled round-program fast path (``engine="fast"``,
  see ``repro.runtime.compiled`` / ``repro.mc.fastpath``) must deliver
  **>= 5x trials/sec** over the reference object-level simulator on
  the same campaign — while producing **bit-identical** aggregated
  statistics (the fast path shares the reference's random stream, so
  this is an equality of numbers, not a statistical comparison).
* **Vectorized kernel**: the tensor engine (``engine="vectorized"``,
  see ``repro.mc.vectorized``) must deliver **>= 3x trials/sec** over
  the *fast* engine on the same campaign — while staying
  *distribution-equivalent* (it draws from numpy streams, so the
  comparison is the statistical harness of ``repro.mc.equivalence``,
  not equality).
* **Belief pass**: the same campaign under the ``LOCAL_BELIEF``
  ablation must also run the tensor kernel (its per-round belief
  scan) at **>= 3x trials/sec** over the fast engine's per-trial
  belief loop, distribution-equivalent to it.
* **Pooling**: running the same campaign over the trial pool must not
  change a single number, synthesis must happen once per distinct
  config however many trials execute, and on machines with >= 6
  workers the pooled fast campaign must beat the sequential one by
  >= 4x (smaller machines print the speedup but cannot meaningfully
  assert it).

The headline numbers land in ``BENCH_mc_campaign.json`` (via the
``bench_record`` fixture) so the repository's perf trajectory is
machine-readable.  CI smokes this path with ``MC_BENCH_TRIALS=2`` so
it cannot rot; the 5x and both 3x bars are asserted at
``MC_BENCH_TRIALS >= 100`` (the default 200).
"""

import os
import statistics
import time

import pytest

from repro.analysis import format_table
from repro.api import LossSpec, Scenario, SimulationSpec
from repro.core import SchedulingConfig
from repro.mc import assert_distribution_equivalent, run_campaign
from repro.workloads import industrial_mode

TRIALS = int(os.environ.get("MC_BENCH_TRIALS", "200"))
JOBS = min(8, os.cpu_count() or 1)
#: Interleaved unlogged/logged vectorized passes behind the overhead gate.
OBS_REPEATS = 5


def make_scenario(policy: str = "beacon_gated") -> Scenario:
    return Scenario(
        name="mc-bench",
        modes=[industrial_mode(num_loops=2, base_period=100.0)],
        config=SchedulingConfig(round_length=1.0, slots_per_round=5,
                                max_round_gap=None),
        backend="greedy",
        loss=LossSpec("bernoulli", {"beacon_loss": 0.03, "data_loss": 0.05}),
        simulation=SimulationSpec(duration=40000.0, trials=TRIALS, seed=42,
                                  policy=policy),
    )


def test_bench_mc_campaign(benchmark, tmp_path, capsys, bench_record):
    cache_dir = tmp_path / "cache"
    scenario = make_scenario()

    # Warm the schedule cache so every timed pass measures pure trial
    # throughput (synthesis cost is the other bench's story).
    warmup = run_campaign(scenario, trials=1, jobs=1, cache_dir=cache_dir)
    assert warmup.stats.modes_synthesized == 1

    started = time.monotonic()
    reference = run_campaign(scenario, jobs=1, cache_dir=cache_dir,
                             engine="reference")
    t_reference = time.monotonic() - started

    started = time.monotonic()
    ref_pooled = run_campaign(scenario, jobs=JOBS, cache_dir=cache_dir,
                              engine="reference")
    t_ref_pooled = time.monotonic() - started

    def fast_campaign():
        started = time.monotonic()
        result = run_campaign(scenario, jobs=1, cache_dir=cache_dir,
                              engine="fast")
        return result, time.monotonic() - started

    fast, t_fast = benchmark.pedantic(fast_campaign, rounds=1, iterations=1)

    started = time.monotonic()
    fast_pooled = run_campaign(scenario, jobs=JOBS, cache_dir=cache_dir,
                               engine="fast")
    t_fast_pooled = time.monotonic() - started

    # The vectorized campaign without and with a run log attached.
    # Events are batch-granular, so the difference bounds the
    # observability tax.  One pass takes tens of milliseconds, so a
    # single shot of each is noise: time OBS_REPEATS interleaved pairs
    # and compare the medians.
    from repro.obs import RunLog, set_run_log

    plain_times, logged_times = [], []
    for repeat in range(OBS_REPEATS):
        started = time.monotonic()
        vectorized = run_campaign(scenario, jobs=1, cache_dir=cache_dir,
                                  engine="vectorized")
        plain_times.append(time.monotonic() - started)

        log = RunLog(tmp_path / "obs-logs", run_id=f"bench-{repeat}")
        previous = set_run_log(log)
        try:
            started = time.monotonic()
            logged = run_campaign(scenario, jobs=1, cache_dir=cache_dir,
                                  engine="vectorized")
            logged_times.append(time.monotonic() - started)
        finally:
            set_run_log(previous)
            log.close()
    t_vectorized = statistics.median(plain_times)
    t_logged = statistics.median(logged_times)

    # The LOCAL_BELIEF leg: the same campaign (same cached schedule)
    # under the ablation policy, fast belief loop vs the belief pass.
    belief_scenario = make_scenario(policy="local_belief")
    started = time.monotonic()
    belief_fast = run_campaign(belief_scenario, jobs=1, cache_dir=cache_dir,
                               engine="fast")
    t_belief_fast = time.monotonic() - started
    belief_times = []
    for _repeat in range(OBS_REPEATS):
        started = time.monotonic()
        belief_vectorized = run_campaign(belief_scenario, jobs=1,
                                         cache_dir=cache_dir,
                                         engine="vectorized")
        belief_times.append(time.monotonic() - started)
    t_belief_vectorized = statistics.median(belief_times)

    # The scalar engines must agree on every number, and pooling must
    # not change a single one either.
    assert fast.points[0].trials == reference.points[0].trials
    reference_stats = reference.points[0].stats.to_dict()
    for result in (fast, ref_pooled, fast_pooled):
        assert result.points[0].stats.to_dict() == reference_stats
    assert reference.ok and fast.ok

    # The vectorized engine draws from numpy streams — its contract is
    # distribution equivalence against the exact engines, checked with
    # the same harness the equivalence suite gates on.
    assert vectorized.engines == {scenario.name: "vectorized"}
    assert vectorized.ok
    # Logging must not perturb the campaign — same engine, same numbers.
    assert logged.engines == vectorized.engines
    assert logged.points[0].stats.to_dict() == \
        vectorized.points[0].stats.to_dict()
    assert belief_vectorized.engines == {scenario.name: "vectorized"}
    assert belief_fast.engines == {scenario.name: "fast"}
    if TRIALS >= 20:  # below that the Wilson intervals span everything
        assert_distribution_equivalent(
            vectorized.points[0], fast.points[0], label="bench"
        )
        # One mode, so beliefs never go stale and the exact collision
        # check (zero on both engines) applies.
        assert_distribution_equivalent(
            belief_vectorized.points[0], belief_fast.points[0],
            label="bench/local_belief",
        )

    # Synthesis once per distinct config: the warm-up solved the one
    # distinct problem; every timed pass did zero solver work, despite
    # executing TRIALS trials each.
    for result in (reference, fast, ref_pooled, fast_pooled, vectorized,
                   belief_fast, belief_vectorized):
        assert result.stats.modes_synthesized == 0
        assert result.stats.cache_hits == 1

    obs_overhead_pct = (
        100.0 * (t_logged - t_vectorized) / t_vectorized
        if t_vectorized else 0.0
    )
    engine_speedup = t_reference / t_fast if t_fast else float("inf")
    pool_speedup = t_reference / t_ref_pooled if t_ref_pooled else float("inf")
    vectorized_speedup = t_fast / t_vectorized if t_vectorized \
        else float("inf")
    belief_vectorized_speedup = (
        t_belief_fast / t_belief_vectorized if t_belief_vectorized
        else float("inf")
    )
    stats = fast.points[0].stats
    bench_record(
        "mc_campaign",
        trials=TRIALS,
        jobs=JOBS,
        effective_workers=JOBS,
        reference_seconds=t_reference,
        fast_seconds=t_fast,
        vectorized_seconds=t_vectorized,
        reference_pooled_seconds=t_ref_pooled,
        fast_pooled_seconds=t_fast_pooled,
        reference_trials_per_sec=TRIALS / t_reference if t_reference else None,
        fast_trials_per_sec=TRIALS / t_fast if t_fast else None,
        vectorized_trials_per_sec=(
            TRIALS / t_vectorized if t_vectorized else None
        ),
        engine_speedup=engine_speedup,
        vectorized_speedup=vectorized_speedup,
        belief_fast_seconds=t_belief_fast,
        belief_vectorized_seconds=t_belief_vectorized,
        belief_fast_trials_per_sec=(
            TRIALS / t_belief_fast if t_belief_fast else None
        ),
        belief_vectorized_trials_per_sec=(
            TRIALS / t_belief_vectorized if t_belief_vectorized else None
        ),
        belief_vectorized_speedup=belief_vectorized_speedup,
        logged_vectorized_seconds=t_logged,
        obs_overhead_pct=obs_overhead_pct,
        obs_repeats=OBS_REPEATS,
        # A single-worker "pool" measures process overhead, not
        # parallelism — record None so trend dashboards on 1-core CI
        # runners don't chart a meaningless ~1x as a regression.
        pool_speedup=pool_speedup if JOBS >= 2 else None,
        bit_identical=True,
    )

    with capsys.disabled():
        print(f"\n=== Monte-Carlo campaign throughput "
              f"({TRIALS} trials, jobs={JOBS}) ===")
        rows = [
            ("reference (j=1)", round(t_reference, 2),
             round(TRIALS / t_reference, 1) if t_reference else float("inf")),
            (f"reference (j={JOBS})", round(t_ref_pooled, 2),
             round(TRIALS / t_ref_pooled, 1) if t_ref_pooled
             else float("inf")),
            ("fast (j=1)", round(t_fast, 2),
             round(TRIALS / t_fast, 1) if t_fast else float("inf")),
            (f"fast (j={JOBS})", round(t_fast_pooled, 2),
             round(TRIALS / t_fast_pooled, 1) if t_fast_pooled
             else float("inf")),
            ("vectorized (j=1)", round(t_vectorized, 2),
             round(TRIALS / t_vectorized, 1) if t_vectorized
             else float("inf")),
            ("vectorized+log", round(t_logged, 2),
             round(TRIALS / t_logged, 1) if t_logged else float("inf")),
            ("belief fast (j=1)", round(t_belief_fast, 2),
             round(TRIALS / t_belief_fast, 1) if t_belief_fast
             else float("inf")),
            ("belief vectorized", round(t_belief_vectorized, 2),
             round(TRIALS / t_belief_vectorized, 1) if t_belief_vectorized
             else float("inf")),
        ]
        print(format_table(["engine", "time [s]", "trials/s"], rows))
        print(f"engine speedup: {engine_speedup:.2f}x   "
              f"vectorized speedup: {vectorized_speedup:.2f}x   "
              f"belief speedup: {belief_vectorized_speedup:.2f}x   "
              f"pool speedup: {pool_speedup:.2f}x   "
              f"obs overhead: {obs_overhead_pct:+.1f}%   "
              f"miss {stats.miss}   collisions {stats.collisions}")

    if TRIALS >= 100:
        # The acceptance bar: the compiled fast path must hold >= 5x
        # trials/sec over the reference simulator (same machine, same
        # campaign, sequential vs. sequential).  Below 100 trials the
        # per-campaign fixed costs dominate and the ratio is noise.
        assert engine_speedup >= 5.0, (
            f"fast engine only {engine_speedup:.2f}x faster than the "
            f"reference ({t_reference:.2f}s -> {t_fast:.2f}s, "
            f"{TRIALS} trials)"
        )
        # The vectorized kernel's bar: >= 3x over the *fast* engine
        # (the ISSUE's floor; the design target is 10x, which the
        # recorded vectorized_speedup tracks).  Like the 5x bar, only
        # meaningful once trial work dominates fixed costs.
        assert vectorized_speedup >= 3.0, (
            f"vectorized engine only {vectorized_speedup:.2f}x faster "
            f"than fast ({t_fast:.2f}s -> {t_vectorized:.2f}s, "
            f"{TRIALS} trials)"
        )
        # The same bar for the LOCAL_BELIEF ablation: the belief pass
        # against the fast engine's per-trial belief loop.
        assert belief_vectorized_speedup >= 3.0, (
            f"vectorized belief pass only "
            f"{belief_vectorized_speedup:.2f}x faster than fast "
            f"({t_belief_fast:.2f}s -> {t_belief_vectorized:.2f}s, "
            f"{TRIALS} trials)"
        )
        # The observability bar: batch-granular logging must cost under
        # 5% of the vectorized campaign (with a small absolute floor so
        # a sub-50ms jitter on an already-fast run cannot fail it),
        # judged on the medians of OBS_REPEATS interleaved passes.
        assert obs_overhead_pct < 5.0 or (t_logged - t_vectorized) < 0.05, (
            f"run-log overhead {obs_overhead_pct:.1f}% "
            f"({t_vectorized:.3f}s -> {t_logged:.3f}s, {TRIALS} trials)"
        )

    if JOBS >= 6 and TRIALS >= 200:
        # Pooling bar: >= 4x pooled vs. sequential for the reference
        # engine (whose per-trial cost dwarfs pool overhead; the fast
        # engine's sequential pass is already so cheap that process
        # startup dominates it — its pooled time is reported, not
        # asserted).  Asserted only with >= 6 workers — on a 4-core
        # box the theoretical ceiling is 4x, which pool overhead
        # necessarily undercuts.
        assert pool_speedup >= 4.0, (
            f"pooled campaign only {pool_speedup:.2f}x faster "
            f"({t_reference:.2f}s -> {t_ref_pooled:.2f}s, jobs={JOBS})"
        )


def test_bench_mc_sweep_reuses_synthesis(tmp_path, capsys):
    """A 3-point sweep multiplies trials, never synthesis."""
    trials = max(2, TRIALS // 20)
    result = run_campaign(
        make_scenario(), trials=trials, jobs=1,
        cache_dir=tmp_path / "cache",
        sweep={"data_loss": [0.0, 0.05, 0.1]},
    )
    assert len(result.points) == 3
    assert result.stats.modes_synthesized == 1  # one distinct config
    with capsys.disabled():
        misses = [str(point.stats.miss) for point in result.points]
        print(f"\nsweep misses ({trials} trials/point): {misses}")


def test_bench_engines_agree_across_sweep(tmp_path):
    """Fast and reference engines agree point by point on a sweep grid
    (the bench-level restatement of the equivalence suite)."""
    trials = max(2, min(10, TRIALS))
    kwargs = dict(trials=trials, jobs=1, cache_dir=tmp_path / "cache",
                  sweep={"beacon_loss": [0.0, 0.1]})
    fast = run_campaign(make_scenario(), engine="fast", **kwargs)
    reference = run_campaign(make_scenario(), engine="reference", **kwargs)
    for fast_point, reference_point in zip(fast.points, reference.points):
        assert fast_point.stats.to_dict() == reference_point.stats.to_dict()
