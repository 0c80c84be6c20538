"""Per-layer metrics of a traced pass, with their documentation.

``METRICS`` lists every per-layer metric: name, unit, the ``repro``
layer it measures, and which end-to-end metric it should move on which
workload.  Times (``_s``) are self times: span durations minus the
durations of the layer spans nested inside them.  Counts come from the
span tags (in-process work only) or, where marked "exact", from the
program's own outputs (``EngineStats``, ``ExplorationResult``), which
also cover work done inside pool workers.
"""

from __future__ import annotations

from typing import Dict, List

from tracing import layer_times, top_level_seconds

#: ``(name, unit, layer, what it should move)``.
METRICS = [
    ("ilp_builder.build_s", "s", "core.ilp_builder",
     "pass_s@explore_grid (large share, but built in workers there); "
     "pass_s@synth_modes (~1%)"),
    ("ilp_builder.vars", "count", "core.ilp_builder",
     "pass_s@synth_modes (ILP size, summed over in-process probes)"),
    ("ilp_builder.constraints", "count", "core.ilp_builder",
     "pass_s@synth_modes (ILP size, summed over in-process probes)"),
    ("milp.solve_s.accepted", "s", "milp",
     "pass_s@synth_modes (optimality proof at the accepted R)"),
    ("milp.solve_s.rejected", "s", "milp",
     "pass_s@synth_modes (probes below the accepted R)"),
    ("milp.probes", "count", "milp", "pass_s@synth_modes"),
    ("milp.probes_rejected", "count", "milp", "pass_s@synth_modes"),
    ("synthesis.useful_probe_ratio", "ratio", "core.synthesis",
     "pass_s@synth_modes (accepted / probes)"),
    ("synthesis.extract_s", "s", "core.synthesis", "pass_s@synth_modes"),
    ("synthesis.solver_runs", "count", "engine.api",
     "exact probe count incl. pool workers; pass_s@synth_modes, "
     "pass_s@explore_grid"),
    ("verify.s", "s", "core.verify", "pass_s@synth_modes (must stay <=1%)"),
    ("cache.hits", "count", "engine.cache",
     "pass_s@mc_sweep (synthesis is a cache hit there)"),
    ("cache.misses", "count", "engine.cache",
     "pass_s@synth_modes, pass_s@explore_grid"),
    ("cache.get_s", "s", "engine.cache", "pass_s on every library workload"),
    ("cache.put_s", "s", "engine.cache",
     "pass_s@synth_modes, pass_s@explore_grid"),
    ("parallel.batch_s", "s", "engine.parallel",
     "pass_s@explore_grid (pool spawn + worker-side ILP build/solve)"),
    ("trials.map_s", "s", "engine.trials",
     "pass_s@explore_grid (trial pool round trips)"),
    ("pool.spawns", "count", "engine.parallel/engine.trials",
     "pass_s@explore_grid"),
    ("io.context_bytes", "bytes", "io.serialize",
     "pass_s@explore_grid (JSON trial contexts shipped to workers)"),
    ("io.serialize_s", "s", "io.serialize", "pass_s@explore_grid"),
    ("runtime.build_context_s", "s", "runtime.trial/runtime.compiled",
     "pass_s@explore_grid; pass_s@mc_sweep (small)"),
    ("vectorized.unroll_s", "s", "mc.vectorized", "pass_s@mc_sweep"),
    ("vectorized.sample_s", "s", "mc.vectorized",
     "pass_s@mc_sweep (gated scenario)"),
    ("vectorized.trials", "count", "mc.vectorized", "pass_s@mc_sweep"),
    ("vectorized.slot_draws", "count", "mc.vectorized",
     "pass_s@mc_sweep (computed: trials x (rounds + slots) x nodes)"),
    ("fastpath.run_s", "s", "mc.fastpath",
     "pass_s@mc_sweep (belief scenario falls back here)"),
    ("fastpath.trials", "count", "mc.fastpath", "pass_s@mc_sweep"),
    ("stats.aggregate_s", "s", "mc.stats", "pass_s@mc_sweep"),
    ("campaign.run_s", "s", "mc.campaign",
     "pass_s@mc_sweep, pass_s@explore_grid (campaign glue)"),
    ("campaign.fallbacks", "count", "mc.campaign",
     "pass_s@mc_sweep (scenarios whose engine_used != requested)"),
    ("dse.propose_s", "s", "dse.samplers", "pass_s@explore_grid"),
    ("dse.store_get_s", "s", "dse.store", "pass_s@explore_grid"),
    ("dse.store_put_s", "s", "dse.store", "pass_s@explore_grid"),
    ("dse.executed", "count", "dse.explore", "pass_s@explore_grid (exact)"),
    ("dse.reused", "count", "dse.explore", "pass_s@explore_grid (exact)"),
    ("import.repro_s", "s", "import",
     "pass_s@cold_cli, setup_s on every workload"),
    ("import.scipy_optimize_s", "s", "import",
     "pass_s@cold_cli (lazy import paid by the first synthesis)"),
    ("cli.mc_s", "s", "cli", "pass_s@cold_cli (spawn -> exit of scenario mc)"),
    ("cli.logs_s", "s", "cli",
     "pass_s@cold_cli (spawn -> exit of logs summarize)"),
    ("cli.other_s", "s", "cli",
     "pass_s@cold_cli (cli.mc_s minus both imports)"),
    ("trace.overhead_pct", "%", "benchmark",
     "none (traced vs untraced median pass time)"),
    ("trace.unaccounted_s", "s", "benchmark",
     "none (pass wall time outside every layer span)"),
]

UNITS = {name: unit for name, unit, _, _ in METRICS}


def pass_metrics(spans: List[dict], counts: Dict[str, float],
                 wall: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass except the overhead.

    ``counts`` holds the workload's exact counts and externally timed
    layers (see each workload's ``counts``); missing entries are 0.
    """
    times = layer_times(spans)

    def self_s(name: str) -> float:
        return times.get(name, {}).get("self", 0.0)

    def calls(name: str) -> int:
        return int(times.get(name, {}).get("calls", 0))

    def tagged(name: str, key: str) -> List[dict]:
        return [span for span in spans if span["name"] == name
                and key in span.get("tags", {})]

    def tag_sum(name: str, key: str) -> float:
        return sum(span["tags"][key] for span in tagged(name, key))

    solves = tagged("milp.solve", "feasible")
    accepted = [s for s in solves if s["tags"]["feasible"]]
    rejected = [s for s in solves if not s["tags"]["feasible"]]
    gets = tagged("cache.get", "hit")
    values = {
        "ilp_builder.build_s": self_s("ilp_builder.build"),
        "ilp_builder.vars": tag_sum("ilp_builder.build", "vars"),
        "ilp_builder.constraints": tag_sum("ilp_builder.build",
                                           "constraints"),
        "milp.solve_s.accepted": sum(s["end"] - s["start"]
                                     for s in accepted),
        "milp.solve_s.rejected": sum(s["end"] - s["start"]
                                     for s in rejected),
        "milp.probes": len(solves),
        "milp.probes_rejected": len(rejected),
        "synthesis.useful_probe_ratio": (len(accepted) / len(solves)
                                         if solves else 0.0),
        "synthesis.extract_s": self_s("synthesis.extract"),
        "verify.s": self_s("verify"),
        "cache.hits": sum(1 for s in gets if s["tags"]["hit"]),
        "cache.misses": sum(1 for s in gets if not s["tags"]["hit"]),
        "cache.get_s": self_s("cache.get"),
        "cache.put_s": self_s("cache.put"),
        "parallel.batch_s": self_s("parallel.batch"),
        "trials.map_s": self_s("trials.map"),
        "pool.spawns": calls("pool.spawn"),
        "io.context_bytes": tag_sum("io.serialize", "bytes"),
        "io.serialize_s": self_s("io.serialize"),
        "runtime.build_context_s": self_s("runtime.build_context"),
        "vectorized.unroll_s": self_s("vectorized.unroll"),
        "vectorized.sample_s": self_s("vectorized.sample"),
        "vectorized.trials": tag_sum("vectorized.sample", "trials"),
        "vectorized.slot_draws": tag_sum("vectorized.sample", "draws"),
        "fastpath.run_s": self_s("fastpath.run"),
        "fastpath.trials": calls("fastpath.run"),
        "stats.aggregate_s": self_s("stats.aggregate"),
        "campaign.run_s": self_s("campaign.run"),
        "campaign.fallbacks": tag_sum("campaign.run", "fallbacks"),
        "dse.propose_s": self_s("dse.propose"),
        "dse.store_get_s": self_s("dse.store_get"),
        "dse.store_put_s": self_s("dse.store_put"),
        "trace.unaccounted_s": wall - top_level_seconds(spans),
    }
    for name in UNITS:
        if name in counts:
            values[name] = counts[name]
        values.setdefault(name, 0.0)
    if "cli.mc_s" in counts:
        values["trace.unaccounted_s"] = wall - counts["cli.mc_s"] \
            - counts["cli.logs_s"]
    return values

