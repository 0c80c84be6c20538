"""The four benchmark workloads: inputs from a seed, one pass, output checks.

Every workload is a class with the same shape:

* ``__init__(seed, workdir)`` builds the inputs from the seed and does
  the set-up (cache fill, log writing, and a reduced untimed warm-up:
  see ``README.md``);
* ``run_pass(index)`` performs one timed pass through the public API
  (``repro.api``, ``repro.mc``, ``repro.dse``) or the ``repro.cli``
  command line, and returns its raw outputs;
* ``check(outputs)`` returns ``(attempted, failures)`` for that pass:
  one operation per mode / grid point / candidate / command, and one
  message per failed operation.

The program receives only the generated inputs; nothing here reaches
into ``src/``.  Pinned expectations live in ``pinned.json`` and are
rebuilt by ``pin.py``.
"""

from __future__ import annotations

import json
import math
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"

#: The seed whose inputs reproduce the pinned round counts, objectives,
#: reference statistics and Pareto front exactly.
DEFAULT_SEED = 0
# Seed 1 was held out while the benchmark was written: a change that
# claims a gain must also show it there.

#: Generator seed of the random mode: the quickest of seeds 3, 7 and 11,
#: so that a 28 s run holds at least five passes.
GENERATOR_SEEDS = (3,)
#: Trial master seed at the default seed (the design-space example's).
TRIAL_MASTER = 42


def load_pinned() -> dict:
    return json.loads(PINNED.read_text())


def _seed_rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench:{purpose}:{seed}")


def trial_master(seed: int) -> int:
    """Trial master seed of a benchmark seed (``TRIAL_MASTER`` at 0)."""
    if seed == DEFAULT_SEED:
        return TRIAL_MASTER
    return _seed_rng(seed, "trials").randrange(1, 2**31)


def relabel_mode(mode, seed: int):
    """An isomorphic copy of ``mode``: node names permuted and the
    application order shuffled by ``seed`` (identity at the default
    seed).

    Round counts and optimal objectives are invariant under the
    relabelling, so every seed has the same input size and the same
    pinned answers while the ILP the solver sees (variable and
    constraint order) changes with the seed.
    """
    from repro.io import mode_from_dict, mode_to_dict

    if seed == DEFAULT_SEED:
        return mode
    rng = _seed_rng(seed, f"relabel:{mode.name}")
    data = mode_to_dict(mode)
    nodes = sorted({task["node"] for app in data["applications"]
                    for task in app["tasks"]})
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    rename = dict(zip(nodes, shuffled))
    for app in data["applications"]:
        for task in app["tasks"]:
            task["node"] = rename[task["node"]]
    rng.shuffle(data["applications"])
    return mode_from_dict(data)


# -- synth_modes -------------------------------------------------------------


def synth_modes_inputs(seed: int):
    """One scenario per mode, on exact highs, relabelled by ``seed``."""
    from repro.api import Scenario
    from repro.core import Mode, SchedulingConfig
    from repro.workloads import (
        GeneratorConfig,
        WorkloadGenerator,
        closed_loop_pipeline,
        industrial_mode,
    )

    def config(slots: int) -> SchedulingConfig:
        return SchedulingConfig(round_length=1.0, slots_per_round=slots,
                                max_round_gap=None, backend="highs")

    modes = []
    for gen_seed in GENERATOR_SEEDS:
        generator = WorkloadGenerator(
            GeneratorConfig(num_tasks=4, num_nodes=6,
                            period_choices=(20.0, 40.0)),
            seed=gen_seed,
        )
        modes.append((generator.mode(f"gen{gen_seed}", 2), 5))
    modes.append((industrial_mode(num_loops=2, base_period=100.0,
                                  name="industrial"), 5))
    pipes = [closed_loop_pipeline(f"p{i}", period=40.0, deadline=40.0,
                                  num_hops=2) for i in range(4)]
    modes.append((Mode("pipelines", pipes), 2))
    return [
        Scenario(name=mode.name, modes=[relabel_mode(mode, seed)],
                 config=config(slots))
        for mode, slots in modes
    ]


class SynthModes:
    """Solver-bound: Algorithm 1 on three modes, fresh cache per pass."""

    name = "synth_modes"
    jobs = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.scenarios = synth_modes_inputs(seed)
        self.pinned = load_pinned()["synth_modes"]
        # Warm-up: one tiny synthesis pulls in the solver stack (the
        # lazy scipy.optimize import) without solving the pass's ILPs.
        from repro.api import Experiment, Scenario
        from repro.core import Mode, SchedulingConfig
        from repro.workloads import closed_loop_pipeline

        tiny = Scenario(
            name="warmup",
            modes=[Mode("warmup", [closed_loop_pipeline(
                "w", period=20.0, deadline=20.0, num_hops=1)])],
            config=SchedulingConfig(round_length=1.0, slots_per_round=5,
                                    max_round_gap=None, backend="highs"),
        )
        Experiment([tiny], jobs=1).run(simulate=False)

    def items_per_pass(self) -> int:
        return len(self.scenarios)

    def run_pass(self, index: int):
        from repro.api import Experiment
        from repro.engine import ScheduleCache

        cache = ScheduleCache(self.workdir / f"cache-{index}")
        try:
            return Experiment(self.scenarios, jobs=self.jobs,
                              cache=cache).run(simulate=False)
        finally:
            shutil.rmtree(self.workdir / f"cache-{index}",
                          ignore_errors=True)

    def counts(self, result) -> Dict[str, float]:
        return {"synthesis.solver_runs": result.stats.solver_runs}

    def check(self, result) -> Tuple[int, List[str]]:
        from repro.core import latency_lower_bound
        from repro.core.synthesis import demand_round_bound

        failures = []
        for scenario in self.scenarios:
            name = scenario.name
            try:
                scenario_result = result[name]
                mode = scenario.modes[0]
                schedule = scenario_result.schedules[mode.name]
                iterations = schedule.solve_stats.iterations
            except (KeyError, AttributeError) as exc:
                failures.append(f"{name}: no schedule ({exc!r})")
                continue
            problems = []
            if not scenario_result.verified:
                problems.append("verification failed")
            config = scenario.effective_config
            first = demand_round_bound(mode, config)
            probed = [it.num_rounds for it in iterations]
            if probed != list(range(first, schedule.num_rounds + 1)):
                problems.append(f"probed R={probed}, expected "
                                f"{first}..{schedule.num_rounds}")
            if any(it.feasible for it in iterations[:-1]) or not (
                    iterations and iterations[-1].feasible):
                problems.append("only the last probe may be feasible")
            bound = sum(latency_lower_bound(app, config.round_length)
                        for app in mode.applications)
            if schedule.total_latency < bound - 1e-6:
                problems.append(f"objective {schedule.total_latency} below "
                                f"the eq.-13 bound {bound}")
            expected = self.pinned[name]
            if schedule.num_rounds != expected["rounds"]:
                problems.append(f"rounds {schedule.num_rounds} != pinned "
                                f"{expected['rounds']}")
            if not math.isclose(schedule.total_latency, expected["objective"],
                                rel_tol=1e-6, abs_tol=1e-6):
                problems.append(f"objective {schedule.total_latency} != "
                                f"pinned {expected['objective']}")
            if problems:
                failures.append(f"{name}: " + "; ".join(problems))
        return len(self.scenarios), failures


# -- mc_sweep ----------------------------------------------------------------

MC_SWEEP = {"data_loss": [0.0, 0.05, 0.1]}
MC_TRIALS = {"gated": 3000, "belief": 75}
MC_DURATION = 40000.0


def mc_sweep_scenarios(seed: int, trials: Dict[str, int] = MC_TRIALS):
    from repro.api import LossSpec, RadioSpec, Scenario, SimulationSpec
    from repro.core import SchedulingConfig
    from repro.workloads import industrial_mode

    master = trial_master(seed)
    policies = {"gated": "beacon_gated", "belief": "local_belief"}
    return [
        Scenario(
            name=name,
            modes=[industrial_mode(num_loops=2, base_period=100.0)],
            config=SchedulingConfig(round_length=1.0, slots_per_round=5,
                                    max_round_gap=None, backend="highs"),
            radio=RadioSpec(payload_bytes=10, diameter=4),
            loss=LossSpec("bernoulli", {"beacon_loss": 0.03,
                                        "data_loss": 0.05, "seed": master}),
            simulation=SimulationSpec(duration=MC_DURATION, policy=policy,
                                      trials=trials[name], seed=master),
        )
        for name, policy in policies.items()
    ]


def run_mc_sweep(scenarios, cache, engine: str = "vectorized"):
    from repro.mc import run_campaigns

    return run_campaigns(scenarios, sweep=MC_SWEEP, jobs=1, cache=cache,
                         engine=engine)


class McSweep:
    """Kernel-bound: two loss sweeps over a cached schedule."""

    name = "mc_sweep"
    jobs = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.engine import ScheduleCache
        from repro.mc import CampaignStats

        self.scenarios = mc_sweep_scenarios(seed)
        self.cache = ScheduleCache(workdir / "cache")
        self.reference = {
            (entry["scenario"], entry["data_loss"]):
                CampaignStats.from_dict(entry["stats"])
            for entry in load_pinned()["mc_sweep"]
        }
        # Set-up fills the schedule cache and warms both kernels on a
        # short campaign (same scenarios, a handful of trials).
        run_mc_sweep(mc_sweep_scenarios(seed, {"gated": 8, "belief": 2}),
                     self.cache)

    def items_per_pass(self) -> int:
        return sum(MC_TRIALS.values()) * len(MC_SWEEP["data_loss"])

    def run_pass(self, index: int):
        return run_mc_sweep(self.scenarios, self.cache)

    def counts(self, result) -> Dict[str, float]:
        return {"synthesis.solver_runs": result.stats.solver_runs}

    def check(self, result) -> Tuple[int, List[str]]:
        from repro.mc import EquivalenceError, assert_distribution_equivalent

        points = list(result)
        expected = len(self.scenarios) * len(MC_SWEEP["data_loss"])
        if not result.verified:
            return expected, ["schedules failed verification"] * expected
        failures = ["grid point missing"] * (expected - len(points))
        for point in points:
            label = f"{point.scenario}@data_loss={point.point['data_loss']}"
            if point.stats.collisions:
                failures.append(f"{label}: {point.stats.collisions} "
                                f"collisions")
                continue
            reference = self.reference[(point.scenario,
                                        point.point["data_loss"])]
            try:
                assert_distribution_equivalent(point, reference, label=label)
            except EquivalenceError as exc:
                failures.append(str(exc))
        return expected, failures


# -- explore_grid ------------------------------------------------------------

EXPLORE_PAYLOADS = (10, 32, 64)
EXPLORE_SLOTS = (1, 2, 5, 10, 20)
EXPLORE_TRIALS = 10
EXPLORE_OBJECTIVES = ("energy_saving", "latency", "miss")


def design_space(seed: int, payloads=EXPLORE_PAYLOADS, slots=EXPLORE_SLOTS):
    """The ``examples/design_space.py`` space, on exact highs."""
    from repro.api import LossSpec, RadioSpec, Scenario, SimulationSpec
    from repro.core import Mode, SchedulingConfig
    from repro.dse import Axis, Space
    from repro.workloads import closed_loop_pipeline

    master = trial_master(seed)
    app = closed_loop_pipeline("loop", period=2000.0, deadline=2000.0,
                               num_hops=2, wcet=1.0)
    base = Scenario(
        name="design-space",
        modes=[Mode("normal", [app])],
        config=SchedulingConfig(round_length=50.0, slots_per_round=5,
                                max_round_gap=None, backend="highs"),
        radio=RadioSpec(payload_bytes=10, diameter=4),
        loss=LossSpec("bernoulli", {"beacon_loss": 0.02, "data_loss": 0.02,
                                    "seed": master}),
        simulation=SimulationSpec(duration=6000.0, trials=EXPLORE_TRIALS,
                                  seed=master),
    )
    return Space(
        base=base,
        axes=[Axis("payload", "payload", list(payloads)),
              Axis("B", "slots", list(slots))],
        derive="glossy_timing",
    )


def front_keys(result) -> List[List[int]]:
    """The Pareto front as sorted ``[payload, B]`` pairs."""
    return sorted([candidate.assignment["payload"], candidate.assignment["B"]]
                  for candidate in result.front)


def explore_space(space, workdir: Path, tag: str, jobs: int):
    """One ``repro.dse.explore`` pass on a fresh store and cache."""
    from repro.dse import explore

    store = workdir / f"store-{tag}.jsonl"
    cache = workdir / f"cache-{tag}"
    try:
        return explore(space, sampler="grid", objectives=EXPLORE_OBJECTIVES,
                       jobs=jobs, cache_dir=cache, store=store)
    finally:
        store.unlink(missing_ok=True)
        shutil.rmtree(cache, ignore_errors=True)


class ExploreGrid:
    """Per-call-cost-bound: 15 tiny candidates over a two-worker pool."""

    name = "explore_grid"
    jobs = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.space = design_space(seed)
        self.front = load_pinned()["explore_grid"]["front"]
        # Warm-up: one candidate through the same pool/store path.
        explore_space(design_space(seed, payloads=(10,), slots=(5,)),
                      workdir, "warmup", self.jobs)

    def items_per_pass(self) -> int:
        return self.space.size

    def run_pass(self, index: int):
        return explore_space(self.space, self.workdir, str(index), self.jobs)

    def counts(self, result) -> Dict[str, float]:
        return {"synthesis.solver_runs": result.stats.solver_runs,
                "dse.executed": result.executed,
                "dse.reused": result.reused}

    def check(self, result) -> Tuple[int, List[str]]:
        failures = [f"{candidate.name}: {candidate.error}"
                    for candidate in result.candidates
                    if candidate.error is not None]
        if len(result.candidates) != self.space.size:
            failures.append(f"{len(result.candidates)} candidates, expected "
                            f"{self.space.size}")
        if result.executed != self.space.size:
            failures.append(f"executed {result.executed} of "
                            f"{self.space.size} on a fresh store")
        keys = front_keys(result)
        if keys != self.front:
            failures.append(f"front {keys} != pinned {self.front}")
        return self.space.size, failures


# -- cold_cli ----------------------------------------------------------------

QUICKSTART = ROOT / "examples" / "quickstart.scenario.json"
CLI_TRIALS = 200
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import repro; "
    "t1 = time.perf_counter(); import scipy.optimize; "
    "print(t1 - t0, time.perf_counter() - t1)"
)
_ROW = re.compile(r"^\s*quickstart\s+(\d+)\s.*\s(\d+)\s*$", re.MULTILINE)


def cli_env() -> dict:
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(args: List[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro.cli", *args],
                          cwd=cwd, env=cli_env(), capture_output=True,
                          text=True, timeout=120)


class ColdCli:
    """Startup-bound: two CLI commands, each in a fresh interpreter."""

    name = "cold_cli"
    jobs = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        data = json.loads(QUICKSTART.read_text())
        master = trial_master(seed)
        data["simulation"]["seed"] = master
        data["loss"]["params"]["seed"] = master
        self.scenario = workdir / "quickstart.scenario.json"
        self.scenario.write_text(json.dumps(data))
        self.logs = workdir / "logs"
        # Set-up writes the log ``logs summarize`` reads, through the
        # same ``scenario mc`` command (which also warms the file cache).
        # A failure here shows up in every pass's checks.
        run_cli(self._mc_args("setup") + ["--log-dir", str(self.logs)],
                workdir)

    def _mc_args(self, tag: str) -> List[str]:
        return ["scenario", "mc", str(self.scenario), "--engine",
                "vectorized", "--trials", str(CLI_TRIALS), "--cache-dir",
                str(self.workdir / f"cache-{tag}")]

    def items_per_pass(self) -> int:
        return 2

    def run_pass(self, index: int):
        import time

        outputs = {}
        for command, args in (("mc", self._mc_args(str(index))),
                              ("logs", ["logs", "summarize",
                                        str(self.logs)])):
            started = time.perf_counter()
            done = run_cli(args, self.workdir)
            outputs[command] = (done, time.perf_counter() - started)
        shutil.rmtree(self.workdir / f"cache-{index}", ignore_errors=True)
        return outputs

    def counts(self, outputs) -> Dict[str, float]:
        """Both commands' wall times plus a fresh-interpreter import
        probe; the probe runs after the pass, outside its timing."""
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=cli_env(),
            capture_output=True, text=True, timeout=120, check=True)
        repro_s, scipy_s = (float(x) for x in probe.stdout.split())
        mc_s = outputs["mc"][1]
        return {"cli.mc_s": mc_s, "cli.logs_s": outputs["logs"][1],
                "import.repro_s": repro_s,
                "import.scipy_optimize_s": scipy_s,
                "cli.other_s": mc_s - repro_s - scipy_s}

    def check(self, outputs) -> Tuple[int, List[str]]:
        failures = []
        for command, (done, _seconds) in outputs.items():
            if done.returncode != 0:
                failures.append(f"{command}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-200:]}")
        mc, _ = outputs["mc"]
        if mc.returncode == 0:
            match = _ROW.search(mc.stdout)
            if match is None:
                failures.append("mc: no quickstart table row")
            elif (int(match.group(1)), int(match.group(2))) != (CLI_TRIALS, 0):
                failures.append(f"mc: row trials={match.group(1)} "
                                f"collisions={match.group(2)}")
        logs, _ = outputs["logs"]
        if logs.returncode == 0 and "campaign.end" not in logs.stdout:
            failures.append("logs: summary lacks the campaign.end event")
        return 2, failures


WORKLOADS = {cls.name: cls for cls in (SynthModes, McSweep, ExploreGrid,
                                       ColdCli)}
