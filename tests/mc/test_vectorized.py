"""Determinism, fallback, and plumbing of the vectorized engine.

Three claims beyond distribution equivalence (which
``test_equivalence.py`` owns):

* **Determinism** — equal seeds give byte-identical results however
  the trials are batched: one call vs split calls, tiny tensor chunks,
  ``jobs=1`` vs a process pool, repeated runs.
* **Fallback** — ``engine="vectorized"`` never errors on unsupported
  features; it resolves down the ``vectorized -> fast -> reference``
  ladder and the campaign/CLI report what actually ran.
* **Plumbing** — the batch executor produces exactly the per-trial
  payload shape the aggregator expects, on both the tensor path and
  the scalar-fallback path.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import (
    LossSpec,
    RadioSpec,
    Scenario,
    SimulationSpec,
    TopologySpec,
)
from repro.api.experiment import synthesize_scenarios
from repro.cli import main
from repro.core import Mode, SchedulingConfig
from repro.core.app_model import Application
from repro.mc import run_campaign
from repro.mc import vectorized as vectorized_module
from repro.mc.campaign import scenario_context
from repro.mc.vectorized import VectorizeError, run_trials_vectorized
from repro.runtime.trial import (
    build_context,
    execute_trial,
    execute_trial_batch,
    run_trial,
    trial_engine,
)


def pipeline(name: str, period: float, nodes) -> Application:
    """A sense→…→act pipeline with tasks mapped to explicit nodes."""
    app = Application(name, period=period, deadline=period)
    previous = None
    for index, node in enumerate(nodes):
        task = f"{name}_t{index}"
        app.add_task(task, node=node, wcet=1.0)
        if previous is not None:
            message = f"{name}_m{index - 1}"
            app.add_message(message)
            app.connect(previous, message)
            app.connect(message, task)
        previous = task
    return app


def switching_scenario(**overrides) -> Scenario:
    """Two modes, runtime mode requests — the fast-path test scenario."""
    normal = Mode("normal", [
        pipeline("a", 20.0, ["n0", "n1", "n2"]),
        pipeline("c", 40.0, ["n2", "n3"]),
    ])
    degraded = Mode("degraded", [pipeline("b", 40.0, ["n3", "n0"])])
    base = dict(
        name="switchy",
        modes=[normal, degraded],
        transitions=[("normal", "degraded"), ("degraded", "normal")],
        config=SchedulingConfig(round_length=1.0, slots_per_round=5,
                                max_round_gap=None),
        backend="greedy",
        simulation=SimulationSpec(
            duration=2000.0,
            mode_requests=((300.0, "degraded"), (900.0, "normal")),
        ),
    )
    base.update(overrides)
    return Scenario(**base)


def context_for(scenario: Scenario):
    schedules, reports, _ = synthesize_scenarios([scenario])
    assert all(r.ok for r in reports[scenario.name].values())
    return build_context(scenario_context(scenario, schedules[scenario.name]))


BERNOULLI = {"beacon_loss": 0.15, "data_loss": 0.1}


@pytest.fixture(scope="module")
def gated_context():
    return context_for(switching_scenario(loss=None))


def belief_scenario(**overrides) -> Scenario:
    scenario = switching_scenario(**overrides)
    return dataclasses.replace(
        scenario,
        simulation=dataclasses.replace(
            scenario.simulation, policy="local_belief"
        ),
    )


@pytest.fixture(scope="module")
def belief_context():
    return context_for(belief_scenario(
        loss=None, radio=RadioSpec(payload_bytes=16, diameter=3),
    ))


class TestDeterminism:
    def dicts(self, results):
        return [result.to_dict() for result in results]

    def test_batch_split_invariance(self, gated_context):
        """One call over all seeds == any split of the seed list —
        the invariant the campaign batching relies on."""
        seeds = list(range(10))
        whole = run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, seeds
        )
        split = run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, seeds[:3]
        ) + run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, seeds[3:]
        )
        assert self.dicts(whole) == self.dicts(split)

    def test_repeated_runs_identical(self, gated_context):
        first = run_trials_vectorized(
            gated_context, "gilbert_elliott", {}, [5, 6, 7]
        )
        second = run_trials_vectorized(
            gated_context, "gilbert_elliott", {}, [5, 6, 7]
        )
        assert self.dicts(first) == self.dicts(second)

    def test_tensor_chunking_cannot_change_results(
        self, gated_context, monkeypatch
    ):
        """A one-trial-per-chunk budget must reproduce the unchunked
        results exactly — every trial owns its generator."""
        seeds = list(range(6))
        unchunked = run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, seeds
        )
        monkeypatch.setattr(vectorized_module, "TENSOR_BUDGET_BYTES", 1)
        chunked = run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, seeds
        )
        assert self.dicts(unchunked) == self.dicts(chunked)

    def test_negative_seeds_are_deterministic(self, gated_context):
        """``random.Random`` accepts negative seeds, numpy does not;
        the kernel must normalize rather than crash, reproducibly."""
        first = run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, [-5, -1]
        )
        second = run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, [-5, -1]
        )
        assert self.dicts(first) == self.dicts(second)

    def test_unseeded_trials_run(self, gated_context):
        results = run_trials_vectorized(
            gated_context, "bernoulli", BERNOULLI, [None, None]
        )
        assert len(results) == 2
        assert all(result.rounds > 0 for result in results)

    def make_scenario(self):
        return switching_scenario(
            loss=LossSpec("bernoulli", dict(BERNOULLI)),
            simulation=SimulationSpec(
                duration=1000.0, trials=12, seed=11,
                mode_requests=((300.0, "degraded"),),
            ),
        )

    def test_campaign_pooled_equals_in_process(self, tmp_path):
        """``jobs=1`` vs a real process pool: byte-identical campaign
        images, both on the vectorized engine."""
        kwargs = dict(cache_dir=tmp_path / "cache", engine="vectorized",
                      sweep={"data_loss": [0.0, 0.2]})
        solo = run_campaign(self.make_scenario(), jobs=1, **kwargs)
        pooled = run_campaign(self.make_scenario(), jobs=3, **kwargs)
        assert solo.engines == pooled.engines == {"switchy": "vectorized"}
        assert solo.to_dict()["points"] == pooled.to_dict()["points"]

    def test_campaign_repeat_identical(self, tmp_path):
        first = run_campaign(self.make_scenario(), jobs=1,
                             cache_dir=tmp_path / "a", engine="vectorized")
        second = run_campaign(self.make_scenario(), jobs=1,
                              cache_dir=tmp_path / "b", engine="vectorized")
        assert first.to_dict()["points"] == second.to_dict()["points"]


class TestFallbackLadder:
    def test_supported_scenario_resolves_vectorized(self, gated_context):
        for kind in (None, "perfect", "bernoulli", "gilbert_elliott",
                     "scripted_beacon", "trace_replay"):
            assert trial_engine(gated_context, kind, "vectorized") == \
                "vectorized"

    def test_glossy_falls_back_to_fast(self):
        """Glossy floods are topology-sequential — no vector sampler —
        but the fast path handles them, so the ladder stops there."""
        context = context_for(switching_scenario(
            loss=None, topology=TopologySpec("line", {"num_nodes": 4}),
        ))
        assert trial_engine(context, "glossy", "vectorized") == "fast"
        params = {"link_success": 0.9, "seed": 3}
        via_vectorized = run_trial(context, "glossy", params,
                                   engine="vectorized")
        via_fast = run_trial(context, "glossy", params, engine="fast")
        assert via_vectorized.to_dict() == via_fast.to_dict()

    def test_local_belief_resolves_vectorized(self, belief_context):
        """The host drives the round sequence under LOCAL_BELIEF too, so
        the timeline unrolls and every vector loss kind stays on the
        tensor kernel; only who transmits depends on the loss draws."""
        assert belief_context.timeline() is not None
        assert belief_context.timeline_error is None
        for kind in (None, "perfect", "bernoulli", "gilbert_elliott",
                     "scripted_beacon", "trace_replay", "matrix_trace",
                     "time_varying", "interference"):
            assert trial_engine(belief_context, kind, "vectorized") == \
                "vectorized"
        params = {"beacon_loss": 0.3, "data_loss": 0.1, "seed": 2}
        via_vectorized = run_trial(belief_context, "bernoulli", params,
                                   engine="vectorized")
        assert via_vectorized.rounds == run_trial(
            belief_context, "bernoulli", params, engine="fast"
        ).rounds

    def test_uncompilable_context_falls_back_to_reference(self, monkeypatch):
        from repro.runtime.compiled import CompileError

        def refuse(*args, **kwargs):
            raise CompileError("deliberately unsupported")

        monkeypatch.setattr("repro.runtime.compiled.compile_program", refuse)
        context = context_for(switching_scenario(loss=None))
        assert context.timeline() is None
        assert trial_engine(context, "bernoulli", "vectorized") == "reference"
        params = {"beacon_loss": 0.1, "seed": 1}
        via_vectorized = run_trial(context, "bernoulli", params,
                                   engine="vectorized")
        reference = run_trial(context, "bernoulli", params,
                              engine="reference")
        assert via_vectorized.to_dict() == reference.to_dict()

    def test_foreign_host_falls_back_to_reference(self):
        scenario = switching_scenario(
            loss=None,
            simulation=SimulationSpec(duration=500.0,
                                      host_node="base_station"),
        )
        context = context_for(scenario)
        assert context.compiled() is not None  # compiles fine ...
        assert trial_engine(context, "bernoulli", "vectorized") == \
            "reference"  # ... but the host cannot be masked
        params = {"beacon_loss": 0.2, "data_loss": 0.1, "seed": 4}
        via_vectorized = run_trial(context, "bernoulli", params,
                                   engine="vectorized")
        reference = run_trial(context, "bernoulli", params,
                              engine="reference")
        assert via_vectorized.to_dict() == reference.to_dict()

    def test_unknown_loss_kind_falls_back_to_reference(
        self, gated_context, monkeypatch
    ):
        from repro.runtime import loss as loss_module

        class EveryOtherBeacon:
            def __init__(self):
                self.count = 0

            def beacon_receivers(self, host, nodes):
                self.count += 1
                return set(nodes) if self.count % 2 else {host}

            def data_receivers(self, sender, nodes, payload_bytes):
                return set(nodes)

        monkeypatch.setitem(
            loss_module._LOSS_KINDS, "every_other", (EveryOtherBeacon, False)
        )
        assert trial_engine(gated_context, "every_other", "vectorized") == \
            "reference"

    def test_kernel_refuses_unsupported_inputs(self, gated_context):
        """Called directly (below the ladder), the kernel raises the
        typed error the engine resolution gates on."""
        with pytest.raises(VectorizeError, match="no vectorized sampler"):
            run_trials_vectorized(gated_context, "glossy",
                                  {"link_success": 0.9}, [1])
        foreign = context_for(switching_scenario(
            loss=None,
            simulation=SimulationSpec(duration=500.0,
                                      host_node="base_station"),
        ))
        with pytest.raises(VectorizeError, match="outside the compiled"):
            run_trials_vectorized(foreign, "bernoulli", BERNOULLI, [1])

    def test_campaign_records_fallback_engine(self, tmp_path):
        """A glossy campaign requested as vectorized reports — and is
        bit-identical to — the fast engine."""
        def scenario():
            return switching_scenario(
                loss=LossSpec("glossy", {"link_success": 0.9}),
                topology=TopologySpec("line", {"num_nodes": 4}),
                simulation=SimulationSpec(duration=800.0, trials=6, seed=9),
            )

        requested = run_campaign(scenario(), cache_dir=tmp_path / "cache",
                                 engine="vectorized")
        fast = run_campaign(scenario(), cache_dir=tmp_path / "cache",
                            engine="fast")
        assert requested.engines == {"switchy": "fast"}
        assert requested.to_dict()["points"] == fast.to_dict()["points"]


class TestLocalBelief:
    """The belief pass against the bit-exact fast engine.  With a
    deterministic loss kind nothing is left to sample, so every
    deterministic field must match exactly — collisions included."""

    TRACE = {"beacon": [["n1"], ["n0", "n1", "n2"], []],
             "data": [["n0", "n1", "n2"], ["n2"]], "cycle": True}

    def stale_belief_drops(self, context):
        """n3 misses the SB beacon and the first new-mode beacon of both
        mode changes, so it transmits on its old-mode belief."""
        triggers = np.flatnonzero(context.timeline().trigger_uid >= 0)
        assert len(triggers) == 2
        drops = {str(r + k): ["n3"] for r in triggers for k in (0, 1)}
        drops["3"] = ["n1", "n2"]
        return {"drops": drops}

    @pytest.mark.parametrize("kind", ["perfect", "scripted_beacon",
                                      "trace_replay"])
    def test_deterministic_kinds_match_fast(self, belief_context, kind):
        params = {
            "perfect": {},
            "scripted_beacon": self.stale_belief_drops(belief_context),
            "trace_replay": self.TRACE,
        }[kind]
        [vec] = run_trials_vectorized(belief_context, kind, params, [1])
        fast = run_trial(belief_context, kind, params, engine="fast")
        for field in ("rounds", "collisions", "beacon_heard", "messages",
                      "chains", "switch_delays"):
            assert getattr(vec, field) == getattr(fast, field), field
        assert vec.radio_on == pytest.approx(fast.radio_on, rel=1e-12)
        assert sum(fast.radio_on.values()) > 0.0
        if kind == "scripted_beacon":
            assert fast.collisions > 0  # the stale belief collides


class TestExecutors:
    def make_context(self):
        return context_for(switching_scenario(
            loss=LossSpec("bernoulli", dict(BERNOULLI)),
        ))

    def test_execute_trial_echoes_engine_used(self):
        context = self.make_context()
        payload = execute_trial(context, {
            "loss": {"kind": "bernoulli", "params": dict(BERNOULLI, seed=5)},
            "engine": "vectorized", "trial": 3, "seed": 5,
            "point": 0, "scenario": "switchy",
        })
        assert payload["engine_used"] == "vectorized"
        assert payload["trial"] == 3 and payload["seed"] == 5
        assert payload["point"] == 0 and payload["scenario"] == "switchy"

    def test_batch_matches_kernel(self):
        context = self.make_context()
        outcome = execute_trial_batch(context, {
            "scenario": "switchy", "point": 1,
            "trials": [(0, 21), (1, 22), (2, 23)],
            "loss": {"kind": "bernoulli", "params": dict(BERNOULLI)},
            "engine": "vectorized",
        })
        assert outcome["engine_used"] == "vectorized"
        direct = run_trials_vectorized(
            context, "bernoulli", dict(BERNOULLI), [21, 22, 23]
        )
        assert len(outcome["results"]) == 3
        for index, (payload, result) in enumerate(
            zip(outcome["results"], direct)
        ):
            assert payload["trial"] == index
            assert payload["seed"] == 21 + index
            assert payload["engine_used"] == "vectorized"
            assert payload["point"] == 1
            assert payload["scenario"] == "switchy"
            expected = result.to_dict()
            assert {k: payload[k] for k in expected} == expected

    def test_batch_scalar_fallback_is_bit_identical(self):
        """When the ladder resolves below vectorized, the batch path
        must reproduce the per-trial task path bit for bit —
        including the per-trial reseeding."""
        context = context_for(switching_scenario(
            loss=LossSpec("glossy", {"link_success": 0.9}),
            topology=TopologySpec("line", {"num_nodes": 4}),
        ))
        outcome = execute_trial_batch(context, {
            "scenario": "switchy", "point": 0,
            "trials": [(0, 5), (1, 6)],
            "loss": {"kind": "glossy", "params": {"link_success": 0.9}},
            "engine": "vectorized",
        })
        assert outcome["engine_used"] == "fast"
        for payload, seed in zip(outcome["results"], [5, 6]):
            per_trial = execute_trial(context, {
                "loss": {"kind": "glossy",
                         "params": {"link_success": 0.9, "seed": seed}},
                "engine": "fast",
            })
            assert payload["engine_used"] == "fast"
            for key in ("messages", "rounds", "radio_on", "chains"):
                assert payload[key] == per_trial[key]


class TestCliEngineReporting:
    def save_scenario(self, tmp_path, **overrides):
        scenario = switching_scenario(
            loss=LossSpec("bernoulli", dict(BERNOULLI)),
            simulation=SimulationSpec(duration=400.0, trials=3, seed=7),
            **overrides,
        )
        path = tmp_path / "vec.scenario.json"
        scenario.save(path)
        return path

    def test_cli_reports_vectorized_engine(self, tmp_path, capsys):
        path = self.save_scenario(tmp_path)
        assert main(["scenario", "mc", str(path), "--trials", "3",
                     "--backend", "greedy", "--engine", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "trial engine: vectorized" in out
        assert "(requested" not in out

    def test_cli_reports_fallback_with_requested_engine(
        self, tmp_path, capsys
    ):
        """When vectorized falls back, the CLI must say what ran *and*
        what was asked for (glossy floods have no vector sampler)."""
        scenario = switching_scenario(
            loss=LossSpec("glossy", {"link_success": 0.9}),
            topology=TopologySpec("line", {"num_nodes": 4}),
            simulation=SimulationSpec(duration=400.0, trials=3, seed=7),
        )
        path = tmp_path / "glossy.scenario.json"
        scenario.save(path)
        assert main(["scenario", "mc", str(path), "--trials", "3",
                     "--backend", "greedy", "--engine", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "trial engine: fast (requested vectorized)" in out

    def test_cli_reports_vectorized_local_belief(self, tmp_path, capsys):
        scenario = belief_scenario(
            loss=LossSpec("bernoulli", dict(BERNOULLI)),
            simulation=SimulationSpec(duration=400.0, trials=3, seed=7),
        )
        path = tmp_path / "belief.scenario.json"
        scenario.save(path)
        assert main(["scenario", "mc", str(path), "--trials", "3",
                     "--backend", "greedy", "--engine", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "trial engine: vectorized" in out
        assert "(requested" not in out

    def test_cli_default_engine_unchanged(self, tmp_path, capsys):
        path = self.save_scenario(tmp_path)
        assert main(["scenario", "mc", str(path), "--trials", "3",
                     "--backend", "greedy"]) == 0
        out = capsys.readouterr().out
        assert "trial engine: fast" in out
        assert "(requested" not in out

    def test_cli_json_records_trial_engines(self, tmp_path, capsys):
        path = self.save_scenario(tmp_path)
        out_json = tmp_path / "stats.json"
        assert main(["scenario", "mc", str(path), "--trials", "3",
                     "--backend", "greedy", "--engine", "vectorized",
                     "--json", str(out_json)]) == 0
        capsys.readouterr()
        payload = json.loads(out_json.read_text())
        assert payload["trial_engines"] == {"switchy": "vectorized"}
