"""Tests of Algorithm 1 and the synthesized schedules.

Every synthesized schedule is re-checked by the independent verifier;
round-minimality and latency-optimality are checked against hand
computations.
"""

import pytest

from repro.core import (
    Application,
    InfeasibleError,
    Mode,
    SchedulingConfig,
    latency_lower_bound,
    max_rounds,
    synthesize,
    verify_schedule,
)
from repro.workloads import fig3_control_app


class TestSimpleSynthesis:
    def test_single_message_needs_one_round(self, simple_mode, tight_config):
        sched = synthesize(simple_mode, tight_config)
        assert sched.num_rounds == 1
        assert verify_schedule(simple_mode, sched).ok

    def test_latency_hits_lower_bound(self, simple_mode, tight_config):
        sched = synthesize(simple_mode, tight_config)
        app = simple_mode.applications[0]
        bound = latency_lower_bound(app, tight_config.round_length)
        assert sched.app_latencies[app.name] == pytest.approx(bound, abs=1e-4)

    def test_round_minimality_iterations(self, simple_mode, tight_config):
        sched = synthesize(simple_mode, tight_config)
        stats = sched.solve_stats
        # Algorithm 1 tried R=0 (infeasible: one message must be served)
        # then R=1 (feasible).
        assert [it.num_rounds for it in stats.iterations] == [0, 1]
        assert [it.feasible for it in stats.iterations] == [False, True]

    def test_probe_evidence(self, simple_mode, tight_config):
        # R=0 is infeasible; R=1 meets eq. (13), so the accepted probe
        # is certified by the bound, and HiGHS reports its node count.
        sched = synthesize(simple_mode, tight_config)
        rejected, accepted = sched.solve_stats.iterations
        assert not rejected.bound_met
        assert accepted.bound_met
        assert accepted.nodes >= 1

    def test_no_bound_certificate_without_objective(self, simple_mode):
        config = SchedulingConfig(round_length=1.0, slots_per_round=5,
                                  max_round_gap=None, minimize_latency=False)
        accepted = synthesize(simple_mode, config).solve_stats.iterations[-1]
        assert accepted.feasible and not accepted.bound_met

    def test_task_only_mode_needs_zero_rounds(self, tight_config):
        app = Application("solo", period=10, deadline=10)
        app.add_task("t", node="n1", wcet=2)
        mode = Mode("m", [app])
        sched = synthesize(mode, tight_config)
        assert sched.num_rounds == 0
        assert verify_schedule(mode, sched).ok

    def test_schedule_contents(self, simple_mode, tight_config):
        sched = synthesize(simple_mode, tight_config)
        assert set(sched.task_offsets) == {"simple_s", "simple_a"}
        assert set(sched.message_offsets) == {"simple_m"}
        assert sched.rounds[0].messages == ["simple_m"]
        assert sched.hyperperiod == 20.0


class TestFig3Synthesis:
    def test_fig3_schedules_and_verifies(self, unit_config):
        app = fig3_control_app(period=20, deadline=20, sense_wcet=1,
                               control_wcet=2, act_wcet=1)
        mode = Mode("m", [app])
        sched = synthesize(mode, unit_config)
        assert verify_schedule(mode, sched).ok
        # m1 and m2 can share one round; m3 depends on control output,
        # so at least two rounds are necessary.
        assert sched.num_rounds == 2

    def test_fig3_multicast_single_slot(self, unit_config):
        app = fig3_control_app(period=20, deadline=20, sense_wcet=1,
                               control_wcet=2, act_wcet=1)
        mode = Mode("m", [app])
        sched = synthesize(mode, unit_config)
        # The multicast m3 occupies exactly one slot per hyperperiod
        # (Glossy floods reach every node).
        allocations = [r for r in sched.rounds if "ctrl_m3" in r.messages]
        assert len(allocations) == 1


class TestMultiAppSynthesis:
    def test_two_apps_share_rounds(self, tight_config):
        apps = []
        for i, sender in enumerate(["n1", "n3"]):
            app = Application(f"a{i}", period=20, deadline=20)
            app.add_task(f"a{i}_s", node=sender, wcet=1)
            app.add_task(f"a{i}_a", node=f"sink{i}", wcet=1)
            app.add_message(f"a{i}_m")
            app.connect(f"a{i}_s", f"a{i}_m")
            app.connect(f"a{i}_m", f"a{i}_a")
            apps.append(app)
        mode = Mode("m", apps)
        sched = synthesize(mode, tight_config)
        # Both messages fit in one 5-slot round.
        assert sched.num_rounds == 1
        assert verify_schedule(mode, sched).ok

    def test_slot_capacity_forces_more_rounds(self):
        # 3 messages, 1 slot per round -> 3 rounds.
        config = SchedulingConfig(
            round_length=1.0, slots_per_round=1, max_round_gap=None
        )
        apps = []
        for i in range(3):
            app = Application(f"a{i}", period=30, deadline=30)
            app.add_task(f"a{i}_s", node=f"src{i}", wcet=1)
            app.add_task(f"a{i}_a", node=f"dst{i}", wcet=1)
            app.add_message(f"a{i}_m")
            app.connect(f"a{i}_s", f"a{i}_m")
            app.connect(f"a{i}_m", f"a{i}_a")
            apps.append(app)
        mode = Mode("m", apps)
        sched = synthesize(mode, config)
        assert sched.num_rounds == 3
        assert verify_schedule(mode, sched).ok

    def test_different_periods(self, tight_config):
        fast = Application("fast", period=10, deadline=10)
        fast.add_task("fast_s", node="n1", wcet=0.5)
        fast.add_task("fast_a", node="n2", wcet=0.5)
        fast.add_message("fast_m")
        fast.connect("fast_s", "fast_m")
        fast.connect("fast_m", "fast_a")
        slow = Application("slow", period=20, deadline=20)
        slow.add_task("slow_s", node="n3", wcet=0.5)
        slow.add_task("slow_a", node="n4", wcet=0.5)
        slow.add_message("slow_m")
        slow.connect("slow_s", "slow_m")
        slow.connect("slow_m", "slow_a")
        mode = Mode("m", [fast, slow])
        sched = synthesize(mode, tight_config)
        assert sched.hyperperiod == 20.0
        # fast_m needs 2 slots per hyperperiod, slow_m needs 1.
        fast_allocs = sum(1 for r in sched.rounds if "fast_m" in r.messages)
        slow_allocs = sum(1 for r in sched.rounds if "slow_m" in r.messages)
        assert fast_allocs == 2
        assert slow_allocs == 1
        assert verify_schedule(mode, sched).ok


class TestNodeExclusivity:
    def test_same_node_tasks_serialized(self, tight_config):
        app = Application("a", period=20, deadline=20)
        app.add_task("t1", node="shared", wcet=3)
        app.add_task("t2", node="shared", wcet=3)
        mode = Mode("m", [app])
        sched = synthesize(mode, tight_config)
        assert verify_schedule(mode, sched).ok
        o1, o2 = sched.task_offsets["t1"], sched.task_offsets["t2"]
        assert abs(o1 - o2) >= 3 - 1e-6

    def test_cross_app_exclusivity(self, tight_config):
        apps = []
        for i in range(2):
            app = Application(f"a{i}", period=10, deadline=10)
            app.add_task(f"a{i}_t", node="shared", wcet=4)
            apps.append(app)
        mode = Mode("m", apps)
        sched = synthesize(mode, tight_config)
        assert verify_schedule(mode, sched).ok

    def test_overloaded_node_infeasible(self, tight_config):
        # Three 4-unit tasks on one node with period 10 cannot fit.
        apps = []
        for i in range(3):
            app = Application(f"a{i}", period=10, deadline=10)
            app.add_task(f"a{i}_t", node="shared", wcet=4)
            apps.append(app)
        mode = Mode("m", apps)
        with pytest.raises(InfeasibleError):
            synthesize(mode, tight_config)


class TestInfeasibility:
    def test_impossible_deadline(self, tight_config):
        # Chain needs 2 * wcet + Tr = 4 + 1 > deadline.
        app = Application("a", period=20, deadline=4.5)
        app.add_task("s", node="n1", wcet=2)
        app.add_task("t", node="n2", wcet=2)
        app.add_message("m")
        app.connect("s", "m")
        app.connect("m", "t")
        mode = Mode("m", [app])
        with pytest.raises(InfeasibleError) as err:
            synthesize(mode, tight_config)
        assert err.value.stats.iterations  # Algorithm 1 did iterate

    def test_round_too_long_for_period(self):
        config = SchedulingConfig(
            round_length=25.0, slots_per_round=5, max_round_gap=None
        )
        app = Application("a", period=20, deadline=20)
        app.add_task("s", node="n1", wcet=1)
        app.add_task("t", node="n2", wcet=1)
        app.add_message("m")
        app.connect("s", "m")
        app.connect("m", "t")
        mode = Mode("m", [app])
        # Rmax = floor(20/25) = 0: no room for any round.
        assert max_rounds(mode, config) == 0
        with pytest.raises(InfeasibleError):
            synthesize(mode, config)


class TestBackendsAgree:
    def test_bnb_backend_produces_valid_schedule(self, simple_mode):
        config = SchedulingConfig(
            round_length=1.0, slots_per_round=5, max_round_gap=None, backend="bnb"
        )
        sched = synthesize(simple_mode, config)
        assert sched.num_rounds == 1
        assert verify_schedule(simple_mode, sched).ok

    def test_backends_same_round_count_and_latency(self, unit_config):
        app = fig3_control_app(period=20, deadline=20, sense_wcet=1,
                               control_wcet=2, act_wcet=1)
        mode = Mode("m", [app])
        s_highs = synthesize(mode, unit_config)
        bnb_config = SchedulingConfig(
            round_length=1.0, slots_per_round=5, max_round_gap=30.0, backend="bnb"
        )
        s_bnb = synthesize(mode, bnb_config)
        assert s_highs.num_rounds == s_bnb.num_rounds
        assert s_highs.total_latency == pytest.approx(
            s_bnb.total_latency, abs=1e-4
        )


class TestHighsPresolveRegression:
    def test_seed_1797_round_minimal(self):
        """Regression: HiGHS presolve returns 'solve error' (status 4)
        on this instance's R=2 ILP; the backend must retry without
        presolve instead of treating the error as infeasibility, which
        would yield a non-round-minimal R=3 schedule."""
        from repro.core.ilp_builder import build_ilp
        from repro.milp import SolveStatus
        from repro.workloads import GeneratorConfig, WorkloadGenerator

        generator = WorkloadGenerator(
            GeneratorConfig(num_tasks=3, num_nodes=5, period_choices=(20.0,)),
            seed=1797,
        )
        mode = generator.mode("rand", 1)
        config = SchedulingConfig(round_length=1.0, slots_per_round=2,
                                  max_round_gap=None)
        sched = synthesize(mode, config)
        assert sched.num_rounds == 2
        assert verify_schedule(mode, sched).ok
        handles = build_ilp(mode, 1, config)
        assert handles.model.solve().status is SolveStatus.INFEASIBLE


class TestMaxRoundGap:
    def test_gap_constraint_respected(self):
        config = SchedulingConfig(
            round_length=1.0, slots_per_round=5, max_round_gap=8.0
        )
        app = Application("a", period=40, deadline=40)
        app.add_task("s", node="n1", wcet=1)
        app.add_task("t", node="n2", wcet=1)
        app.add_message("m")
        app.connect("s", "m")
        app.connect("m", "t")
        mode = Mode("m", [app])
        sched = synthesize(mode, config)
        assert verify_schedule(mode, sched).ok
        starts = [r.start for r in sched.rounds]
        for a, b in zip(starts, starts[1:]):
            assert b - a <= 8.0 + 1e-6

    def test_gap_bound_applies_between_scheduled_rounds(self):
        """Paper eq. (25) constrains consecutive rounds only.

        With two messages forced into different rounds (capacity 1),
        their spacing must respect Tmax.
        """
        config = SchedulingConfig(
            round_length=1.0, slots_per_round=1, max_round_gap=5.0
        )
        apps = []
        for i in range(2):
            app = Application(f"a{i}", period=40, deadline=40)
            app.add_task(f"a{i}_s", node=f"src{i}", wcet=1)
            app.add_task(f"a{i}_a", node=f"dst{i}", wcet=1)
            app.add_message(f"a{i}_m")
            app.connect(f"a{i}_s", f"a{i}_m")
            app.connect(f"a{i}_m", f"a{i}_a")
            apps.append(app)
        mode = Mode("m", apps)
        sched = synthesize(mode, config)
        assert sched.num_rounds == 2
        gap = sched.rounds[1].start - sched.rounds[0].start
        assert 1.0 - 1e-6 <= gap <= 5.0 + 1e-6
        assert verify_schedule(mode, sched).ok
