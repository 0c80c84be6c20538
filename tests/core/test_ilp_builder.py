"""Tests of the ILP formulation itself (variable sets, constraint counts,
and reactions to degenerate inputs)."""

import pytest

from repro.core import Application, Mode, SchedulingConfig, latency_lower_bound
from repro.core.ilp_builder import build_ilp
from repro.milp import SolveStatus


@pytest.fixture
def mode(simple_app):
    return Mode("m", [simple_app])


class TestVariableSets:
    def test_variable_groups_present(self, mode, tight_config):
        handles = build_ilp(mode, num_rounds=1, config=tight_config)
        assert set(handles.task_offset) == {"simple_s", "simple_a"}
        assert set(handles.msg_offset) == {"simple_m"}
        assert set(handles.msg_deadline) == {"simple_m"}
        assert set(handles.leftover) == {"simple_m"}
        assert len(handles.round_start) == 1
        assert (0, "simple_m") in handles.alloc
        assert ("simple_m", 0) in handles.k_arrival
        assert ("simple_m", 0) in handles.k_demand
        assert "simple" in handles.app_latency

    def test_sigma_per_edge(self, mode, tight_config):
        handles = build_ilp(mode, 1, tight_config)
        assert ("simple_s", "simple_m") in handles.sigma
        assert ("simple_m", "simple_a") in handles.sigma

    def test_zero_rounds_no_round_vars(self, mode, tight_config):
        handles = build_ilp(mode, 0, tight_config)
        assert handles.round_start == []
        assert handles.alloc == {}

    def test_task_offset_bounds_exclude_wcet(self, tight_config):
        app = Application("a", period=10, deadline=10)
        app.add_task("t", node="n1", wcet=4)
        handles = build_ilp(Mode("m", [app]), 0, tight_config)
        var = handles.task_offset["t"]
        assert var.ub == pytest.approx(6.0)  # p - e

    def test_counter_bounds(self, tight_config):
        app = Application("a", period=10, deadline=10)
        app.add_task("s", node="n1", wcet=1)
        app.add_task("t", node="n2", wcet=1)
        app.add_message("m")
        app.connect("s", "m")
        app.connect("m", "t")
        fast = Mode("m", [app])
        handles = build_ilp(fast, 2, tight_config)
        ka = handles.k_arrival[("m", 0)]
        kd = handles.k_demand[("m", 0)]
        assert ka.lb == 0 and ka.ub == 1  # LCM/p = 1 instance
        assert kd.lb == -1 and kd.ub == 1


class TestDuplicateNames:
    def test_cross_app_name_collision_rejected(self, tight_config):
        a1 = Application("a1", period=10, deadline=10)
        a1.add_task("shared_name", node="n1", wcet=1)
        a2 = Application("a2", period=10, deadline=10)
        a2.add_task("shared_name", node="n2", wcet=1)
        mode = Mode("m", [a1, a2])
        with pytest.raises(ValueError, match="mode-unique"):
            build_ilp(mode, 0, tight_config)


class TestDirectSolve:
    def test_infeasible_with_zero_rounds(self, mode, tight_config):
        handles = build_ilp(mode, 0, tight_config)
        # One message must be served once per hyperperiod; with no
        # rounds, (C4.4) cannot hold.
        assert handles.model.solve().status is SolveStatus.INFEASIBLE

    def test_feasible_with_one_round(self, mode, tight_config):
        handles = build_ilp(mode, 1, tight_config)
        solution = handles.model.solve()
        assert solution.status is SolveStatus.OPTIMAL
        assert handles.model.check_solution(solution) == []

    def test_objective_equals_sum_latencies(self, mode, tight_config):
        handles = build_ilp(mode, 1, tight_config)
        solution = handles.model.solve()
        total = sum(solution[v] for v in handles.app_latency.values())
        assert solution.objective == pytest.approx(total)

    def test_no_objective_when_disabled(self, mode):
        config = SchedulingConfig(
            round_length=1.0, slots_per_round=5, max_round_gap=None,
            minimize_latency=False,
        )
        handles = build_ilp(mode, 1, config)
        assert handles.model.objective.terms == {}
        assert handles.model.solve().status is SolveStatus.OPTIMAL


class TestLatencyFloor:
    """The eq. (13) floor on ``delta`` (see the ilp_builder docstring)."""

    @pytest.mark.parametrize("backend", ["highs", "bnb"])
    def test_exact_backends_floor_at_eq13(self, fig3_app, backend):
        config = SchedulingConfig(round_length=2.0, slots_per_round=5,
                                  max_round_gap=None, backend=backend)
        handles = build_ilp(Mode("m", [fig3_app]), 2, config)
        delta = handles.app_latency[fig3_app.name]
        assert delta.lb == latency_lower_bound(fig3_app, 2.0)
        assert delta.lb > 0.0

    @pytest.mark.parametrize("backend", ["highs", "bnb"])
    def test_floor_clamped_to_period(self, simple_app, backend):
        # Tr = 25 > p = 20: eq. (13) gives 27, beyond delta's upper bound.
        config = SchedulingConfig(round_length=25.0, slots_per_round=5,
                                  max_round_gap=None, backend=backend)
        handles = build_ilp(Mode("m", [simple_app]), 0, config)
        delta = handles.app_latency[simple_app.name]
        assert latency_lower_bound(simple_app, 25.0) > simple_app.period
        assert delta.lb == delta.ub == simple_app.period

    def test_greedy_keeps_zero_floor(self, fig3_app):
        config = SchedulingConfig(round_length=2.0, slots_per_round=5,
                                  max_round_gap=None, backend="greedy")
        handles = build_ilp(Mode("m", [fig3_app]), 2, config)
        assert handles.app_latency[fig3_app.name].lb == 0.0


class TestConstraintScaling:
    def test_c3_pairs_scale_with_instances(self, tight_config):
        # Two tasks on one node, periods 10 and 20 -> hyperperiod 20,
        # 2 x 1 instances -> 2 lambda binaries... count constraints.
        a1 = Application("a1", period=10, deadline=10)
        a1.add_task("a1_t", node="shared", wcet=1)
        a2 = Application("a2", period=20, deadline=20)
        a2.add_task("a2_t", node="shared", wcet=1)
        mode = Mode("m", [a1, a2])
        handles = build_ilp(mode, 0, tight_config)
        lams = [v for v in handles.model.variables if v.name.startswith("lam")]
        assert len(lams) == 2  # 2 instances of a1_t x 1 instance of a2_t

    def test_capacity_constraint_count(self, mode, tight_config):
        handles = build_ilp(mode, 3, tight_config)
        caps = [c for c in handles.model.constraints if c.name.startswith("C4.3")]
        assert len(caps) == 3
