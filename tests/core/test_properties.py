"""Property-based tests: random workloads -> synthesize -> verify.

The central invariant of the whole library: *whatever* Algorithm 1
returns satisfies every constraint of the paper, as judged by the
independent verifier.  Infeasibility is an acceptable outcome; a
feasible-but-invalid schedule is never acceptable.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import (
    InfeasibleError,
    SchedulingConfig,
    latency_lower_bound,
    synthesize,
    verify_schedule,
)
from repro.workloads import GeneratorConfig, WorkloadGenerator


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10**6),
    num_apps=st.integers(1, 2),
    num_tasks=st.integers(2, 5),
    slots=st.integers(1, 5),
)
# Regression: HiGHS may place tasks back to back with up to its own
# feasibility tolerance (1e-6) of overlap; the verifier's EPS must
# absorb that solver slack instead of reporting a C3 violation.
@example(
    seed=51,
    num_apps=1,
    num_tasks=5,
    slots=2,
).via('discovered failure')
def test_synthesized_schedules_always_verify(seed, num_apps, num_tasks, slots):
    generator = WorkloadGenerator(
        GeneratorConfig(num_tasks=num_tasks, num_nodes=6,
                        period_choices=(20.0, 40.0)),
        seed=seed,
    )
    mode = generator.mode("rand", num_apps)
    config = SchedulingConfig(
        round_length=1.0, slots_per_round=slots, max_round_gap=None
    )
    try:
        sched = synthesize(mode, config)
    except InfeasibleError:
        return  # infeasible inputs are fine
    report = verify_schedule(mode, sched)
    assert report.ok, report.violations


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10**6))
def test_latency_never_beats_lower_bound(seed):
    """No schedule can beat eq. (13)."""
    generator = WorkloadGenerator(
        GeneratorConfig(num_tasks=4, num_nodes=6, period_choices=(30.0,)),
        seed=seed,
    )
    mode = generator.mode("rand", 1)
    config = SchedulingConfig(
        round_length=2.0, slots_per_round=5, max_round_gap=None
    )
    try:
        sched = synthesize(mode, config)
    except InfeasibleError:
        return
    for app in mode.applications:
        bound = latency_lower_bound(app, config.round_length)
        # Tolerance 1e-5, not 1e-6: an optimal schedule sits exactly on
        # the bound, and HiGHS's primal feasibility slack (1e-7) is
        # amplified by the big-M constraints to ~1e-6 on the recomputed
        # latencies (hypothesis found seed=801 landing at bound - 1e-6).
        assert sched.app_latencies[app.name] >= bound - 1e-5


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10**6))
def test_round_minimality(seed):
    """The returned round count is minimal: R-1 rounds must be infeasible.

    Checked by re-running the ILP directly with one fewer round.
    """
    from repro.core.ilp_builder import build_ilp
    from repro.milp import SolveStatus

    generator = WorkloadGenerator(
        GeneratorConfig(num_tasks=3, num_nodes=5, period_choices=(20.0,)),
        seed=seed,
    )
    mode = generator.mode("rand", 1)
    config = SchedulingConfig(
        round_length=1.0, slots_per_round=2, max_round_gap=None
    )
    try:
        sched = synthesize(mode, config)
    except InfeasibleError:
        return
    if sched.num_rounds == 0:
        return
    handles = build_ilp(mode, sched.num_rounds - 1, config)
    assert handles.model.solve().status is SolveStatus.INFEASIBLE


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10**6),
    num_apps=st.integers(1, 2),
    slots=st.integers(1, 3),
)
def test_latency_floor_is_exact(seed, num_apps, slots):
    """The eq. (13) floor on ``delta`` changes no answer.

    Every round count Algorithm 1 probes (demand bound up to the first
    feasible R) is solved twice: as built, and with the floors reset
    to 0.  Both must agree on feasibility and on the recomputed total
    latency of the optimum.  The latency tolerance is 1e-5, as in
    test_latency_never_beats_lower_bound: two optimal points differ by
    HiGHS's feasibility slack, amplified by the big-M rows (a sweep
    found 7.0671046 vs 7.0671036 off the bound, at seed 14 with four
    tasks and B=1).
    """
    from repro.core import demand_round_bound, max_rounds
    from repro.core.ilp_builder import build_ilp
    from repro.core.schedule import SynthesisStats
    from repro.core.synthesis import extract_schedule

    generator = WorkloadGenerator(
        GeneratorConfig(num_tasks=3, num_nodes=5,
                        period_choices=(20.0, 40.0)),
        seed=seed,
    )
    mode = generator.mode("rand", num_apps)
    config = SchedulingConfig(
        round_length=1.0, slots_per_round=slots, max_round_gap=None
    )

    def solve(num_rounds, floored):
        handles = build_ilp(mode, num_rounds, config)
        if not floored:
            for delta in handles.app_latency.values():
                delta.lb = 0.0
        solution = handles.model.solve(backend=config.backend)
        if not solution.is_feasible:
            return None
        sched = extract_schedule(mode, config, handles, solution,
                                 SynthesisStats(mode_name=mode.name))
        return sched.total_latency

    for num_rounds in range(demand_round_bound(mode, config),
                            max_rounds(mode, config) + 1):
        floored, unfloored = solve(num_rounds, True), solve(num_rounds, False)
        assert (floored is None) == (unfloored is None), num_rounds
        if floored is not None:
            assert abs(floored - unfloored) <= 1e-5, (floored, unfloored)
            return
