"""ILP formulation of the TTW co-scheduling problem (paper appendix).

For a mode ``M`` and a fixed number of rounds ``R_M``, :func:`build_ilp`
constructs the mixed-integer program whose solution is ``Sched(M)``:

* **(C1.1)** precedence between tasks and messages (eqs. 21–22), with
  period-wrap binaries ``sigma``;
* **(C1.2)** end-to-end deadlines per chain (eq. 23);
* **(C2.1)** rounds do not overlap (eq. 24);
* **(C2.2)** bounded inter-round gap (eq. 25);
* **(C3)** node-exclusive, non-preemptive task execution via big-M
  disjunctions (eqs. 28–29);
* **(C4.1)/(C4.2)** valid message-to-round allocation through the
  linearized arrival/demand/service functions (eqs. 42–45), with
  counters ``ka_ij``, ``kd_ij`` and leftover indicators ``r0.B_i``;
* **(C4.3)** at most ``B`` messages per round;
* **(C4.4)** every instance is served once per hyperperiod (eq. 46);
* objective: minimize the summed application latencies (eqs. 47–49).

Deviations from the paper (documented in DESIGN.md); the first two are
for soundness, the third for speed:

* we additionally constrain ``tau.o + tau.e <= tau.p`` so no task
  instance crosses its own period boundary, which makes the
  one-hyperperiod pairwise check (C3) complete under cyclic execution;
* the leftover indicator ``r0.B_i`` is *linked* to its definition
  (``r0 = 1  iff  m.o + m.d > m.p``) with two big-M constraints, rather
  than left free, so the service accounting is exact at the
  hyperperiod boundary;
* with an exact backend, each latency variable ``delta[app]`` is
  floored at ``min(eq. 13 bound, period)`` instead of 0.  ``delta``
  occurs only in the objective and in the ``lat`` rows
  (``chain latency <= delta``), and deadlines (C1.2) bound the chain
  latency itself, so the feasible schedules and every round-count
  verdict are unchanged.  Every chain meets eq. 13, so
  ``sum(max(LB_a, lat_a))`` has the same minimizers as
  ``sum(lat_a)``: the floor only lifts the solver's dual bound, and
  the optimality proof ends once an incumbent reaches the analytic
  bound.  The clamp to the period keeps ``lb <= ub`` when eq. 13
  exceeds the period: such a probe must report infeasible, not fail
  on a bound error.  Heuristic backends keep the 0 floor, which would
  otherwise move their first incumbent.  Rejected alternatives
  (docs/ARCHITECTURE.md has the numbers): a floor at ``LB - 1e-5`` (``bnb`` and HiGHS then
  disagree, 5.99999 vs 6.0, and some schedules overlap by 1e-5 in
  C3), one summed cut ``sum(delta) >= sum(LB)`` (slower proofs, one
  more row), and objective-free probes below the accepted R (the
  extra feasibility solve costs more than it saves).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..milp import Model, ObjectiveSense, Var, get_backend, quicksum
from .app_model import Application
from .latency import latency_lower_bound
from .modes import Mode
from .schedule import SchedulingConfig


@dataclass
class IlpHandles:
    """The model plus handles to every decision variable group.

    Attribute names follow the paper's notation; keys are element
    names (task/message) or ``(source, target)`` edge tuples.
    """

    model: Model
    task_offset: Dict[str, Var] = field(default_factory=dict)
    msg_offset: Dict[str, Var] = field(default_factory=dict)
    msg_deadline: Dict[str, Var] = field(default_factory=dict)
    sigma: Dict[Tuple[str, str], Var] = field(default_factory=dict)
    round_start: List[Var] = field(default_factory=list)
    alloc: Dict[Tuple[int, str], Var] = field(default_factory=dict)
    leftover: Dict[str, Var] = field(default_factory=dict)
    k_arrival: Dict[Tuple[str, int], Var] = field(default_factory=dict)
    k_demand: Dict[Tuple[str, int], Var] = field(default_factory=dict)
    app_latency: Dict[str, Var] = field(default_factory=dict)


def _unique_elements(mode: Mode) -> Tuple[Dict[str, Application], Dict[str, Application]]:
    """Map task/message names to their owning application.

    The ILP keys variables by element name, so names must be unique
    across the mode's applications.
    """
    tasks: Dict[str, Application] = {}
    messages: Dict[str, Application] = {}
    for app in mode.applications:
        for t in app.tasks:
            if t in tasks or t in messages:
                raise ValueError(
                    f"element name {t!r} appears in several applications of "
                    f"mode {mode.name!r}; names must be mode-unique"
                )
            tasks[t] = app
        for m in app.messages:
            if m in tasks or m in messages:
                raise ValueError(
                    f"element name {m!r} appears in several applications of "
                    f"mode {mode.name!r}; names must be mode-unique"
                )
            messages[m] = app
    return tasks, messages


def build_ilp(mode: Mode, num_rounds: int, config: SchedulingConfig) -> IlpHandles:
    """Build the ILP for mode ``mode`` with exactly ``num_rounds`` rounds.

    Args:
        mode: Validated mode (applications, mappings, WCETs given).
        num_rounds: The fixed ``R_M`` of this Algorithm 1 iteration.
        config: Round length ``Tr``, slots ``B``, gap bound ``Tmax``, …

    Returns:
        :class:`IlpHandles` with the fully-constrained model; call
        ``handles.model.solve()`` and read values back through the
        handle dictionaries.
    """
    mode.validate()
    task_owner, msg_owner = _unique_elements(mode)
    lcm = mode.hyperperiod
    t_r = config.round_length
    big_m = config.big_m if config.big_m is not None else 10.0 * lcm
    mm = config.mm

    model = Model(f"ttw[{mode.name}]x{num_rounds}")
    h = IlpHandles(model=model)

    # ---- variables (paper Table II) ---------------------------------
    for name, app in task_owner.items():
        task = app.tasks[name]
        # tau.o in [0, p - e]: the instance must not cross its own
        # period boundary (completeness of the cyclic C3 check).
        h.task_offset[name] = model.add_continuous(
            f"o[{name}]", 0.0, max(0.0, app.period - task.wcet)
        )
    for name, app in msg_owner.items():
        h.msg_offset[name] = model.add_continuous(f"mo[{name}]", 0.0, app.period)
        h.msg_deadline[name] = model.add_continuous(f"md[{name}]", 0.0, app.period)
        h.leftover[name] = model.add_binary(f"r0[{name}]")

    for j in range(num_rounds):
        h.round_start.append(
            model.add_continuous(f"rt[{j}]", 0.0, lcm - t_r)
        )
        for name in msg_owner:
            h.alloc[(j, name)] = model.add_binary(f"B[{j},{name}]")
    for name, app in msg_owner.items():
        n_inst = round(lcm / app.period)
        for j in range(num_rounds):
            h.k_arrival[(name, j)] = model.add_integer(f"ka[{name},{j}]", 0, n_inst)
            h.k_demand[(name, j)] = model.add_integer(f"kd[{name},{j}]", -1, n_inst)

    # ---- (C1.1) precedence: eqs. (21)-(22) ----------------------------
    for app in mode.applications:
        for msg_name, producers in app.msg_producers.items():
            for t_name in producers:
                sigma = model.add_binary(f"sig[{t_name}->{msg_name}]")
                h.sigma[(t_name, msg_name)] = sigma
                task = app.tasks[t_name]
                model.add_constr(
                    h.task_offset[t_name] + task.wcet
                    <= app.period * sigma + h.msg_offset[msg_name],
                    name=f"C1.1[{t_name}->{msg_name}]",
                )
        for t_name, preds in app.task_preds.items():
            for msg_name in preds:
                sigma = model.add_binary(f"sig[{msg_name}->{t_name}]")
                h.sigma[(msg_name, t_name)] = sigma
                model.add_constr(
                    h.msg_offset[msg_name] + h.msg_deadline[msg_name]
                    <= app.period * sigma + h.task_offset[t_name],
                    name=f"C1.1[{msg_name}->{t_name}]",
                )

    # ---- (C1.2) chain deadlines + latency variables: eqs. (23), (47)-(49)
    # Exact backends get the eq. (13) floor on delta (module docstring).
    floored = get_backend(config.backend).info.exact
    for app in mode.applications:
        floor = 0.0
        if floored:
            floor = min(latency_lower_bound(app, t_r), app.period)
        latency = model.add_continuous(f"delta[{app.name}]", floor, app.period)
        h.app_latency[app.name] = latency
        for idx, chain in enumerate(app.chains()):
            first, last = chain.first_task, chain.last_task
            wraps = quicksum(
                h.sigma[(chain.elements[i], chain.elements[i + 1])] * app.period
                for i in range(len(chain.elements) - 1)
            )
            chain_latency = (
                h.task_offset[last]
                + app.tasks[last].wcet
                - h.task_offset[first]
                + wraps
            )
            model.add_constr(
                chain_latency <= app.deadline, name=f"C1.2[{app.name}#{idx}]"
            )
            model.add_constr(
                chain_latency <= latency, name=f"lat[{app.name}#{idx}]"
            )

    # ---- (C2) round ordering and spacing: eqs. (24)-(25) ---------------
    for j in range(num_rounds - 1):
        model.add_constr(
            h.round_start[j] + t_r <= h.round_start[j + 1], name=f"C2.1[{j}]"
        )
        if config.max_round_gap is not None:
            model.add_constr(
                h.round_start[j + 1] - h.round_start[j] <= config.max_round_gap,
                name=f"C2.2[{j}]",
            )

    # ---- (C3) node-exclusive task execution: eqs. (28)-(29) ------------
    tasks_by_node: Dict[str, List[Tuple[str, Application]]] = {}
    for name, app in task_owner.items():
        tasks_by_node.setdefault(app.tasks[name].node, []).append((name, app))
    for node, entries in tasks_by_node.items():
        for a_pos in range(len(entries)):
            for b_pos in range(a_pos + 1, len(entries)):
                name_i, app_i = entries[a_pos]
                name_j, app_j = entries[b_pos]
                task_i, task_j = app_i.tasks[name_i], app_j.tasks[name_j]
                n_i = round(lcm / app_i.period)
                n_j = round(lcm / app_j.period)
                for k_i in range(n_i):
                    for k_j in range(n_j):
                        lam = model.add_binary(
                            f"lam[{name_i}#{k_i},{name_j}#{k_j}]"
                        )
                        start_i = h.task_offset[name_i] + app_i.period * k_i
                        start_j = h.task_offset[name_j] + app_j.period * k_j
                        model.add_constr(
                            start_i + task_i.wcet
                            <= start_j + big_m * (1 - lam),
                            name=f"C3a[{name_i}#{k_i},{name_j}#{k_j}]",
                        )
                        model.add_constr(
                            start_j + task_j.wcet <= start_i + big_m * lam,
                            name=f"C3b[{name_i}#{k_i},{name_j}#{k_j}]",
                        )

    # ---- (C4) message-to-round allocation ------------------------------
    for name, app in msg_owner.items():
        period = app.period
        n_inst = round(lcm / period)
        offset = h.msg_offset[name]
        deadline = h.msg_deadline[name]
        r0 = h.leftover[name]

        # Leftover feasibility: r0 = 1 is only possible when the last
        # instance's deadline crosses the hyperperiod boundary
        # (o + d > p).  The reverse is NOT forced: even with o + d > p
        # the allocation may serve the late instance within the same
        # hyperperiod and have r0 = 0 (paper Fig. 4: "allocation of mi
        # to r5 instead of r1 would be valid and result in r0.Bi = 0").
        model.add_constr(
            offset + deadline - period >= mm - big_m * (1 - r0),
            name=f"r0[{name}]",
        )

        for j in range(num_rounds):
            rt = h.round_start[j]
            ka = h.k_arrival[(name, j)]
            kd = h.k_demand[(name, j)]
            # (C4.1) window pinning ka = af(r_j.t): eq. (42).
            model.add_constr(
                rt - offset - (ka - 1) * period >= 0, name=f"C4.1a[{name},{j}]"
            )
            model.add_constr(
                rt - offset - (ka - 1) * period <= period - mm,
                name=f"C4.1b[{name},{j}]",
            )
            # (C4.2) window pinning kd = df(r_j.t + Tr): eq. (44).
            model.add_constr(
                rt + t_r - offset - deadline - (kd - 1) * period >= mm,
                name=f"C4.2a[{name},{j}]",
            )
            model.add_constr(
                rt + t_r - offset - deadline - (kd - 1) * period <= period,
                name=f"C4.2b[{name},{j}]",
            )
            # Service vs arrival (eq. 11): instances served by the end of
            # round j were released before round j starts.
            served_through_j = quicksum(
                h.alloc[(k, name)] for k in range(j + 1)
            )
            model.add_constr(
                served_through_j - r0 <= ka, name=f"C1serv[{name},{j}]"
            )
            # Service vs demand (eq. 12): demand due by the end of round j
            # must be covered by rounds completed before it.
            served_before_j = quicksum(h.alloc[(k, name)] for k in range(j))
            model.add_constr(
                served_before_j - r0 >= kd, name=f"C2serv[{name},{j}]"
            )

        # (C4.4) all instances served once per hyperperiod: eq. (46).
        model.add_constr(
            quicksum(h.alloc[(j, name)] for j in range(num_rounds)) == n_inst,
            name=f"C4.4[{name}]",
        )

    # ---- (C4.3) round capacity -----------------------------------------
    for j in range(num_rounds):
        model.add_constr(
            quicksum(h.alloc[(j, name)] for name in msg_owner)
            <= config.slots_per_round,
            name=f"C4.3[{j}]",
        )

    # ---- objective: eq. (49) ---------------------------------------------
    if config.minimize_latency and h.app_latency:
        model.set_objective(
            quicksum(h.app_latency.values()), ObjectiveSense.MINIMIZE
        )
    return h
