"""HiGHS backend: translate a :class:`repro.milp.model.Model` to
:func:`scipy.optimize.milp` and back.

This plays the role Gurobi plays in the paper: an exact, off-the-shelf
MILP solver.  The translation builds one sparse constraint matrix with
per-row lower/upper bounds (``==`` rows get equal bounds).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .expr import Sense, VarType
from .model import Model, ObjectiveSense, Solution, SolveStatus

#: scipy.optimize.milp status codes → our statuses.
_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.TIME_LIMIT,  # iteration/time limit
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def solve_highs(
    model: Model,
    time_limit: Optional[float] = None,
    mip_rel_gap: Optional[float] = None,
) -> Solution:
    """Solve ``model`` with scipy's HiGHS MILP solver.

    Args:
        model: The MILP to solve.
        time_limit: Wall-clock limit in seconds.
        mip_rel_gap: Relative optimality gap at which the search stops;
            ``1.0`` accepts the first incumbent (the ``greedy``
            backend's first-fit mode), ``None`` proves optimality.
    """
    n = model.num_vars
    if n == 0:
        # Degenerate but legal: a model with no variables is feasible iff
        # every (constant) constraint holds.
        for constr in model.constraints:
            if not constr.satisfied({}):
                return Solution(SolveStatus.INFEASIBLE)
        return Solution(SolveStatus.OPTIMAL, objective=model.objective.constant)

    obj_sign = 1.0 if model.sense is ObjectiveSense.MINIMIZE else -1.0
    c = np.zeros(n)
    for var, coef in model.objective.terms.items():
        c[var.index] = obj_sign * coef

    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    integrality = np.array(
        [1 if v.is_integral else 0 for v in model.variables]
    )

    constraints = []
    if model.constraints:
        rows, cols, data = [], [], []
        c_lb = np.empty(len(model.constraints))
        c_ub = np.empty(len(model.constraints))
        for i, constr in enumerate(model.constraints):
            for var, coef in constr.expr.terms.items():
                rows.append(i)
                cols.append(var.index)
                data.append(coef)
            rhs = constr.rhs
            if constr.sense is Sense.LE:
                c_lb[i], c_ub[i] = -math.inf, rhs
            elif constr.sense is Sense.GE:
                c_lb[i], c_ub[i] = rhs, math.inf
            else:
                c_lb[i], c_ub[i] = rhs, rhs
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(model.constraints), n)
        )
        constraints.append(LinearConstraint(matrix, c_lb, c_ub))

    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = mip_rel_gap

    result = milp(
        c=c,
        constraints=constraints,
        bounds=Bounds(lb, ub),
        integrality=integrality,
        options=options,
    )
    if result.status == 4:
        # "Solve error": HiGHS presolve occasionally fails on the
        # big-M-heavy scheduling ILPs; retry without presolve, which
        # resolves these instances (at some speed cost).
        result = milp(
            c=c,
            constraints=constraints,
            bounds=Bounds(lb, ub),
            integrality=integrality,
            options={**options, "presolve": False},
        )

    status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
    nodes = int(result.get("mip_node_count") or 0)
    if result.x is None:
        return Solution(status, nodes=nodes)

    values = {}
    for var in model.variables:
        val = float(result.x[var.index])
        if var.is_integral:
            val = float(round(val))
        values[var] = val
    objective = model.objective.value(values)
    return Solution(status, objective=objective, values=values, nodes=nodes)
