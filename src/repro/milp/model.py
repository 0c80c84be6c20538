"""MILP model container and solve entry point.

A :class:`Model` collects variables, linear constraints, and an
objective, then dispatches to a solver backend.  Two exact backends
ship with this repository:

* ``"highs"`` — :func:`scipy.optimize.milp` (HiGHS), the default;
* ``"bnb"``  — a from-scratch branch-and-bound over LP relaxations
  solved with :func:`scipy.optimize.linprog` (see
  :mod:`repro.milp.bnb`), provided as an independent reference
  implementation of the algorithmics that Gurobi performs in the paper.

Both backends solve the identical mathematical program, so they can be
cross-checked against each other (and are, in the test suite).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .expr import Constraint, LinExpr, Number, Sense, Var, VarType


class ObjectiveSense(enum.Enum):
    """Optimization direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    #: A valid integral point without an optimality proof — produced by
    #: heuristic backends (e.g. ``greedy``).
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"


@dataclass
class Solution:
    """Result of solving a model.

    Attributes:
        status: Solver outcome; values are meaningful only for
            ``OPTIMAL`` (and, best-effort, for the limit statuses).
        objective: Objective value in the model's own sense.
        values: Mapping from variable to solution value.  Integer and
            binary variables are rounded to exact integers.
        nodes: Number of branch-and-bound nodes explored (HiGHS's
            ``mip_node_count`` or the own backend's count; 0 for a
            backend that does not report one).
    """

    status: SolveStatus
    objective: float = math.nan
    values: Dict[Var, float] = field(default_factory=dict)
    nodes: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    @property
    def is_feasible(self) -> bool:
        """True when ``values`` holds a valid integral point.

        ``OPTIMAL`` implies feasible; ``FEASIBLE`` is the weaker verdict
        heuristic backends return when they found a point but cannot
        prove optimality.
        """
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)

    def __getitem__(self, var: Var) -> float:
        return self.values[var]


class Model:
    """A mixed-integer linear program under construction."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Var] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.sense: ObjectiveSense = ObjectiveSense.MINIMIZE
        self._names: Dict[str, Var] = {}

    # -- construction ---------------------------------------------------
    def add_var(
        self,
        name: str,
        lb: Number = 0.0,
        ub: Number = math.inf,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> Var:
        """Create, register, and return a new decision variable.

        Raises:
            ValueError: if ``name`` is already used in this model.
        """
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        var = Var(name, lb=lb, ub=ub, vtype=vtype, index=len(self.variables))
        self.variables.append(var)
        self._names[name] = var
        return var

    def add_continuous(self, name: str, lb: Number = 0.0, ub: Number = math.inf) -> Var:
        return self.add_var(name, lb, ub, VarType.CONTINUOUS)

    def add_integer(self, name: str, lb: Number = 0.0, ub: Number = math.inf) -> Var:
        return self.add_var(name, lb, ub, VarType.INTEGER)

    def add_binary(self, name: str) -> Var:
        return self.add_var(name, 0, 1, VarType.BINARY)

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built with ``<=``, ``>=`` or ``==``."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constr expects a Constraint (build one with <=, >=, ==); "
                f"got {type(constraint).__name__}"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def set_objective(
        self, expr: LinExpr | Var | Number, sense: ObjectiveSense = ObjectiveSense.MINIMIZE
    ) -> None:
        self.objective = LinExpr.from_any(expr)
        self.sense = sense

    def var_by_name(self, name: str) -> Var:
        return self._names[name]

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_integer_vars(self) -> int:
        return sum(1 for v in self.variables if v.is_integral)

    # -- solving ----------------------------------------------------------
    def solve(
        self,
        backend: "str | object" = "highs",
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
        tol: float = 1e-6,
        warm_start: Optional[Dict[Var, float]] = None,
    ) -> Solution:
        """Solve the model via a registered solver backend.

        Args:
            backend: A registered backend name (``"highs"``, ``"bnb"``,
                ``"greedy"``, or anything added through
                :func:`repro.milp.register_backend`) or a
                :class:`~repro.milp.backends.SolverBackend` instance.
            time_limit: Wall-clock limit in seconds (best effort).
            node_limit: Node cap for backends that search a tree.
            tol: Integrality/feasibility tolerance.
            warm_start: Optional assignment hint; exploited by backends
                whose ``info.supports_warm_start`` is True, ignored by
                the rest.
        """
        from .backends import get_backend

        solver = get_backend(backend) if isinstance(backend, str) else backend
        return solver.solve(
            self,
            time_limit=time_limit,
            node_limit=node_limit,
            tol=tol,
            warm_start=warm_start,
        )

    # -- verification -----------------------------------------------------
    def check_solution(self, solution: Solution, tol: float = 1e-5) -> List[str]:
        """Return a list of violated constraint/bound descriptions.

        Used by tests to confirm that both backends produce feasible
        points; an empty list means the solution is valid.
        """
        problems: List[str] = []
        for var in self.variables:
            if var not in solution.values:
                problems.append(f"missing value for {var.name}")
                continue
            val = solution.values[var]
            if val < var.lb - tol or val > var.ub + tol:
                problems.append(f"{var.name}={val} outside [{var.lb}, {var.ub}]")
            if var.is_integral and abs(val - round(val)) > tol:
                problems.append(f"{var.name}={val} not integral")
        for i, constr in enumerate(self.constraints):
            if not constr.satisfied(solution.values, tol=tol):
                label = constr.name or f"#{i}"
                problems.append(f"constraint {label} violated: {constr!r}")
        return problems

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_vars} "
            f"({self.num_integer_vars} int), constrs={self.num_constraints})"
        )
