"""The resource-allocation MIP of §IV (MIP 1), as a data model.

Decision structure (Table I of the paper):

* per service *i*: a one-hot LPR vector ``delta_i`` choosing one of the
  service's profiled load-per-replica thresholds;
* per (service *i*, request class *j*): a one-hot percentile vector
  ``gamma_i^j`` choosing which percentile of service *i*'s latency
  contributes to class *j*'s end-to-end bound.

Objective: minimise total resource consumption ``sum_i delta_i . R_i``.

Constraints, per request class *j* with SLA "the ``x_j``-th percentile must
be below ``T_j``":

1. ``sum_i delta_i D_i^j gamma_i^j <= T_j`` -- the summed per-service
   percentiles bound the end-to-end latency;
2. ``sum_i (100 - P gamma_i^j) <= 100 - x_j`` -- Theorem 1's residual
   budget, making (1) a valid upper bound;
3. all decision vectors are one-hot.

The latency term is bilinear in ``delta`` and ``gamma``; the solver in
:mod:`repro.solver.branch_and_bound` branches on the LPR choices, under
which the percentile subproblem becomes a small exact DP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import SolverError

__all__ = ["ServiceOptions", "ClassSla", "AllocationModel", "Solution"]


@dataclass
class ServiceOptions:
    """Profiled options for one service.

    ``resources[a]`` is the resource consumption (CPUs) if LPR option ``a``
    is chosen as the scaling threshold, under the current load (Eq. 3).
    ``latency[j]`` is the ``m x h`` matrix ``D_i^j``: row ``a`` holds class
    ``j``'s latency percentiles (on the model's percentile grid) when the
    service runs at LPR option ``a``.
    """

    name: str
    resources: Sequence[float]
    latency: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.resources = [float(r) for r in self.resources]
        if not self.resources:
            raise SolverError(f"service {self.name!r} has no LPR options")
        if any(r < 0 for r in self.resources):
            raise SolverError(f"service {self.name!r} has negative resources")
        self.latency = {j: np.asarray(m, dtype=float) for j, m in self.latency.items()}
        for j, matrix in self.latency.items():
            if matrix.ndim != 2 or matrix.shape[0] != len(self.resources):
                raise SolverError(
                    f"service {self.name!r}, class {j!r}: latency matrix "
                    f"shape {matrix.shape} does not match "
                    f"{len(self.resources)} LPR options"
                )
            if np.any(matrix < 0):
                raise SolverError(
                    f"service {self.name!r}, class {j!r}: negative latencies"
                )

    @property
    def num_options(self) -> int:
        return len(self.resources)

    def classes(self) -> list[str]:
        return list(self.latency)


@dataclass(frozen=True)
class ClassSla:
    """SLA constraint for one request class: p(``percentile``) <= target."""

    name: str
    percentile: float
    target_s: float

    def __post_init__(self) -> None:
        if not 0 < self.percentile < 100:
            raise SolverError(
                f"class {self.name!r}: percentile must be in (0, 100), "
                f"got {self.percentile}"
            )
        if self.target_s <= 0:
            raise SolverError(f"class {self.name!r}: target must be > 0")


@dataclass
class AllocationModel:
    """A complete MIP 1 instance."""

    services: Sequence[ServiceOptions]
    slas: Sequence[ClassSla]
    #: The shared percentile grid ``P = [p_1 .. p_h]`` (ascending).
    percentile_grid: Sequence[float]

    def __post_init__(self) -> None:
        self.services = list(self.services)
        self.slas = list(self.slas)
        self.percentile_grid = [float(p) for p in self.percentile_grid]
        if not self.services:
            raise SolverError("model has no services")
        if not self.slas:
            raise SolverError("model has no SLA constraints")
        if not self.percentile_grid:
            raise SolverError("model has an empty percentile grid")
        if sorted(self.percentile_grid) != self.percentile_grid:
            raise SolverError("percentile grid must be ascending")
        if not all(0 < p < 100 for p in self.percentile_grid):
            raise SolverError("percentile grid values must be in (0, 100)")
        names = [s.name for s in self.services]
        if len(set(names)) != len(names):
            raise SolverError(f"duplicate service names: {names}")
        class_names = [c.name for c in self.slas]
        if len(set(class_names)) != len(class_names):
            raise SolverError(f"duplicate class names: {class_names}")
        h = len(self.percentile_grid)
        known = set(class_names)
        for service in self.services:
            for j, matrix in service.latency.items():
                if j not in known:
                    raise SolverError(
                        f"service {service.name!r} profiles unknown class {j!r}"
                    )
                if matrix.shape[1] != h:
                    raise SolverError(
                        f"service {service.name!r}, class {j!r}: matrix has "
                        f"{matrix.shape[1]} percentile columns, grid has {h}"
                    )
        for sla in self.slas:
            if not self.services_for(sla.name):
                raise SolverError(
                    f"class {sla.name!r} passes through no profiled service"
                )

    def services_for(self, class_name: str) -> list[ServiceOptions]:
        """Services on class ``class_name``'s path (those that profiled it)."""
        return [s for s in self.services if class_name in s.latency]

    @property
    def residuals(self) -> list[float]:
        """``100 - p`` for each grid percentile (descending)."""
        return [100.0 - p for p in self.percentile_grid]


@dataclass
class Solution:
    """An optimal assignment for an :class:`AllocationModel`."""

    #: service name -> chosen LPR option index (``delta_i``).
    lpr_choice: dict[str, int]
    #: (service, class) -> chosen percentile index (``gamma_i^j``).
    percentile_choice: dict[tuple[str, str], int]
    #: Total resource consumption (the objective value).
    objective: float
    #: class -> the summed per-service latency bound (LHS of constraint 1).
    latency_bound: dict[str, float]
    #: Number of branch-and-bound nodes explored (diagnostics).
    nodes_explored: int = 0
    #: False when the search hit its node limit and returned the best
    #: incumbent instead of a proven optimum (anytime behaviour).
    optimal: bool = True
