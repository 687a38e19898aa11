"""Ursa core: the paper's primary contribution.

* :mod:`repro.core.theorem` -- Theorem 1 percentile decomposition.
* :mod:`repro.core.backpressure` -- backpressure-free threshold profiling.
* :mod:`repro.core.exploration` -- Algorithm 1 LPR exploration.
* :mod:`repro.core.optimizer` -- the MIP-based optimisation engine.
* :mod:`repro.core.overestimation` -- bound-to-estimate calibration.
* :mod:`repro.core.resource_controller` -- threshold scaling (fast path).
* :mod:`repro.core.anomaly` -- load/latency anomaly triggers.
* :mod:`repro.core.manager` -- the :class:`UrsaManager` facade.
"""

from repro.core.anomaly import AnomalyDetector, AnomalyEvent, request_ratio_deviation
from repro.core.backpressure import (
    BackpressureProfile,
    BackpressureProfiler,
    ProfilePoint,
)
from repro.core.exploration import (
    ExplorationController,
    ExplorationResult,
    LprOption,
    ServiceProfile,
    provisioning_for,
)
from repro.core.manager import UrsaManager
from repro.core.optimizer import (
    OptimizationEngine,
    OptimizationOutcome,
    ScalingThreshold,
)
from repro.core.overestimation import OverestimationTracker
from repro.core.resource_controller import ResourceController, ScalingDecision
from repro.core.theorem import (
    empirical_bound_holds,
    latency_upper_bound,
    residuals_fit,
    split_residual_evenly,
)

__all__ = [
    "AnomalyDetector",
    "AnomalyEvent",
    "BackpressureProfile",
    "BackpressureProfiler",
    "ExplorationController",
    "ExplorationResult",
    "LprOption",
    "OptimizationEngine",
    "OptimizationOutcome",
    "OverestimationTracker",
    "ProfilePoint",
    "ResourceController",
    "ScalingDecision",
    "ScalingThreshold",
    "ServiceProfile",
    "UrsaManager",
    "empirical_bound_holds",
    "latency_upper_bound",
    "provisioning_for",
    "request_ratio_deviation",
    "residuals_fit",
    "split_residual_evenly",
]
