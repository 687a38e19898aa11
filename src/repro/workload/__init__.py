"""Workload generation: load patterns, request mixes, Poisson arrivals.

A :class:`LoadGenerator` drives an application with open-loop Poisson
arrivals whose aggregate rate follows a pattern (:class:`ConstantLoad`
or :class:`DiurnalLoad`) and whose classes follow a :class:`RequestMix`.
Experiments start one per deployment in
:func:`repro.experiments.runner.start_deployment`; exploration drives
its own generators and scales their rate through ``rate_multiplier``.
"""

from repro.workload.generator import LoadGenerator
from repro.workload.mixes import RequestMix
from repro.workload.patterns import ConstantLoad, DiurnalLoad

__all__ = [
    "ConstantLoad",
    "DiurnalLoad",
    "LoadGenerator",
    "RequestMix",
]
