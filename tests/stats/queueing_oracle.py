"""Analytic queueing formulas (M/M/c): a theory oracle for the simulator.

The microservice substrate is a network of multi-server queues; these
closed-form results let the test suite check the simulator against theory
(an M/M/c service's simulated waiting time must match Erlang C).  No
library code calls them, so they live with their only user,
``test_queueing.py``.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

__all__ = [
    "erlang_c",
    "mmc_mean_wait",
    "mmc_mean_response",
    "mmc_utilization",
    "mm1_response_percentile",
    "servers_for_target_wait",
]


def _validate(arrival_rate: float, service_rate: float, servers: int) -> float:
    if arrival_rate <= 0:
        raise ConfigurationError(f"arrival rate must be > 0, got {arrival_rate}")
    if service_rate <= 0:
        raise ConfigurationError(f"service rate must be > 0, got {service_rate}")
    if servers < 1:
        raise ConfigurationError(f"need >= 1 server, got {servers}")
    rho = arrival_rate / (servers * service_rate)
    if rho >= 1.0:
        raise ConfigurationError(
            f"unstable system: offered load {arrival_rate / service_rate:.3f} "
            f"Erlangs >= {servers} servers"
        )
    return rho


def erlang_c(arrival_rate: float, service_rate: float, servers: int) -> float:
    """P(wait > 0) in an M/M/c queue (the Erlang C formula)."""
    rho = _validate(arrival_rate, service_rate, servers)
    offered = arrival_rate / service_rate  # Erlangs
    # Stable evaluation via the iterative Erlang B recurrence.
    erlang_b = 1.0
    for k in range(1, servers + 1):
        erlang_b = offered * erlang_b / (k + offered * erlang_b)
    return erlang_b / (1.0 - rho * (1.0 - erlang_b))


def mmc_utilization(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Per-server utilisation ``rho``."""
    return _validate(arrival_rate, service_rate, servers)


def mmc_mean_wait(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Mean queueing delay (excluding service) in an M/M/c queue."""
    rho = _validate(arrival_rate, service_rate, servers)
    p_wait = erlang_c(arrival_rate, service_rate, servers)
    return p_wait / (servers * service_rate - arrival_rate)


def mmc_mean_response(
    arrival_rate: float, service_rate: float, servers: int
) -> float:
    """Mean response time (wait + service)."""
    return mmc_mean_wait(arrival_rate, service_rate, servers) + 1.0 / service_rate


def mm1_response_percentile(
    arrival_rate: float, service_rate: float, q: float
) -> float:
    """The ``q``-th percentile response time of an M/M/1 queue.

    Response time is exponential with rate ``mu - lambda``:
    ``t(q) = -ln(1 - q/100) / (mu - lambda)``.
    """
    _validate(arrival_rate, service_rate, 1)
    if not 0 < q < 100:
        raise ConfigurationError(f"percentile must be in (0, 100), got {q}")
    return -math.log(1.0 - q / 100.0) / (service_rate - arrival_rate)


def servers_for_target_wait(
    arrival_rate: float,
    service_rate: float,
    target_wait_s: float,
    max_servers: int = 1024,
) -> int:
    """Fewest servers keeping the mean M/M/c wait below ``target_wait_s``.

    The analytic analogue of Ursa's replica sizing.
    """
    if target_wait_s <= 0:
        raise ConfigurationError(f"target wait must be > 0, got {target_wait_s}")
    minimum = math.floor(arrival_rate / service_rate) + 1
    for servers in range(minimum, max_servers + 1):
        if mmc_mean_wait(arrival_rate, service_rate, servers) <= target_wait_s:
            return servers
    raise ConfigurationError(
        f"no server count up to {max_servers} meets the target wait"
    )
