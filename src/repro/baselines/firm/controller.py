"""Firm's manager: per-service agents, online training, deployment loop.

Training follows the paper: agents learn during online deployment with
injected performance anomalies (random CPU throttles and load spikes) so
they see SLA-violating states.  At deployment each control interval every
agent reads its service's state, picks a replica delta, and the manager
applies it -- the decision path is one small forward pass per service
(Table VI: faster than Sinan's centralised batch inference, slower than
Ursa's threshold check).
"""

from __future__ import annotations

import numpy as np

from repro.apps.topology import Application, AppSpec
from repro.baselines.firm.agent import FirmAgent
from repro.core.control_loop import ControlLoop
from repro.core.exploration import start_profiling_run
from repro.errors import ConfigurationError
from repro.sim.random import RandomStreams
from repro.workload.mixes import RequestMix

__all__ = ["FirmManager", "train_firm_agents"]

#: Chance per training window that a random service gets CPU-throttled.
ANOMALY_PROBABILITY = 0.25
#: Replica cap per service, in training and deployment alike: the agent
#: state normalises the replica count by it.
MAX_REPLICAS = 32
#: Seconds between two deployment decisions.
CONTROL_INTERVAL_S = 30.0
#: Replicas per service before the first decision.
INITIAL_REPLICAS = 2


def _service_state(app: Application, service: str, t0: float,
                   t1: float) -> np.ndarray:
    hub = app.hub
    utilization = hub.gauge_mean(
        "cpu_utilization", t0, t1, {"service": service}, default=0.0
    )
    queue_depth = hub.gauge_mean(
        "queue_depth", t0, t1, {"service": service}, default=0.0
    )
    pressure = 0.0
    for rc in app.spec.request_classes:
        dist = app.hub.latency_distribution(
            "request_latency", t0, t1, {"request": rc.name}
        )
        if dist:
            pressure = max(
                pressure, dist.percentile(rc.sla.percentile) / rc.sla.target_s
            )
    replicas = app.services[service].deployment.desired_replicas
    return np.asarray(
        [
            min(1.0, utilization),
            min(1.0, queue_depth / 100.0),
            min(3.0, pressure) / 3.0,
            replicas / MAX_REPLICAS,
        ]
    )


def _app_violated(app: Application, t0: float, t1: float) -> bool:
    for rc in app.spec.request_classes:
        dist = app.hub.latency_distribution(
            "request_latency", t0, t1, {"request": rc.name}
        )
        if dist and dist.count >= 10 and (
            dist.percentile(rc.sla.percentile) > rc.sla.target_s
        ):
            return True
    return False


def train_firm_agents(
    spec: AppSpec,
    mix: RequestMix,
    rps: float,
    streams: RandomStreams,
    n_samples: int = 400,
    window_s: float = 30.0,
    seed_salt: int = 0,
) -> tuple[dict[str, FirmAgent], float]:
    """Online training with anomaly injection.

    Returns the trained agents and the simulated collection time.  Each
    window yields one transition per agent; the paper's budget is 10,000
    samples (Table V accounting).
    """
    agents = {
        s.name: FirmAgent(s.name, seed=seed_salt * 131 + k)
        for k, s in enumerate(spec.services)
    }
    app, _generator, provisioning = start_profiling_run(
        spec, mix, rps, streams, seed_salt, window_s=window_s, warmup_s=60.0
    )
    env = app.env
    rng = streams.stream(f"firm-train:{spec.name}:{seed_salt}")
    cpus_reference = {
        s.name: provisioning[s.name] * s.cpus_per_replica for s in spec.services
    }
    t_start = env.now
    states: dict[str, np.ndarray] = {}
    actions: dict[str, float] = {}
    throttled: str | None = None
    for step in range(n_samples):
        w0 = env.now
        # Anomaly injection: occasionally throttle a random service.
        if throttled is not None:
            app.services[throttled].set_speed_factor(1.0)
            throttled = None
        elif rng.random() < ANOMALY_PROBABILITY:
            throttled = str(rng.choice(list(agents)))
            app.services[throttled].set_speed_factor(float(rng.uniform(0.2, 0.6)))
        env.run(until=w0 + window_s)
        violated = _app_violated(app, w0, env.now)
        noise = max(0.05, 0.5 * (1.0 - step / max(1, n_samples)))
        for name, agent in agents.items():
            state = _service_state(app, name, w0, env.now)
            if name in states:
                cpus = app.services[name].allocated_cpus
                reward = agent.reward(violated, cpus, cpus_reference[name])
                agent.remember(states[name], actions[name], reward, state)
                agent.update()
            action = agent.act(state, noise_std=noise)
            delta = agent.action_to_delta(action)
            current = app.services[name].deployment.desired_replicas
            target = int(np.clip(current + delta, 1, MAX_REPLICAS))
            if target != current:
                app.scale(name, target)
            states[name] = state
            actions[name] = action
    return agents, env.now - t_start


class FirmManager(ControlLoop):
    """Deployment-time controller applying the trained agents.

    The agents keep learning online: each step first trains every agent
    on the transition its previous decision led to.
    """

    interval_s = CONTROL_INTERVAL_S

    def __init__(self, app: Application, agents: dict[str, FirmAgent]) -> None:
        missing = set(app.services) - set(agents)
        if missing:
            raise ConfigurationError(f"no agents for services: {sorted(missing)}")
        super().__init__(app)
        self.agents = agents
        self.decisions = 0
        self._last: dict[str, tuple[np.ndarray, float]] = {}
        self._cpus_reference = {
            s.name: 4 * s.cpus_per_replica for s in app.spec.services
        }

    def initialize(self) -> None:
        """Apply the starting allocation."""
        for name in self.app.services:
            self.app.scale(name, INITIAL_REPLICAS)

    # ------------------------------------------------------------------
    def decide(self, service: str, t0: float, t1: float) -> int:
        """One agent decision: state read + actor forward pass."""
        agent = self.agents[service]
        state = _service_state(self.app, service, t0, t1)
        action = agent.act(state)
        delta = agent.action_to_delta(action)
        current = self.app.services[service].deployment.desired_replicas
        self._last[service] = (state, action)
        return int(np.clip(current + delta, 1, MAX_REPLICAS))

    def step(self) -> None:
        now = self.app.env.now
        t0 = max(0.0, now - CONTROL_INTERVAL_S)
        if now <= t0:
            return
        violated = _app_violated(self.app, t0, now)
        for service, agent in self.agents.items():
            if service in self._last:
                state, action = self._last[service]
                next_state = _service_state(self.app, service, t0, now)
                cpus = self.app.services[service].allocated_cpus
                reward = agent.reward(
                    violated, cpus, self._cpus_reference[service]
                )
                agent.remember(state, action, reward, next_state)
                agent.update()
            target = self.decide(service, t0, now)
            if target != self.app.services[service].deployment.desired_replicas:
                self.app.scale(service, target)
        self.decisions += 1
