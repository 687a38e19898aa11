"""Fig. 2 -- backpressure propagation through three 5-tier chains.

Each chain (nested RPC, event-driven RPC, MQ) is stress-tested for ten
minutes; between minutes 3 and 6 the leaf tier's CPU is throttled.  The
output is the per-tier p99 response time per minute -- the paper's
heatmap.  Expected shape:

* nested RPC: strong latency inflation at tier 4 (the parent of the
  culprit), diminishing up the chain, negligible above tier 3;
* event-driven RPC: the same pattern, weaker;
* MQ: no upstream inflation at all (only the throttled tier itself).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.chains import CHAIN_CLASS, build_chain_spec, tier_name
from repro.apps.topology import make_app
from repro.experiments.report import render_heatmap
from repro.experiments.runner import scale_profile
from repro.experiments.store import RunMeta
from repro.net.messages import CallMode
from repro.sim.random import RandomStreams
from repro.sim.trace import RunDigest
from repro.workload.generator import LoadGenerator
from repro.workload.mixes import RequestMix
from repro.workload.patterns import ConstantLoad

__all__ = [
    "ChainHeatmap",
    "run_chain",
    "run_all_chains",
    "backpressure_factor",
    "render_report",
    "experiment_meta",
]

#: Experiment timeline (seconds): 10 one-minute columns, throttle in 3-6.
MINUTES = 10
THROTTLE_START_MIN = 3
THROTTLE_END_MIN = 6

#: Default seed for the three chain runs.
FIG2_SEED = 5


@dataclass
class ChainHeatmap:
    """Per-tier p99 response times (ms), one row per tier, one col/minute."""

    mode: CallMode
    tiers: int
    values: list[list[float]]  # [tier][minute]
    #: Event-trace checksum of the chain's run (``digest=True``).
    run_digest: str | None = None

    def render(self) -> str:
        return render_heatmap(
            title=f"Fig.2 ({self.mode.value}) p99 response time per tier (ms)",
            row_labels=[tier_name(i) for i in range(1, self.tiers + 1)],
            col_labels=[f"m{m}" for m in range(MINUTES)],
            values=self.values,
        )


def run_chain(
    mode: CallMode,
    tiers: int = 5,
    rps: float = 120.0,
    work_mean_s: float = 0.010,
    replicas: int = 2,
    throttle_factor: float = 0.25,
    seed: int = FIG2_SEED,
    digest: bool = True,
) -> ChainHeatmap:
    """One chain's ten-minute stress test with mid-run leaf throttling."""
    spec = build_chain_spec(mode, tiers=tiers, work_mean_s=work_mean_s)
    run_digest = RunDigest() if digest else None
    app = make_app(spec, seed=seed, initial_replicas=replicas, trace=run_digest)
    app.env.run(until=10)
    # A Locust-style bounded user pool: under overload the backlog queues
    # at the client, so per-tier response times reflect backpressure, not
    # an unbounded arrival queue at tier 1 (matching the paper's setup).
    tier1_threads = (
        spec.service(tier_name(1)).threads_per_cpu
        * spec.service(tier_name(1)).cpus_per_replica
        * replicas
    )
    LoadGenerator(
        app,
        pattern=ConstantLoad(rps),
        mix=RequestMix({CHAIN_CLASS: 1.0}),
        streams=RandomStreams(seed + 1),
        max_outstanding=tier1_threads,
    ).start()
    leaf = app.services[tier_name(tiers)]
    env = app.env
    t0 = env.now
    values = [[0.0] * MINUTES for _ in range(tiers)]
    for minute in range(MINUTES):
        if minute == THROTTLE_START_MIN:
            leaf.set_speed_factor(throttle_factor)
        if minute == THROTTLE_END_MIN:
            leaf.set_speed_factor(1.0)
        w0 = t0 + minute * 60.0
        env.run(until=w0 + 60.0)
        for i in range(1, tiers + 1):
            p99 = app.hub.latency_percentile(
                "service_latency",
                99.0,
                w0,
                w0 + 60.0,
                {"service": tier_name(i), "request": CHAIN_CLASS},
                default=0.0,
            )
            values[i - 1][minute] = p99 * 1000.0
    return ChainHeatmap(
        mode=mode,
        tiers=tiers,
        values=values,
        run_digest=run_digest.hexdigest() if run_digest is not None else None,
    )


def run_all_chains(**kwargs) -> dict[CallMode, ChainHeatmap]:
    """All three Fig. 2 panels."""
    return {mode: run_chain(mode, **kwargs) for mode in CallMode}


def render_report(heatmaps: dict[CallMode, ChainHeatmap]) -> str:
    """Canonical rendered text for ``results/fig02_backpressure.txt``.

    Shared by the CLI and the benchmark so both save byte-identical text
    under the same sidecar identity: the three heatmaps followed by the
    per-tier inflation-factor summary.
    """
    text = "\n\n".join(hm.render() for hm in heatmaps.values())
    summary = ["", "backpressure factors (throttled/baseline p99):"]
    for mode, hm in heatmaps.items():
        factors = {t: backpressure_factor(hm, t) for t in range(1, 6)}
        summary.append(
            f"  {mode.value}: "
            + "  ".join(f"tier{t}={f:.2f}" for t, f in factors.items())
        )
    return text + "\n" + "\n".join(summary)


def backpressure_factor(heatmap: ChainHeatmap, tier: int) -> float:
    """Latency inflation of ``tier`` during throttling vs before.

    The quantitative summary of the heatmap: ratio of the tier's mean p99
    during the throttled minutes to its mean p99 in the pre-throttle
    minutes.  ~1.0 means no backpressure reached the tier.
    """
    row = heatmap.values[tier - 1]
    before = row[:THROTTLE_START_MIN]
    during = row[THROTTLE_START_MIN:THROTTLE_END_MIN]
    base = sum(before) / len(before)
    throttled = sum(during) / len(during)
    if base <= 0:
        return float("inf") if throttled > 0 else 1.0
    return throttled / base


def experiment_meta(
    heatmaps: dict[CallMode, ChainHeatmap], seed: int = FIG2_SEED
) -> RunMeta:
    """Provenance sidecar for the Fig. 2 output (one run per chain)."""
    return RunMeta(
        experiment="fig02",
        scale=scale_profile().name,
        seeds={mode.value: seed for mode in heatmaps},
        digests={
            mode.value: hm.run_digest
            for mode, hm in heatmaps.items()
            if hm.run_digest is not None
        },
        summaries={
            mode.value: {
                f"tier{t}_inflation_x": round(backpressure_factor(hm, t), 6)
                for t in range(1, hm.tiers + 1)
            }
            for mode, hm in heatmaps.items()
        },
    )
