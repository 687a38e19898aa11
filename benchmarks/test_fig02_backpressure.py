"""Fig. 2 benchmark: backpressure heatmaps for the three chains.

Shape targets (§III): nested RPC shows significant backpressure, most
pronounced at tier 4 and negligible above tier 3; event-driven RPC the
same but weaker; MQ shows none.
"""

from conftest import run_and_save

from repro.experiments.fig02_backpressure import backpressure_factor
from repro.net.messages import CallMode


def test_fig02_backpressure(benchmark):
    heatmaps = run_and_save(benchmark, "fig02")

    rpc = heatmaps[CallMode.RPC]
    event = heatmaps[CallMode.EVENT]
    mq = heatmaps[CallMode.MQ]
    # Nested RPC: parent of the culprit inflates most among tiers 1-4.
    rpc_factors = [backpressure_factor(rpc, t) for t in range(1, 5)]
    assert max(rpc_factors) == rpc_factors[3]
    assert rpc_factors[3] > 3.0
    # ...and diminishes up the chain: tiers 1-2 below tier 4.
    assert rpc_factors[0] < rpc_factors[3]
    assert rpc_factors[1] < rpc_factors[3]
    # Event-driven: backpressure present at tier 4.
    assert backpressure_factor(event, 4) > 2.0
    # MQ: no backpressure anywhere upstream; culprit tier inflates.
    for tier in range(1, 5):
        assert backpressure_factor(mq, tier) < 1.3
    assert backpressure_factor(mq, 5) > 5.0
