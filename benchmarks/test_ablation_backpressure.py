"""Ablation: enforcing the backpressure-free threshold during exploration.

Algorithm 1 stops reducing replicas when the profiled service's CPU
utilisation crosses its backpressure-free threshold, preserving the
independence assumption behind Theorem 1's per-service decomposition.
This ablation explores one RPC-called service twice -- with the threshold
enforced and with it disabled (threshold = 1.0) -- and compares:

* how deep exploration pushes (utilisation of the last recorded option);
* the end-to-end accuracy of the resulting latency bound, measured by
  deploying with each profile and comparing predicted vs measured
  latency.  Without the stop, options recorded in the backpressure zone
  violate the independence assumption and the bound degrades.

The sweep itself lives in :mod:`repro.experiments.ablations` so its
variants can fan out across processes.
"""

from conftest import run_and_save

from repro.experiments import artifacts
from repro.experiments.ablations import ABLATION_APP, BP_SERVICE


def test_ablation_backpressure(benchmark):
    enforced, disabled = run_and_save(benchmark, "ablation-backpressure")
    max_util_enforced = max(o.utilization for o in enforced.options)
    max_util_disabled = max(o.utilization for o in disabled.options)
    # The enforced variant never records options in the backpressure zone.
    bp = artifacts.backpressure_thresholds(ABLATION_APP).get(BP_SERVICE, 0.6)
    assert max_util_enforced < bp + 0.05
    # Disabling the stop explores deeper (or at least as deep) into the
    # utilisation range -- the unsafe region Ursa deliberately avoids.
    assert max_util_disabled >= max_util_enforced - 0.05
