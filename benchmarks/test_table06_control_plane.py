"""Table VI benchmark: control-plane decision latency.

Shape targets (absolute numbers are host-dependent):

* deployment decisions: autoscaling <= Ursa << Firm << Sinan;
* updates: Ursa's MIP re-solve is much cheaper than ML retraining and
  within an order of magnitude of a Firm online iteration.
"""

from conftest import run_and_save


def test_table06_control_plane(benchmark):
    table = run_and_save(benchmark, "table06")
    deploy = table.deploy_ms
    # Ordering shape.
    assert deploy["autoscaling"] <= deploy["ursa"] * 2.0
    assert deploy["ursa"] < deploy["firm"], deploy
    assert deploy["firm"] < deploy["sinan"], deploy
    # Ursa's fast path is sub-10ms even in pure Python.
    assert deploy["ursa"] < 10.0, deploy
    # Updates: Ursa's re-solve completes in bounded time.
    assert table.update_ms["ursa"] is not None
    assert table.update_ms["sinan"] is None  # retraining, not online
