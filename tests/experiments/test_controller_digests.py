"""Event-trace digests for controller-owned runs (fig04 / table05).

The backpressure profiler and the exploration controller build their
environments internally, so their experiments used to be content-hash
only.  The profiler accepts a ``trace=`` hook installed on every
measurement environment; the exploration controller digests each
service's environment on request (``digest=True``).  These tests pin the
threading, the determinism of the resulting digests, and the sidecar
wiring.
"""

from repro.core.backpressure import BackpressureProfile, BackpressureProfiler, ProfilePoint
from repro.core.exploration import ExplorationController
from repro.experiments.fig04_thresholds import ThresholdCurves
from repro.experiments.fig04_thresholds import experiment_meta as fig04_meta
from repro.experiments.table05_exploration import ExplorationOverheadRow, Table05
from repro.experiments.table05_exploration import experiment_meta as table05_meta
from repro.sim.random import LogNormal, RandomStreams
from repro.sim.trace import RunDigest, combine_digests
from repro.workload.mixes import RequestMix

from tests.core.test_exploration import tiny_spec


class CountingHook:
    def __init__(self):
        self.events = 0

    def __call__(self, when, priority, seq, event):
        self.events += 1


def quick_profiler():
    return BackpressureProfiler(
        RandomStreams(5), window_s=2.0, samples_per_limit=2
    )


def test_profiler_installs_trace_on_measurement_envs():
    hook = CountingHook()
    profiler = quick_profiler()
    point = profiler._measure_at_limit(
        "svc", LogNormal(0.004, 0.4), cpu_limit=2, rps=50.0, trace=hook
    )
    assert point.cpu_limit == 2
    assert hook.events > 0


def test_profiler_measurements_are_digest_deterministic():
    digests = []
    for _ in range(2):
        digest = RunDigest()
        quick_profiler()._measure_at_limit(
            "svc", LogNormal(0.004, 0.4), cpu_limit=2, rps=50.0, trace=digest
        )
        digests.append(digest.hexdigest())
    assert digests[0] == digests[1]
    # Pinned: the measurement deployment (cluster shape, seeds, start-up
    # and load protocol) replays the same event trace.
    assert digests[0] == "caff6d3376814ba92f2c1b3805215826"


def _explore(digest):
    controller = ExplorationController(
        RandomStreams(7),
        window_s=10.0,
        samples_per_step=3,
        warmup_s=20.0,
        settle_s=5.0,
        min_window_samples=20,
    )
    return controller.explore_app(
        tiny_spec(), RequestMix({"req": 1.0}), 60.0, {"work": 0.65}, digest=digest
    )


def test_exploration_digest_is_deterministic_and_optional():
    traced_a = _explore(True)
    traced_b = _explore(True)
    plain = _explore(False)
    assert traced_a.trace_digest is not None
    assert traced_a.trace_digest == traced_b.trace_digest
    assert plain.trace_digest is None
    assert all(p.trace_digest is None for p in plain.profiles.values())
    # One digest per service; the app digest is their combination.
    per_service = {n: p.trace_digest for n, p in traced_a.profiles.items()}
    assert len(set(per_service.values())) == len(per_service)
    assert traced_a.trace_digest == combine_digests(per_service)
    # Pinned: each service's exploration deployment replays the same trace.
    assert per_service == {
        "front": "fb0cb08951e052c641c176fce31f23a3",
        "work": "3a8df33355b106f79952dfb335ef3889",
    }
    # Tracing observes scheduling, never steers it: same profiles.
    assert traced_a.total_samples == plain.total_samples
    assert {n: p.samples_collected for n, p in traced_a.profiles.items()} == {
        n: p.samples_collected for n, p in plain.profiles.items()
    }


def _fig04_curves(digests):
    profile = BackpressureProfile(
        service="post",
        threshold_utilization=0.5,
        converged_cpu_limit=3,
        points=[ProfilePoint(3, (0.01, 0.01), tested_p99=0.01, utilization=0.5)],
    )
    return ThresholdCurves(profiles={"post": profile}, digests=digests)


def test_fig04_meta_pins_digests():
    meta = fig04_meta(_fig04_curves({"post": "cd" * 16}))
    assert dict(meta.digests) == {"post": "cd" * 16}
    assert dict(fig04_meta(_fig04_curves({})).digests) == {}


def test_table05_meta_pins_digests_and_skips_legacy_rows():
    def row(app, digest):
        return ExplorationOverheadRow(
            app=app,
            ursa_samples=100,
            ursa_time_h=1.0,
            ml_samples=10_000,
            ml_time_h=166.7,
            trace_digest=digest,
        )

    table = Table05(rows=[row("social-network", "ef" * 16), row("media-service", "")])
    meta = table05_meta(table)
    # Rows from pre-digest cached artefacts carry no fingerprint and are
    # omitted rather than pinned as empty strings.
    assert dict(meta.digests) == {"social-network": "ef" * 16}
