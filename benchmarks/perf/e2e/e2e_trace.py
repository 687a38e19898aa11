"""Instruments the benchmark's child processes install.

:class:`SpeedProbe` runs in every child and measures how fast the shared
host is running while the child works, so times can be reported at a
reference speed.  Two more instruments give the per-layer attribution;
they are installed only in the traced child so the timed runs carry no
tracing cost:

* :class:`StackSampler` -- ``SIGPROF`` every ~2 ms of process CPU time,
  handled in the main thread (no extra thread).  Each sample is charged to
  the innermost frame whose module lives under ``repro.`` and grouped by
  the package below ``src/repro/`` -- the layer.
* :class:`BoundaryTracer` -- wraps class methods and module attributes
  that are looked up at call time (a name another module imported with
  ``from x import y`` keeps the original unless that module's attribute
  is patched too).  Each wrapper records a span ``[name, start, end,
  parent]`` or bumps a counter; :meth:`BoundaryTracer.restore` puts every
  original back.

The benchmark only observes: nothing under ``src/`` is edited, and the
simulated timeline is unchanged (wrappers call straight through).
"""

from __future__ import annotations

import mmap
import os
import signal
import time
import weakref

__all__ = ["LAYERS", "BoundaryTracer", "SpeedProbe", "StackSampler", "attribute", "layer_of"]

#: Layers a sample can land in: ``src/repro/`` packages, with the two
#: engine-adjacent modules whose cost a later change may target on their
#: own split out of ``sim``.  ``other`` takes repro modules outside these
#: packages (the facade, errors, analysis) and stacks with no repro frame.
LAYERS = (
    "sim",
    "sim.trace",
    "sim.random",
    "services",
    "net",
    "apps",
    "workload",
    "telemetry",
    "cluster",
    "core",
    "solver",
    "baselines",
    "stats",
    "experiments",
    "fleet",
    "other",
)


def layer_of(module: str) -> str | None:
    """The layer of a module name, or ``None`` outside the repro package."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    if len(parts) > 2 and f"{parts[1]}.{parts[2]}" in LAYERS:
        return f"{parts[1]}.{parts[2]}"
    return parts[1] if parts[1] in LAYERS else "other"


def attribute(frame) -> str:
    """Layer of the innermost ``repro.*`` frame on the stack ending at ``frame``."""
    while frame is not None:
        layer = layer_of(frame.f_globals.get("__name__", ""))
        if layer is not None:
            return layer
        frame = frame.f_back
    return "other"


class StackSampler:
    """CPU-time stack sampler (a context manager around the timed call)."""

    def __init__(self, interval_s: float = 0.002) -> None:
        self.interval_s = interval_s
        self.samples = dict.fromkeys(LAYERS, 0)
        self._previous = None

    def _sample(self, _signum, frame) -> None:
        self.samples[attribute(frame)] += 1

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """``<layer>.self_share`` and ``<layer>.self_s`` (share x ``wall_s``)."""
        total = sum(self.samples.values())
        out = {}
        for layer, count in self.samples.items():
            share = count / total if total else 0.0
            out[f"{layer}.self_share"] = share
            out[f"{layer}.self_s"] = share * wall_s
        return out


class SpeedProbe:
    """Host-speed probe: a fixed pure-Python loop, timed every ``period_s``.

    On a shared host the CPU's speed drifts by 10-20 % over seconds to
    minutes, and a CPU-bound run slows with it.  The loop runs from a
    ``SIGALRM`` handler in the main thread, so its samples interleave with
    the work being timed and see the same host.  Samples are thread CPU
    time, so a process that waits while others hold the CPUs measures
    speed, not its own scheduling delay.  Pool workers forked while the
    probe runs keep probing in their own process and add their samples to
    a shared mapping, so a pooled run is rescaled by the speed of the CPUs
    that did its work.  It costs ~1.5 % of each process's time, the same
    on every commit.
    """

    LOOP = 20_000
    #: The loop's time at the reference host speed: its typical time on
    #: the 2-vCPU Xeon VM the baseline was recorded on.
    REFERENCE_S = 0.0007
    #: How much more the simulator slows than the loop when the host is
    #: contended: fitted on the reference host over 400 invocations of two
    #: workloads whose loop time ranged 0.62-1.2 ms (log-log slopes 1.20
    #: and 1.26).  With 1.0 the rescaled times still rose 8-13 % as the
    #: loop slowed 1.6x.
    SENSITIVITY = 1.2
    #: Processes that can report: this one and the workers it forks.
    SLOTS = 16

    @classmethod
    def normalized(cls, seconds: float, loop_s: float) -> float:
        """``seconds`` rescaled to the reference host speed."""
        return seconds * (cls.REFERENCE_S / loop_s) ** cls.SENSITIVITY

    def __init__(self, period_s: float = 0.05) -> None:
        self.period_s = period_s
        #: (sum of loop times, sample count) per process slot, in an
        #: anonymous shared mapping that forked children write into.
        self._totals = memoryview(mmap.mmap(-1, 16 * self.SLOTS)).cast("d")
        self._slot = 0
        self._forks = 0
        self._running = False
        os.register_at_fork(before=self._before_fork, after_in_child=self._after_fork)

    def _tick(self, _signum=None, _frame=None) -> None:
        start = time.thread_time()
        total = 0
        for i in range(self.LOOP):
            total += i
        self._totals[2 * self._slot] += time.thread_time() - start
        self._totals[2 * self._slot + 1] += 1

    def _before_fork(self) -> None:
        self._forks += 1

    def _after_fork(self) -> None:
        # A forked child inherits the handler but not the timer.
        self._slot = min(self._forks, self.SLOTS - 1)
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def start(self) -> "SpeedProbe":
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> float:
        """Mean loop time, over every reporting process, since the last call."""
        if not any(self._totals[1::2]):
            self._tick()
        total, count = sum(self._totals[0::2]), sum(self._totals[1::2])
        for i in range(len(self._totals)):
            self._totals[i] = 0.0
        return total / count


#: MetricsHub read paths (per-window queries from managers, profilers and
#: result extraction).
_QUERIES = (
    "latency_distribution",
    "latency_percentile",
    "counter_total",
    "counter_rate",
    "gauge_mean",
    "gauge_series",
)


class BoundaryTracer:
    """Spans and counts at the repo's layer boundaries for one run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per wrapped call.
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts = {"sim.envs": 0, "sim.processes": 0, "apps.scale_calls": 0}
        #: ``run_deployment`` wall minus the result's own ``wall_seconds``.
        self.extract_s = 0.0
        self._env_ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: Env serial -> timeout freelist counters at its latest ``run`` exit.
        self._timeouts: dict[int, dict[str, int]] = {}
        self._digests: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def install(self) -> "BoundaryTracer":
        from repro.apps.topology import Application
        from repro.baselines.autoscaler import StepAutoscaler
        from repro.core.backpressure import BackpressureProfiler
        from repro.core.exploration import ExplorationController
        from repro.core.optimizer import OptimizationEngine
        from repro.experiments import fig11_12_performance
        from repro.fleet import runner as fleet_runner
        from repro.sim.engine import Environment
        from repro.sim.trace import RunDigest
        from repro.telemetry.metrics import MetricsHub

        self._patch(Environment, "__init__", self._on_env_init)
        self._patch(Environment, "process", self._counted("sim.processes"))
        self._patch(Environment, "run", self._on_env_run)
        self._patch(RunDigest, "__init__", self._on_digest_init)
        self._patch(Application, "scale", self._counted("apps.scale_calls"))
        for query in _QUERIES:
            self._patch(MetricsHub, query, self._spanned("telemetry.query"))
        self._patch(BackpressureProfiler, "profile_spec", self._spanned("core.profile_spec"))
        self._patch(
            ExplorationController, "explore_service", self._spanned("core.explore_service")
        )
        self._patch(OptimizationEngine, "optimize", self._spanned("core.optimize"))
        self._patch(StepAutoscaler, "step", self._spanned("baselines.autoscaler"))
        for module in (fig11_12_performance, fleet_runner):
            self._patch(module, "run_deployment", self._on_run_deployment)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "BoundaryTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, name: str, make_wrapper) -> None:
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    # -- wrapper factories -------------------------------------------------
    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def _exit(self, index: int) -> float:
        self._open.pop()
        span = self.spans[index]
        span[2] = time.monotonic()
        return span[2] - span[1]

    def _spanned(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                index = self._enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._exit(index)

            return wrapper

        return make

    def _counted(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    def _on_env_init(self, original):
        def wrapper(env, *args, **kwargs):
            original(env, *args, **kwargs)
            self.counts["sim.envs"] += 1
            self._env_ids[env] = self.counts["sim.envs"]

        return wrapper

    def _on_env_run(self, original):
        def wrapper(env, *args, **kwargs):
            index = self._enter("sim.run")
            try:
                return original(env, *args, **kwargs)
            finally:
                self._exit(index)
                serial = self._env_ids.get(env)
                if serial is not None:
                    self._timeouts[serial] = env.timeout_pool_stats()

        return wrapper

    def _on_digest_init(self, original):
        def wrapper(digest, *args, **kwargs):
            original(digest, *args, **kwargs)
            self._digests.append(digest)

        return wrapper

    def _on_run_deployment(self, original):
        def wrapper(*args, **kwargs):
            index = self._enter("experiments.run_deployment")
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = self._exit(index)
            self.extract_s += elapsed - result.wall_seconds
            return result

        return wrapper

    # -- results -----------------------------------------------------------
    def span_stats(self, name: str) -> tuple[int, float, float]:
        """``(calls, seconds, max seconds)`` for one span name.

        Seconds sum the outermost spans of that name only, so a query that
        calls another query is not counted twice.
        """
        durations = []
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name != name:
                continue
            durations.append(end - start)
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return len(durations), total, max(durations, default=0.0)

    def metrics(self, time_scale: float = 1.0) -> dict[str, float]:
        """Counts and span times; every duration is multiplied by ``time_scale``."""
        out = self._raw_metrics()
        for name, value in out.items():
            if name.endswith("_s") or name.endswith("_per_event"):
                out[name] = value * time_scale
        return out

    def _raw_metrics(self) -> dict[str, float]:
        run_calls, run_s, _ = self.span_stats("sim.run")
        allocs = sum(stats["allocs"] for stats in self._timeouts.values())
        reuses = sum(stats["reuses"] for stats in self._timeouts.values())
        events = sum(digest.events for digest in self._digests)
        out = {
            "sim.envs": self.counts["sim.envs"],
            "sim.processes": self.counts["sim.processes"],
            "sim.run_calls": run_calls,
            "sim.run_s": run_s,
            "sim.timeouts": allocs + reuses,
            "sim.timeout_reuse_fraction": reuses / (allocs + reuses) if allocs + reuses else 0.0,
            "sim.events": events,
            "sim.us_per_event": run_s * 1e6 / events if events else 0.0,
            "apps.scale_calls": self.counts["apps.scale_calls"],
            "experiments.extract_s": self.extract_s,
        }
        calls, seconds, _ = self.span_stats("telemetry.query")
        out["telemetry.query_calls"] = calls
        out["telemetry.query_s"] = seconds
        for name in ("core.profile_spec", "core.explore_service"):
            calls, seconds, longest = self.span_stats(name)
            out[f"{name}_calls"] = calls
            out[f"{name}_s"] = seconds
            out[f"{name}_max_s"] = longest
        calls, seconds, _ = self.span_stats("core.optimize")
        out["core.optimize_calls"] = calls
        out["core.optimize_s"] = seconds
        calls, seconds, _ = self.span_stats("baselines.autoscaler")
        out["baselines.autoscaler_steps"] = calls
        out["baselines.autoscaler_s"] = seconds
        return out
