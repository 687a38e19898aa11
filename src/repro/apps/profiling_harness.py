"""The 3-tier profiling harness of Fig. 3.

``client -> proxy -> tested service``: the proxy acts as the parent
service and simply forwards requests via nested RPC.  The backpressure
profiler (:mod:`repro.core.backpressure`) deploys this spec through
:class:`~repro.apps.topology.Application` once per CPU limit, ramps the
tested service's limit while watching the *proxy's* latency, and reads
the tested service's CPU utilisation just before the proxy latency
converges as its backpressure-free threshold.

The harness synthesises aggregate load from multiple upstream sources
(fan-in) by running several independent arrival processes against the same
proxy, per §III's "complex invocation patterns" note.
"""

from __future__ import annotations

from repro.apps.topology import AppSpec, RequestClass, SlaSpec
from repro.net.messages import Call, CallMode
from repro.services.spec import ServiceSpec
from repro.sim.random import Distribution, LogNormal

__all__ = ["profiling_harness_spec", "PROFILE_CLASS"]

#: Request class used by the profiling engine.
PROFILE_CLASS = "profile-request"

#: The proxy's cores: ample, since it only forwards.
PROXY_CPUS = 4

#: A loose SLA: the harness measures latency, it does not judge it.
PROFILE_SLA_S = 5.0


def profiling_harness_spec(
    tested_name: str,
    tested_work: Distribution,
    tested_cpus: int = 2,
) -> AppSpec:
    """The Fig. 3 engine around one tested service.

    The proxy has ample CPU (it only forwards) but a realistic, bounded
    request-thread pool -- mirroring gRPC's concurrent-stream limits.  The
    bounded pool is what makes the proxy's latency sensitive to downstream
    congestion: when the tested service's residency grows, blocked proxy
    threads pile up and the proxy's own queueing delay rises.  The pool is
    sized to about twice the tested service's core count, which places the
    measured backpressure onset in the utilisation band the paper reports
    (Fig. 4: 46-60 %).
    """
    return AppSpec(
        name=f"profiling-{tested_name}",
        services=(
            ServiceSpec(
                "proxy",
                cpus_per_replica=PROXY_CPUS,
                handlers={PROFILE_CLASS: LogNormal(0.0005, 0.3)},
                memory_per_replica_gb=0.5,
                threads_per_cpu=max(1, (2 * tested_cpus) // PROXY_CPUS),
            ),
            ServiceSpec(
                tested_name,
                cpus_per_replica=tested_cpus,
                handlers={PROFILE_CLASS: tested_work},
                memory_per_replica_gb=1.0,
            ),
        ),
        request_classes=(
            RequestClass(
                PROFILE_CLASS,
                Call("proxy", CallMode.RPC, (Call(tested_name, CallMode.RPC),)),
                SlaSpec(percentile=99.0, target_s=PROFILE_SLA_S),
            ),
        ),
    )
