"""The tiny two-service app the baseline tests deploy and train on."""

from repro.apps.topology import AppSpec, RequestClass, SlaSpec
from repro.net.messages import Call, CallMode
from repro.services.spec import ServiceSpec
from repro.sim import LogNormal


def tiny_spec(sla_target_s: float, request: str = "req") -> AppSpec:
    """``front`` RPC-calls ``work``; one request class, p99 SLA."""
    return AppSpec(
        "tiny",
        services=(
            ServiceSpec("front", cpus_per_replica=1,
                        handlers={request: LogNormal(0.002, 0.4)}),
            ServiceSpec("work", cpus_per_replica=1,
                        handlers={request: LogNormal(0.010, 0.5)}),
        ),
        request_classes=(
            RequestClass(request, Call("front", CallMode.RPC, (Call("work"),)),
                         SlaSpec(99.0, sla_target_s)),
        ),
    )


#: Sinan's tiny app: a tight SLA so underprovisioned windows violate.
SINAN_SLA_S = 0.06
#: Firm's tiny app.
FIRM_SLA_S = 0.15
