"""Communication substrate: call trees, requests and message queues.

The RPC semantics themselves (worker-thread holding for nested RPC, daemon
pools for event-driven RPC) are implemented by the service runtime in
:mod:`repro.services.base`; this package defines the shared vocabulary
(:mod:`repro.net.messages`) and the message-queue primitive
(:mod:`repro.net.mq`).  Import from those modules: the package itself
re-exports nothing.
"""
