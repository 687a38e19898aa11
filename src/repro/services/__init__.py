"""Microservice runtime: specs, replicas and call-execution semantics.

:mod:`repro.services.spec` holds :class:`~repro.services.spec.ServiceSpec`;
:mod:`repro.services.base` holds the runtime
(:class:`~repro.services.base.Microservice`,
:class:`~repro.services.base.Replica`).  Import from those modules: the
package itself re-exports nothing.
"""
