"""Benchmark applications (§VI) and topology types.

Builders return :class:`~repro.apps.topology.AppSpec` objects; deploy
them on a fresh simulated cluster with :func:`~repro.apps.topology.make_app`.
"""

from repro.apps.chains import CHAIN_CLASS, build_chain_spec, tier_name
from repro.apps.media_service import MEDIA_SERVICE_SLAS, build_media_service_spec
from repro.apps.profiling_harness import PROFILE_CLASS, profiling_harness_spec
from repro.apps.social_network import (
    SOCIAL_NETWORK_SLAS,
    build_social_network_spec,
    build_vanilla_social_network_spec,
    swap_object_detect_model,
)
from repro.apps.topology import (
    Application,
    AppSpec,
    RequestClass,
    SlaSpec,
    make_app,
)
from repro.apps.video_pipeline import VIDEO_PIPELINE_SLAS, build_video_pipeline_spec

__all__ = [
    "Application",
    "AppSpec",
    "CHAIN_CLASS",
    "MEDIA_SERVICE_SLAS",
    "PROFILE_CLASS",
    "RequestClass",
    "SlaSpec",
    "SOCIAL_NETWORK_SLAS",
    "VIDEO_PIPELINE_SLAS",
    "build_chain_spec",
    "build_media_service_spec",
    "build_social_network_spec",
    "build_vanilla_social_network_spec",
    "build_video_pipeline_spec",
    "make_app",
    "profiling_harness_spec",
    "swap_object_detect_model",
    "tier_name",
]
