"""Tests for the benchmark application specs (Tables II-IV topologies)."""

import pytest

from repro.apps import (
    CHAIN_CLASS,
    MEDIA_SERVICE_SLAS,
    SOCIAL_NETWORK_SLAS,
    build_chain_spec,
    build_media_service_spec,
    build_social_network_spec,
    build_vanilla_social_network_spec,
    build_video_pipeline_spec,
    swap_object_detect_model,
    tier_name,
)
from repro.net.messages import CallMode


def test_social_network_matches_table2():
    spec = build_social_network_spec()
    slas = {rc.name: rc.sla for rc in spec.request_classes}
    assert set(slas) == set(SOCIAL_NETWORK_SLAS)
    for name, target in SOCIAL_NETWORK_SLAS.items():
        assert slas[name].target_s == target
        assert slas[name].percentile == 99.0


def test_social_network_uses_mqs_and_rpcs():
    spec = build_social_network_spec()
    modes = {
        call.mode
        for rc in spec.request_classes
        for call in rc.tree.walk()
    }
    assert CallMode.RPC in modes
    assert CallMode.MQ in modes


def test_vanilla_variant_drops_ml_services():
    full = build_social_network_spec()
    vanilla = build_vanilla_social_network_spec()
    full_names = {s.name for s in full.services}
    vanilla_names = {s.name for s in vanilla.services}
    assert "sentiment-ml" in full_names and "object-detect-ml" in full_names
    assert "sentiment-ml" not in vanilla_names
    assert "object-detect-ml" not in vanilla_names
    assert {rc.name for rc in vanilla.request_classes} < {
        rc.name for rc in full.request_classes
    }


def test_media_service_matches_table3():
    spec = build_media_service_spec()
    slas = {rc.name: rc.sla for rc in spec.request_classes}
    assert set(slas) == set(MEDIA_SERVICE_SLAS)
    for name, target in MEDIA_SERVICE_SLAS.items():
        assert slas[name].target_s == target


def test_video_pipeline_matches_table4():
    spec = build_video_pipeline_spec()
    slas = {rc.name: rc.sla for rc in spec.request_classes}
    assert slas["high-priority"].percentile == 99.0
    assert slas["high-priority"].target_s == 20.0
    assert slas["low-priority"].percentile == 50.0
    assert slas["low-priority"].target_s == 4.0


def test_video_pipeline_priorities():
    spec = build_video_pipeline_spec()
    high = spec.request_class("high-priority")
    low = spec.request_class("low-priority")
    assert high.priority < low.priority
    # All stage edges are MQs.
    assert all(c.mode == CallMode.MQ for c in high.tree.walk())
    assert high.tree.depth() == 3


def test_object_detect_path_matches_fig14():
    """object-detect goes through frontend, image store, post service."""
    spec = build_social_network_spec()
    services = spec.request_class("object-detect").services()
    for name in ("frontend", "image-store", "post-storage", "object-detect-ml"):
        assert name in services


def test_swap_object_detect_model_lightens_handler():
    spec = build_social_network_spec()
    before = spec.service("object-detect-ml").handlers["object-detect"]
    swapped = swap_object_detect_model(spec)
    after = swapped.service("object-detect-ml").handlers["object-detect"]
    assert after.mean < before.mean / 2
    # Other services untouched.
    assert swapped.service("frontend") == spec.service("frontend")


def test_chain_spec_structure():
    spec = build_chain_spec(CallMode.RPC, tiers=5)
    assert len(spec.services) == 5
    rc = spec.request_class(CHAIN_CLASS)
    assert rc.tree.depth() == 5
    assert rc.tree.service == tier_name(1)
    leafward = rc.tree
    while leafward.children:
        leafward = leafward.children[0]
    assert leafward.service == tier_name(5)


@pytest.mark.parametrize("mode", [CallMode.RPC, CallMode.EVENT, CallMode.MQ])
def test_chain_edge_modes(mode):
    spec = build_chain_spec(mode, tiers=4)
    rc = spec.request_class(CHAIN_CLASS)
    # Root is client-facing RPC; internal edges use the requested mode.
    assert rc.tree.mode == CallMode.RPC
    for call in rc.tree.walk()[1:]:
        assert call.mode == mode


def test_chain_needs_two_tiers():
    with pytest.raises(ValueError):
        build_chain_spec(CallMode.RPC, tiers=1)


def test_all_specs_validate():
    for builder in (
        build_social_network_spec,
        build_vanilla_social_network_spec,
        build_media_service_spec,
        build_video_pipeline_spec,
    ):
        spec = builder()
        assert spec.services and spec.request_classes
