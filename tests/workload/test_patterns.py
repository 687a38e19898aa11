"""Tests for load patterns and request mixes."""

import pytest

from repro.errors import ConfigurationError
from repro.workload import ConstantLoad, DiurnalLoad, RequestMix
from repro.workload.defaults import (
    default_mix_for,
    media_service_mix,
    skewed_mixes,
    social_network_mix,
    video_pipeline_mix,
)


def test_constant_load():
    load = ConstantLoad(50.0)
    assert load(0) == 50.0
    assert load(1e6) == 50.0
    assert load.peak == 50.0


def test_constant_load_validation():
    with pytest.raises(ConfigurationError):
        ConstantLoad(0)


def test_diurnal_load_shape():
    load = DiurnalLoad(low=10, high=100, period_s=3600)
    assert load(0) == pytest.approx(10)
    assert load(1800) == pytest.approx(100)
    assert load(3600) == pytest.approx(10)
    assert load(900) == pytest.approx(55)
    assert load.peak == 100


def test_diurnal_validation():
    with pytest.raises(ConfigurationError):
        DiurnalLoad(low=0, high=10, period_s=100)
    with pytest.raises(ConfigurationError):
        DiurnalLoad(low=20, high=10, period_s=100)


def test_mix_normalises():
    mix = RequestMix({"a": 1.0, "b": 3.0})
    assert mix.fraction("a") == pytest.approx(0.25)
    assert mix.fraction("b") == pytest.approx(0.75)
    assert mix.fraction("missing") == 0.0


def test_mix_class_loads_split_the_aggregate():
    mix = RequestMix({"a": 1.0, "b": 3.0})
    loads = mix.class_loads(40.0)
    assert loads == {"a": 40.0 * mix.fraction("a"), "b": 40.0 * mix.fraction("b")}
    assert list(loads) == mix.classes()
    assert sum(loads.values()) == pytest.approx(40.0)


def test_mix_validation():
    with pytest.raises(ConfigurationError):
        RequestMix({})
    with pytest.raises(ConfigurationError):
        RequestMix({"a": -1.0})
    with pytest.raises(ConfigurationError):
        RequestMix({"a": 0.0})


def test_mix_scaled():
    mix = RequestMix({"a": 1.0, "b": 1.0})
    doubled = mix.scaled("a", 2.0)
    assert doubled.fraction("a") == pytest.approx(2 / 3)
    with pytest.raises(ConfigurationError):
        mix.scaled("missing", 2.0)


def test_default_mixes_cover_all_classes():
    from repro.apps import (
        build_media_service_spec,
        build_social_network_spec,
        build_video_pipeline_spec,
    )

    for builder in (
        build_social_network_spec,
        build_media_service_spec,
        build_video_pipeline_spec,
    ):
        spec = builder()
        mix = default_mix_for(spec.name)
        assert set(mix.classes()) == {rc.name for rc in spec.request_classes}


def test_media_mix_ratios_match_paper():
    """§VII-C: upload : get-info : download : rate = 1 : 100 : 25 : 25."""
    mix = media_service_mix()
    up = mix.fraction("upload-video")
    assert mix.fraction("get-info") == pytest.approx(100 * up)
    assert mix.fraction("download-video") == pytest.approx(25 * up)
    assert mix.fraction("rate-video") == pytest.approx(25 * up)


def test_video_pipeline_mix_split():
    mix = video_pipeline_mix(0.25)
    assert mix.fraction("high-priority") == pytest.approx(0.25)
    with pytest.raises(ValueError):
        video_pipeline_mix(0.0)


def test_skewed_mixes_differ_from_default():
    for app in ("social-network", "media-service", "video-pipeline"):
        base = default_mix_for(app)
        for skewed in skewed_mixes(app):
            assert skewed.weights != base.weights
    with pytest.raises(ValueError):
        skewed_mixes("nope")


def test_social_mix_read_dominated():
    mix = social_network_mix()
    assert mix.fraction("read-timeline") > mix.fraction("upload-post")


def test_generator_bounded_outstanding():
    """Client-side shedding: outstanding requests never exceed the cap."""
    from repro.apps.topology import AppSpec, Application, RequestClass, SlaSpec
    from repro.cluster import ClusterOptions
    from repro.net.messages import Call
    from repro.services.spec import ServiceSpec
    from repro.sim import Constant, RandomStreams
    from repro.workload import LoadGenerator

    spec = AppSpec(
        "shed",
        services=(
            # Capacity 10 rps; offered 100 rps: heavy overload.
            ServiceSpec("svc", cpus_per_replica=1, handlers={"r": Constant(0.1)},
                        threads_per_cpu=4),
        ),
        request_classes=(RequestClass("r", Call("svc"), SlaSpec(99, 60)),),
    )
    app = Application(
        spec, 0, initial_replicas=1,
        cluster_options=ClusterOptions(nodes=1, node_cpus=16, node_memory_gb=32),
    )
    env = app.env
    env.run(until=10)
    gen = LoadGenerator(app, ConstantLoad(100.0), RequestMix({"r": 1.0}),
                        RandomStreams(1), stop_at_s=60, max_outstanding=8)
    gen.start()
    env.run(until=60)
    assert gen.outstanding <= 8
    assert gen.shed > 0  # overload was actually shed at the client
    total = sum(gen.generated.values())
    assert total <= 60 * 12  # admitted roughly at service capacity


def test_rate_multiplier_scales_arrivals():
    from repro.apps.topology import AppSpec, Application, RequestClass, SlaSpec
    from repro.cluster import ClusterOptions
    from repro.net.messages import Call
    from repro.services.spec import ServiceSpec
    from repro.sim import Constant, RandomStreams
    from repro.workload import LoadGenerator

    spec = AppSpec(
        "mult",
        services=(
            ServiceSpec("svc", cpus_per_replica=4, handlers={"r": Constant(0.001)}),
        ),
        request_classes=(RequestClass("r", Call("svc"), SlaSpec(99, 60)),),
    )
    app = Application(
        spec, 2, initial_replicas=1,
        cluster_options=ClusterOptions(nodes=1, node_cpus=16, node_memory_gb=32),
    )
    env = app.env
    env.run(until=10)
    gen = LoadGenerator(app, ConstantLoad(20.0), RequestMix({"r": 1.0}),
                        RandomStreams(3), stop_at_s=1e9)
    gen.start()
    env.run(until=110)
    base_count = sum(gen.generated.values())
    gen.set_rate_multiplier(2.0)
    env.run(until=210)
    doubled = sum(gen.generated.values()) - base_count
    assert doubled == pytest.approx(2 * base_count, rel=0.2)
    with pytest.raises(ConfigurationError):
        gen.set_rate_multiplier(100.0)
