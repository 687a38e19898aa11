"""Tests for the artifact cache plumbing (no heavy builds)."""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.experiments import artifacts


def test_app_spec_builders():
    for name in (
        "social-network",
        "vanilla-social-network",
        "media-service",
        "video-pipeline",
    ):
        spec = artifacts.app_spec(name)
        assert spec.name == name
        assert artifacts.app_rps(name) > 0
    with pytest.raises(ValueError):
        artifacts.app_spec("nope")
    with pytest.raises(KeyError):
        artifacts.app_rps("nope")


def test_cached_round_trip(monkeypatch, tmp_path):
    monkeypatch.setattr(artifacts, "cache_dir", lambda: tmp_path)
    calls = []

    def build():
        calls.append(1)
        return {"value": 42}

    first = artifacts._cached("unit-test-key", build)
    second = artifacts._cached("unit-test-key", build)
    assert first == second == {"value": 42}
    assert len(calls) == 1  # second call hit the pickle
    files = list(tmp_path.glob("unit-test-key-*.pkl"))
    assert len(files) == 1


def test_cache_key_includes_scale_profile(monkeypatch, tmp_path):
    monkeypatch.setattr(artifacts, "cache_dir", lambda: tmp_path)
    monkeypatch.setenv("REPRO_SCALE", "quick")
    artifacts._cached("k", lambda: 1)
    monkeypatch.setenv("REPRO_SCALE", "full")
    artifacts._cached("k", lambda: 2)
    assert len(list(tmp_path.glob("k-*.pkl"))) == 2


def test_corrupt_entry_is_a_miss(monkeypatch, tmp_path):
    monkeypatch.setattr(artifacts, "cache_dir", lambda: tmp_path)

    def build():
        return [1, 2, 3]

    artifacts._cached("corrupt", build)
    (path,) = tmp_path.glob("corrupt-*.pkl")
    path.write_bytes(b"\x80\x04 truncated garbage")
    assert artifacts._cached("corrupt", build) == [1, 2, 3]
    with path.open("rb") as fh:
        assert pickle.load(fh) == [1, 2, 3], "rebuilt entry republished"


def test_concurrent_misses_build_once(monkeypatch, tmp_path):
    """Four processes racing on one cold key perform exactly one build.

    Without the per-key lock each racer pays the full build (N grid
    workers missing one cold artefact cost N explorations instead of one).
    """
    monkeypatch.setattr(artifacts, "cache_dir", lambda: tmp_path)
    builds_dir = tmp_path / "build-markers"
    builds_dir.mkdir()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()

    def worker():
        def build():
            # ursalint: disable=SIM001 -- real wall-clock uniquifier for a real race
            marker = builds_dir / f"pid-{os.getpid()}-{time.monotonic_ns()}"
            marker.touch()
            time.sleep(0.2)  # widen the race window
            return {"value": 42}

        queue.put(artifacts._cached("race-key", build)["value"])

    procs = [ctx.Process(target=worker) for _ in range(4)]
    for p in procs:
        p.start()
    values = [queue.get(timeout=30) for _ in procs]
    for p in procs:
        p.join(timeout=30)
    assert values == [42, 42, 42, 42]
    assert len(list(builds_dir.iterdir())) == 1, "lock must serialise builds"


def test_lock_file_left_in_place(monkeypatch, tmp_path):
    """The lock file persists -- unlinking it would reopen the race."""
    monkeypatch.setattr(artifacts, "cache_dir", lambda: tmp_path)
    artifacts._cached("keep-lock", lambda: 1)
    assert list(tmp_path.glob("keep-lock-*.pkl.lock"))


def test_distinct_keys_do_not_share_a_lock(monkeypatch, tmp_path):
    """Key A's lock never blocks key B's build (no global serialisation)."""
    monkeypatch.setattr(artifacts, "cache_dir", lambda: tmp_path)
    path_a = tmp_path / f"a-{artifacts.scale_profile().name}.pkl"
    with artifacts._key_lock(path_a):
        assert artifacts._cached("b", lambda: "built-b") == "built-b"


def test_exploration_key_ignores_pre_per_service_digest_pickles(monkeypatch, tmp_path):
    """A pickle under the old key carries the old chained digest; it must
    be rebuilt, not re-published into Table V's sidecar."""
    monkeypatch.setattr(artifacts, "cache_dir", lambda: tmp_path)
    monkeypatch.setenv("REPRO_SCALE", "quick")
    stale = tmp_path / "exploration-video-pipeline-default-quick.pkl"
    stale.write_bytes(pickle.dumps("stale chained-digest artefact"))
    monkeypatch.setattr(
        artifacts, "backpressure_thresholds", lambda app_name, **_: {}
    )
    monkeypatch.setattr(
        artifacts, "explore_services", lambda *args, **kwargs: "rebuilt"
    )
    assert artifacts.exploration_result("video-pipeline") == "rebuilt"
    assert (tmp_path / "exploration-v2-video-pipeline-default-quick.pkl").exists()
    assert pickle.loads(stale.read_bytes()) == "stale chained-digest artefact"
