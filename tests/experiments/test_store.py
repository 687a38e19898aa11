"""Results store: sidecar round-trips, mismatch detection, offline checks."""

from __future__ import annotations

import json

import pytest

from repro.experiments import store
from repro.experiments.store import (
    ResultsMismatchError,
    RunMeta,
    check_results,
    load_sidecar,
    save_result,
    sidecar_path,
)


@pytest.fixture(autouse=True)
def _isolated_results_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.delenv("REPRO_RESULTS_UPDATE", raising=False)


def _meta(**overrides) -> RunMeta:
    base = dict(
        experiment="figXX",
        scale="quick",
        seeds={"cell": 11},
        digests={"cell": "ab" * 16},
        summaries={"cls": {"p99_s": 0.25, "violation_rate": 0.01}},
    )
    base.update(overrides)
    return RunMeta(**base)


def test_save_writes_text_and_valid_sidecar():
    side = save_result("figXX", "rendered table", _meta())
    assert side == sidecar_path("figXX")
    assert (store.results_dir() / "figXX.txt").read_text() == "rendered table\n"
    sidecar = load_sidecar("figXX")
    assert sidecar is not None
    assert sidecar["experiment"] == "figXX"
    assert sidecar["digests"] == {"cell": "ab" * 16}
    assert sidecar["seeds"] == {"cell": 11}
    assert sidecar["package_version"]
    assert check_results() == []


def test_regeneration_with_same_run_is_byte_identical():
    save_result("figXX", "rendered table", _meta())
    first = sidecar_path("figXX").read_bytes()
    save_result("figXX", "rendered table", _meta())
    assert sidecar_path("figXX").read_bytes() == first


def test_digest_mismatch_fails_loudly():
    save_result("figXX", "rendered table", _meta())
    with pytest.raises(ResultsMismatchError, match="digests changed"):
        save_result(
            "figXX", "rendered table", _meta(digests={"cell": "cd" * 16})
        )


def test_text_drift_fails_for_deterministic_outputs():
    save_result("figXX", "rendered table", _meta())
    with pytest.raises(ResultsMismatchError, match="text changed"):
        save_result("figXX", "different render", _meta())


def test_nondeterministic_text_may_drift():
    meta = _meta(deterministic=False)
    save_result("figXX", "took 12.3 ms", meta)
    save_result("figXX", "took 45.6 ms", meta)  # no raise
    assert check_results() == []


def test_update_env_var_accepts_the_new_run(monkeypatch):
    save_result("figXX", "rendered table", _meta())
    monkeypatch.setenv("REPRO_RESULTS_UPDATE", "1")
    save_result("figXX", "rendered table", _meta(digests={"cell": "cd" * 16}))
    sidecar = load_sidecar("figXX")
    assert sidecar["digests"] == {"cell": "cd" * 16}


def test_identity_change_overwrites_without_error():
    save_result("figXX", "rendered table", _meta())
    # Different seed partition = a different experiment configuration,
    # not a reproducibility failure.
    save_result(
        "figXX",
        "other render",
        _meta(seeds={"cell": 99}, digests={"cell": "cd" * 16}),
    )
    assert load_sidecar("figXX")["seeds"] == {"cell": 99}


def test_check_detects_injected_text_mismatch():
    save_result("figXX", "rendered table", _meta())
    txt = store.results_dir() / "figXX.txt"
    txt.write_text("tampered\n")
    problems = check_results()
    assert len(problems) == 1
    assert "does not match the recorded run" in problems[0]
    assert store.main([]) == 1


def test_check_detects_tampered_sidecar():
    save_result("figXX", "rendered table", _meta())
    side = sidecar_path("figXX")
    payload = json.loads(side.read_text())
    payload["digests"]["cell"] = "ef" * 16  # forge without re-checksumming
    side.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    problems = check_results()
    assert len(problems) == 1
    assert "self-checksum mismatch" in problems[0]


def test_check_detects_stale_sidecar_and_strict_missing():
    save_result("figXX", "rendered table", _meta())
    (store.results_dir() / "figXX.txt").unlink()
    (store.results_dir() / "other.txt").write_text("no sidecar\n")
    problems = check_results()
    assert any("stale sidecar" in p for p in problems)
    assert not any("other" in p for p in problems)
    strict_problems = check_results(strict=True)
    assert any("other: missing sidecar" in p for p in strict_problems)


def test_invalid_json_sidecar_is_reported():
    save_result("figXX", "rendered table", _meta())
    sidecar_path("figXX").write_text("{not json")
    problems = check_results()
    assert problems == ["figXX: sidecar is not valid JSON"]


def test_digest_round_trip_through_a_real_run():
    # Write -> regenerate -> compare, with actual deployments: the same
    # seed must save cleanly twice (matching digests, identical sidecar),
    # and a different seed must be treated as a new configuration.
    from tests.experiments.test_trace_determinism import traced_run

    def save_run(seed: int):
        result = traced_run(seed, tracing=False)
        meta = RunMeta(
            experiment="store-round-trip",
            scale="quick",
            seeds={"run": seed},
            digests={"run": result.run_digest},
            summaries={
                "run": {
                    "completed": float(result.completed_requests),
                    "violation_rate": round(result.windowed_violation_rate, 9),
                }
            },
        )
        return save_result("store-round-trip", "digest-round-trip", meta)

    save_run(11)
    first = sidecar_path("store-round-trip").read_bytes()
    save_run(11)  # same seed reproduces: no raise, identical sidecar
    assert sidecar_path("store-round-trip").read_bytes() == first
    recorded = json.loads(first)
    assert recorded["digests"]["run"]
    assert recorded["summaries"]  # per-class metric summaries present
    save_run(12)  # new seed = new identity: overwrite, no raise
    assert json.loads(sidecar_path("store-round-trip").read_bytes()) != recorded


# -- alert/audit pinning and HTML artifacts ----------------------------


def test_alerts_and_audits_round_trip_only_when_present():
    save_result("figXX", "rendered table", _meta())
    # Runs without a monitor emit no alerts/audits keys at all, so the
    # sidecars committed before the SLO layer stay byte-identical.
    sidecar = load_sidecar("figXX")
    assert "alerts" not in sidecar
    assert "audits" not in sidecar
    meta = _meta(
        alerts={"cell": "ab" * 16},
        audits={"read": {"mismatch": False}},
    )
    save_result("figYY", "monitored table", meta)
    sidecar = load_sidecar("figYY")
    assert sidecar["alerts"] == {"cell": "ab" * 16}
    assert sidecar["audits"] == {"read": {"mismatch": False}}
    assert check_results() == []


def test_alert_stream_drift_fails_loudly():
    save_result("figXX", "rendered table", _meta(alerts={"cell": "ab" * 16}))
    with pytest.raises(ResultsMismatchError, match="alert-stream digests"):
        save_result(
            "figXX", "rendered table", _meta(alerts={"cell": "cd" * 16})
        )


def test_artifact_files_saved_and_checked():
    meta = _meta()
    save_result(
        "figXX",
        "rendered table",
        meta,
        artifacts={"figXX_report.html": "<!DOCTYPE html>\n<p>dash</p>\n"},
    )
    html = store.results_dir() / "figXX_report.html"
    assert html.read_text().startswith("<!DOCTYPE html>")
    sidecar = load_sidecar("figXX")
    assert set(sidecar["artifacts"]) == {"figXX_report.html"}
    assert check_results() == []
    # Tampering with the artifact is caught by the offline check.
    html.write_text("<!DOCTYPE html>\n<p>tampered</p>\n")
    problems = check_results()
    assert len(problems) == 1
    assert "figXX_report.html" in problems[0]
    # So is deleting it.
    html.unlink()
    problems = check_results()
    assert len(problems) == 1
    assert "missing" in problems[0]


def test_artifact_filenames_validated():
    for bad in ("../escape.html", "a/b.html", ".hidden"):
        with pytest.raises(ValueError, match="invalid artifact name"):
            save_result(
                "figXX", "rendered table", _meta(), artifacts={bad: "x"}
            )


# -- cross-scale layout ------------------------------------------------


def test_full_scale_routes_to_subdirectory():
    save_result("figXX", "quick render", _meta())
    side = save_result("figXX", "full render", _meta(scale="full"))
    assert side == store.scale_dir("full") / "figXX.meta.json"
    assert side.parent == store.results_dir() / "full"
    # The quick output at the root is untouched.
    assert (store.results_dir() / "figXX.txt").read_text() == "quick render\n"
    assert (store.results_dir() / "full" / "figXX.txt").read_text() == (
        "full render\n"
    )
    assert load_sidecar("figXX")["scale"] == "quick"
    assert load_sidecar("figXX", "full")["scale"] == "full"
    assert check_results() == []


def test_scales_have_independent_mismatch_detection():
    save_result("figXX", "quick render", _meta())
    save_result("figXX", "full render", _meta(scale="full"))
    # Same experiment, different scale: no identity clash across dirs...
    save_result("figXX", "quick render", _meta())
    # ...but within one scale the usual guarantees hold.
    with pytest.raises(ResultsMismatchError, match="text changed"):
        save_result("figXX", "different full render", _meta(scale="full"))


def test_check_results_covers_present_scales():
    save_result("figXX", "quick render", _meta())
    save_result("figXX", "full render", _meta(scale="full"))
    txt = store.results_dir() / "full" / "figXX.txt"
    txt.write_text("tampered\n")
    problems = check_results()
    assert len(problems) == 1
    assert problems[0].startswith("full/figXX:")
    assert store.present_scales() == ["quick", "full"]


def test_scale_qualified_names():
    save_result("figXX", "full render", _meta(scale="full"))
    assert check_results(["full/figXX"]) == []
    missing = check_results(["full/figYY"])
    assert missing == ["full/figYY: results/full/figYY.txt does not exist"]


def test_misplaced_sidecar_is_flagged():
    save_result("figXX", "full render", _meta(scale="full"))
    # Copy the full output (txt + sidecar) to the quick root: internally
    # consistent, but it sits in the wrong directory.
    root = store.results_dir()
    for suffix in (".txt", ".meta.json"):
        (root / f"figXX{suffix}").write_bytes(
            (root / "full" / f"figXX{suffix}").read_bytes()
        )
    problems = check_results()
    assert len(problems) == 1
    assert "records scale 'full'" in problems[0]


def test_traces_dir_is_not_a_scale():
    (store.results_dir() / "traces").mkdir()
    (store.results_dir() / "traces" / "run.jsonl").write_text("{}\n")
    save_result("figXX", "quick render", _meta())
    assert store.present_scales() == ["quick"]
    assert check_results() == []


def test_invalid_scale_names_rejected():
    for bad in ("..", "full/extra", "traces"):
        with pytest.raises(ValueError, match="invalid scale name"):
            store.scale_dir(bad)


def test_cli_reports_scales(capsys):
    save_result("figXX", "quick render", _meta())
    save_result("figXX", "full render", _meta(scale="full"))
    assert store.main([]) == 0
    out = capsys.readouterr().out
    assert "2 result(s) across 2 scale(s) [quick, full]" in out
