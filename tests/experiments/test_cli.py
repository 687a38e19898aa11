"""Tests for the CLI surface and the experiment registry behind it."""

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.cli import main
from repro.experiments.store import RunMeta

ROOT = Path(__file__).resolve().parents[2]

#: Every optional flag the registry gates, with a sample argument list.
FLAG_ARGS = {
    "--apps": ["--apps", "social-network"],
    "--jobs": ["--jobs", "2"],
    "--progress": ["--progress"],
    "--dump-traces": ["--dump-traces", "3"],
    "--report": ["--report"],
    "--cells": ["--cells", "4"],
    "--smoke": ["--smoke"],
    "--save": ["--save"],
}


@pytest.fixture
def canned(monkeypatch, tmp_path):
    """Swap every runner for a canned outcome; returns the requests seen."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    seen = []

    def runner(stem, request):
        seen.append(request)
        name = stem or "summary"
        return registry.Outcome(
            name, f"canned {name}", RunMeta(experiment=name, scale="quick")
        )

    monkeypatch.setattr(
        registry,
        "EXPERIMENTS",
        tuple(dataclasses.replace(e, runner=runner) for e in registry.EXPERIMENTS),
    )
    return seen


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_known_names_listed():
    names = [e.name for e in registry.EXPERIMENTS]
    assert len(names) == len(set(names))
    assert "fig02" in names
    assert "table06" in names


def test_run_rejects_bad_name():
    with pytest.raises(KeyError):
        registry.get("bogus")


@pytest.mark.parametrize(
    "experiment", registry.EXPERIMENTS, ids=lambda e: e.name
)
def test_registry_matrix(experiment, canned, tmp_path, capsys):
    args = ["--save"] if experiment.accepts("--save") else []
    assert main([experiment.name, *args]) == 0
    assert f"canned {experiment.stem or 'summary'}" in capsys.readouterr().out
    if args:
        assert (tmp_path / f"{experiment.stem}.txt").exists()
        assert (tmp_path / f"{experiment.stem}.meta.json").exists()
    for flag, flag_args in FLAG_ARGS.items():
        ran = len(canned)
        if experiment.accepts(flag):
            assert main([experiment.name, *flag_args]) == 0, flag
            assert len(canned) == ran + 1, flag
        else:
            with pytest.raises(SystemExit) as excinfo:
                main([experiment.name, *flag_args])
            assert excinfo.value.code != 0, flag
            assert len(canned) == ran, flag


@pytest.mark.parametrize("other", ["--save", "--report"])
def test_apps_rejected_with_save_or_report(other, canned):
    # A subset grid has its own seeds, so the store would overwrite the
    # pinned full grid instead of refusing.
    with pytest.raises(SystemExit) as excinfo:
        main(["fig11-12", "--apps", "social-network", other])
    assert excinfo.value.code != 0
    assert canned == []


def test_flags_reach_the_runner(canned):
    main(["fig11-12", "--apps", "social-network,media-service", "--jobs", "3"])
    main(["fleet", "--smoke"])
    assert canned[0].apps == ("social-network", "media-service")
    assert canned[0].jobs == 3
    assert canned[1].smoke and canned[1].cells is None


def test_dump_traces_go_under_the_results_dir(tmp_path, monkeypatch):
    # Trace files follow REPRO_RESULTS_DIR like every other output, not
    # the working directory.
    from repro.telemetry.tracing import PHASE_SERVICE, Trace, traces_to_jsonl

    trace = Trace(1, "read", arrival=0.0)
    root = trace.begin_root("frontend", "rpc")
    root.record(PHASE_SERVICE, 0.0, 0.5)
    root.response_end = root.end = trace.completion = 0.5
    results, cwd = tmp_path / "results", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(results))
    monkeypatch.chdir(cwd)

    def runner(stem, _request):
        return registry.Outcome(
            stem,
            f"canned {stem}",
            RunMeta(experiment=stem, scale="quick"),
            traces={"cell": traces_to_jsonl([trace])},
        )

    monkeypatch.setattr(
        registry,
        "EXPERIMENTS",
        tuple(dataclasses.replace(e, runner=runner) for e in registry.EXPERIMENTS),
    )
    assert main(["fig10", "--save", "--dump-traces", "1"]) == 0
    assert (results / "fig10_model_accuracy.txt").exists()
    dumped = sorted((results / "traces" / "fig10_model_accuracy").iterdir())
    assert [p.name for p in dumped] == ["cell.read.r000001.trace.json"]
    assert list(cwd.iterdir()) == []


def test_fig10_save_reproduces_the_pin(tmp_path, monkeypatch):
    # One real run through the registry's save path.
    results = tmp_path / "results"
    shutil.copytree(ROOT / "results", results)
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(results))
    assert main(["fig10", "--save"]) == 0
    for name in ("fig10_model_accuracy.txt", "fig10_model_accuracy.meta.json"):
        assert (results / name).read_bytes() == (ROOT / "results" / name).read_bytes()


@pytest.mark.parametrize(
    "probe",
    [
        # Listing the registry loads no experiment module...
        "from repro.experiments.cli import main; "
        "from repro.experiments.summary import summarize; summarize(); "
        "print('\\n'.join(m for m in sys.modules "
        "if m.startswith('repro.experiments.') and m.split('.')[2] not in "
        "('cli', 'registry', 'summary', 'parallel', 'runner', 'sanitizer')))",
        # ...and the public API does not load the registry.
        "import repro.api; print('repro.experiments.registry' in sys.modules or '')",
    ],
)
def test_registry_import_boundaries(probe):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import sys; " + probe],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == []


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "fig02" in out
    assert "--jobs" in out


def test_jobs_flag_validated():
    with pytest.raises(SystemExit):
        main(["fig13", "--jobs", "0"])
    with pytest.raises(SystemExit):
        main(["fig13", "--jobs", "not-a-number"])


def test_save_rejected_for_summary():
    # ``summary`` aggregates other results and has no provenance of its
    # own to persist.
    with pytest.raises(SystemExit):
        main(["summary", "--save"])


def test_fleet_flags_validated():
    # --cells/--smoke only make sense for the fleet experiment.
    with pytest.raises(SystemExit):
        main(["fig13", "--cells", "4"])
    with pytest.raises(SystemExit):
        main(["fig13", "--smoke"])
    with pytest.raises(SystemExit):
        main(["fleet", "--cells", "0"])


def test_dump_traces_flag_validated():
    # Only tracing-capable experiments accept --dump-traces, and N >= 1.
    with pytest.raises(SystemExit):
        main(["fig13", "--dump-traces", "3"])
    with pytest.raises(SystemExit):
        main(["fig09", "--dump-traces", "0"])
    with pytest.raises(SystemExit):
        main(["fig09", "--dump-traces", "not-a-number"])
