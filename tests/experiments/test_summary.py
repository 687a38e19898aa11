"""Tests for the results digest."""

from pathlib import Path

from repro.experiments.cli import main
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.summary import summarize

RESULTS = Path(__file__).resolve().parents[2] / "results"


def test_summarize_empty_dir(tmp_path):
    text = summarize(tmp_path)
    assert text.startswith("no results yet")
    assert "missing" in text
    assert "fig02_backpressure" in text


def test_summary_honours_results_dir_override(tmp_path, monkeypatch, capsys):
    # `python -m repro summary` reads the same directory --save writes.
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert main(["summary"]) == 0
    out = capsys.readouterr().out
    assert "no results yet" in out
    assert "fig02_backpressure" in out  # listed as missing


def test_summarize_includes_present_files(tmp_path):
    (tmp_path / "fig02_backpressure.txt").write_text("HEATMAP DATA\n")
    text = summarize(tmp_path)
    assert "Fig. 2" in text
    assert "HEATMAP DATA" in text
    assert "fig04_thresholds" in text  # still listed as missing


def test_committed_results_are_registered():
    # Every committed output is a registered experiment's result or a
    # named by-product of one (the fig11-12 dashboard, the CI fleet run).
    stems = {e.stem for e in EXPERIMENTS if e.stem is not None}
    by_products = {"fig11_12_report", "fleet_smoke"}
    committed = {path.stem for path in RESULTS.rglob("*.txt")}
    assert committed
    assert committed <= stems | by_products, committed - stems - by_products
