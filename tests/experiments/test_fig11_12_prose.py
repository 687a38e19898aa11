"""EXPERIMENTS.md quotes the Figs. 11/12 numbers the pinned sidecar holds.

Every figure in the "Figs. 11 & 12" section is recomputed here from
``results/fig11_12_performance.txt`` and must appear in the prose, so a
re-pin that moves a number fails until the text is updated with it.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
MANAGERS = ("auto-a", "auto-b", "firm", "sinan", "ursa")
NAMES = {"auto-a": "Auto-a", "auto-b": "Auto-b", "firm": "Firm", "sinan": "Sinan"}


def _parse(block: str) -> dict[tuple[str, str], dict[str, float]]:
    """One table of the sidecar: (app, load) -> manager -> value."""
    rows = block.strip().splitlines()
    assert tuple(rows[1].split()[2:]) == MANAGERS
    table = {}
    for row in rows[3:]:
        app, load, *values = row.split()
        table[(app, load)] = dict(zip(MANAGERS, map(float, values)))
    return table


@pytest.fixture(scope="module")
def tables():
    violations, cpus = (ROOT / "results" / "fig11_12_performance.txt").read_text().split("\n\n")
    return _parse(violations), _parse(cpus)


@pytest.fixture(scope="module")
def prose() -> str:
    """The section's text, with line breaks folded into single spaces."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    start = text.index("## Figs. 11 & 12")
    return " ".join(text[start:text.index("\n## ", start + 1)].split())


def _pct(share: float) -> str:
    return f"{round(100 * share, 1):g}"


def _column(table, manager: str) -> list[float]:
    return [row[manager] for row in table.values()]


def test_violation_ranges_are_quoted(tables, prose):
    violations, _ = tables
    ursa = _column(violations, "ursa")
    assert f"**Ursa: {_pct(min(ursa))}-{_pct(max(ursa))} %**" in prose
    for manager in ("sinan", "firm"):
        column = _column(violations, manager)
        mean = round(100 * sum(column) / len(column))
        span = f"{_pct(min(column))}-{_pct(max(column))} %"
        assert f"**{NAMES[manager]}: {span}** (mean ~{mean} %)" in prose
    assert f"violates up to **{_pct(max(_column(violations, 'auto-a')))} %**" in prose
    auto_b = _column(violations, "auto-b")
    assert f"**Auto-b** violates {_pct(min(auto_b))}-{_pct(max(auto_b))} %" in prose
    worst = [f"{app}/{load}" for (app, load), row in violations.items() if row["ursa"] == max(ursa)]
    for cell in worst:
        assert cell in prose


def test_cpu_ratios_are_quoted(tables, prose):
    _, cpus = tables
    auto_b = {cell: row["auto-b"] / row["ursa"] for cell, row in cpus.items()}
    assert f"**{min(auto_b.values()):.2f}-{max(auto_b.values()):.2f}x** Ursa's CPUs" in prose
    assert sum(ratio < 1 for ratio in auto_b.values()) == 1
    sinan = {cell: row["sinan"] / row["ursa"] for cell, row in cpus.items()}
    (app, load), peak = max(sinan.items(), key=lambda item: item[1])
    row = cpus[(app, load)]
    assert f"**{peak:.2f}x**" in prose
    assert f"({app}/{load}: {row['sinan']:.1f} vs {row['ursa']:.1f})" in prose
    ursa = {cell: row["ursa"] for cell, row in cpus.items()}
    constant, skewed = ursa[("media-service", "constant")], ursa[("media-service", "skewed")]
    assert f"media {constant:.1f} -> {skewed:.1f}" in prose
    apps = sorted({app for app, _load in cpus})
    grew = sum(ursa[(app, "skewed")] > ursa[(app, "constant")] for app in apps)
    assert f"{grew} of {len(apps)} apps" in prose


def test_cheaper_sla_preserving_cells_are_listed(tables, prose):
    """Cells where a manager violating no more often than Ursa holds fewer CPUs."""
    violations, cpus = tables
    cells = {}
    for cell, row in cpus.items():
        rates = violations[cell]
        cheaper = sorted(
            (m for m in NAMES if rates[m] <= rates["ursa"] and row[m] < row["ursa"]),
            key=lambda m: row[m],
        )
        if cheaper:
            figures = " and ".join(f"{NAMES[m]} {row[m]:.1f}" for m in cheaper)
            cells[cell] = f"{cell[0]}/{cell[1]} ({figures} vs {row['ursa']:.1f})"
    assert f"In {len(cells)} cells another system" in prose
    for quoted in cells.values():
        assert quoted in prose
    assert all(violations[cell]["ursa"] == 0.0 for cell in cells)
    assert "all at 0 %" in prose
