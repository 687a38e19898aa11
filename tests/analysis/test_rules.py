"""Every rule: at least one flagged and one clean fixture."""

from pathlib import Path

import pytest

from repro.analysis import lint_file, registry

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (fixture that must trip it, fixture that must not).
RULE_FIXTURES = {
    "SIM001": ("sim001_flagged.py", "sim001_clean.py"),
    "SIM002": ("sim002_flagged.py", "sim002_clean.py"),
    "SIM003": ("sim003_flagged.py", "sim003_clean.py"),
    "SIM004": ("sim004_flagged.py", "sim004_clean.py"),
    "SIM005": ("sim005_flagged.py", "sim005_clean.py"),
    "SIM006": ("sim006_flagged.py", "sim006_clean.py"),
    "API001": ("api001_flagged.py", "api001_clean.py"),
    "API002": ("api002_flagged.py", "api002_clean.py"),
    "TEL001": ("tel001_flagged.py", "tel001_clean.py"),
    "TEL002": ("tel002_flagged.py", "tel002_clean.py"),
}


def test_every_registered_rule_has_fixtures():
    assert set(RULE_FIXTURES) == set(registry())


def test_facade_entrypoints_match_api_surface():
    """API002's hardcoded entrypoint set stays in sync with repro.api."""
    from repro import api
    from repro.analysis.rules.api import FACADE_ENTRYPOINTS

    assert FACADE_ENTRYPOINTS <= set(api.__all__)
    # Every run_*/simulate* entry point the facade exports is enforced.
    enforced = {
        name
        for name in api.__all__
        if name.startswith(("run_", "simulate"))
    }
    assert FACADE_ENTRYPOINTS == enforced


def test_facade_rule_policy_scope():
    """API002 binds outside repro (tests/benchmarks/examples), not inside."""
    from repro.analysis.policy import profile_for_path

    assert "API002" not in profile_for_path("src/repro/fleet/runner.py").rules
    assert "API002" not in profile_for_path("src/repro/api.py").rules
    assert "API002" not in profile_for_path(
        "src/repro/experiments/cli.py"
    ).rules
    assert "API002" not in profile_for_path("src/repro/sim/engine.py").rules
    assert "API002" in profile_for_path("tests/experiments/test_x.py").rules
    assert "API002" in profile_for_path("benchmarks/test_fig02.py").rules
    assert "API002" in profile_for_path("benchmarks/perf/bench_engine.py").rules
    assert "API002" in profile_for_path("examples/cost_efficiency.py").rules


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_flagged_fixture_trips_rule(rule_id):
    flagged, _ = RULE_FIXTURES[rule_id]
    findings = lint_file(FIXTURES / flagged, rule_ids=[rule_id])
    assert findings, f"{flagged} should trip {rule_id}"
    assert all(f.rule == rule_id for f in findings)
    assert all(f.line > 0 and f.message for f in findings)


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_clean_fixture_passes_rule(rule_id):
    _, clean = RULE_FIXTURES[rule_id]
    findings = lint_file(FIXTURES / clean, rule_ids=[rule_id])
    assert findings == [], f"{clean} should be clean for {rule_id}: {findings}"


def test_flagged_fixture_counts():
    """Pin the exact number of violations each flagged fixture contains."""
    expected = {
        "SIM001": 3,  # time.time, time.perf_counter, datetime.now
        "SIM002": 3,  # np.random.seed, random.random, np.random.uniform
        "SIM003": 3,  # set expr loop, set-returning call loop, comprehension
        "SIM004": 2,  # except Exception, bare except
        "SIM005": 1,  # acquire without finally-release
        "SIM006": 2,  # == and != against env.now
        "API001": 3,  # two arg defaults + dataclass field
        "API002": 4,  # run_cell, run_performance_grid, run_deployment, run_fleet
        "TEL001": 4,  # const typo, literal typo, kind mismatch, bad label
        "TEL002": 3,  # const typo, literal typo, internal emit typo
    }
    for rule_id, count in expected.items():
        flagged, _ = RULE_FIXTURES[rule_id]
        findings = lint_file(FIXTURES / flagged, rule_ids=[rule_id])
        assert len(findings) == count, (rule_id, findings)
