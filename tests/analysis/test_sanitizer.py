"""Runtime worker sanitizer: drift detection around plan execution.

The headline test forks real pool workers (``jobs=2``) and proves a
planted module-global mutation raises :class:`SanitizerError` across
the process boundary; the rest pin the snapshot/diff machinery.
"""

import pytest

from repro.experiments import sanitizer
from repro.experiments.sanitizer import SanitizerError, diff, enabled, snapshot
from repro.experiments.parallel import RunPlan, run_many, shutdown_pool

from tests.analysis import _sanitizer_target as target

TARGET = "tests.analysis._sanitizer_target"


@pytest.fixture()
def sanitize_target(monkeypatch):
    # Workers inherit the environment at fork time, so the persistent
    # pool must be cold when the flags change -- and discarded again
    # afterwards so no later test runs on flag-carrying workers.
    shutdown_pool()
    monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
    monkeypatch.setenv(sanitizer.ENV_PREFIXES, TARGET)
    baseline = dict(target.STATE)
    yield
    shutdown_pool()
    target.STATE.clear()
    target.STATE.update(baseline)


# -- enablement ------------------------------------------------------------


def test_disabled_by_default(monkeypatch):
    monkeypatch.delenv(sanitizer.ENV_FLAG, raising=False)
    assert not enabled()
    monkeypatch.setenv(sanitizer.ENV_FLAG, "0")
    assert not enabled()
    monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
    assert enabled()


def test_disabled_guard_is_passthrough(monkeypatch):
    monkeypatch.delenv(sanitizer.ENV_FLAG, raising=False)
    # Even a mutating plan runs unguarded when the flag is off.
    before = target.STATE["runs"]
    assert run_many([RunPlan(target.mutate_global, {"seed": 5})], jobs=1)
    target.STATE["runs"] = before


# -- snapshot / diff -------------------------------------------------------


def test_snapshot_digests_watched_module(sanitize_target):
    digests = snapshot()
    assert f"{TARGET}.STATE" in digests
    # Functions and dunders are skipped.
    assert f"{TARGET}.mutate_global" not in digests
    assert all(not key.endswith("__doc__") for key in digests)


def test_diff_names_mutated_created_deleted():
    before = {"m.a": "1", "m.b": "2", "m.gone": "3"}
    after = {"m.a": "1", "m.b": "9", "m.new": "4"}
    assert diff(before, after) == [
        "m.b (mutated)",
        "m.gone (deleted)",
        "m.new (created)",
    ]


def test_snapshot_detects_dict_mutation(sanitize_target):
    before = snapshot()
    target.STATE["runs"] += 1
    drifted = diff(before, snapshot())
    assert drifted == [f"{TARGET}.STATE (mutated)"]


# -- the fork-based proof --------------------------------------------------


def test_pool_worker_mutation_raises(sanitize_target):
    plans = [
        RunPlan(target.mutate_global, {"seed": s}, label=f"planted:{s}")
        for s in (1, 2)
    ]
    with pytest.raises(SanitizerError, match="STATE"):
        run_many(plans, jobs=2)


def test_sequential_mutation_raises_too(sanitize_target):
    with pytest.raises(SanitizerError, match="planted"):
        run_many([RunPlan(target.mutate_global, {"seed": 1}, label="planted")],
                 jobs=1)


def test_well_behaved_plans_pass(sanitize_target):
    plans = [
        RunPlan(target.well_behaved, {"seed": s}, label=f"ok:{s}")
        for s in (1, 2, 3)
    ]
    assert run_many(plans, jobs=2) == [2, 4, 6]
    assert run_many(plans, jobs=1) == [2, 4, 6]


def test_guard_survives_pool_reuse(sanitize_target):
    # The pool persists across grids; the guard is per-plan, so a clean
    # first grid must not blunt detection on the second grid served by
    # the very same workers.
    ok = [RunPlan(target.well_behaved, {"seed": s}) for s in (1, 2)]
    assert run_many(ok, jobs=2) == [2, 4]
    plans = [
        RunPlan(target.mutate_global, {"seed": s}, label=f"planted:{s}")
        for s in (1, 2)
    ]
    with pytest.raises(SanitizerError, match="STATE"):
        run_many(plans, jobs=2)
