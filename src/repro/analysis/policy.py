"""Per-package lint policy.

Packages on the *simulated* path -- anything whose code runs inside (or
feeds variates into) an :class:`~repro.sim.engine.Environment` -- get the
strict determinism profile: every rule enabled.  ``repro.experiments`` is
the control plane of the reproduction itself: its harnesses legitimately
measure wall-clock time (Table VI control-plane latency, benchmark wall
seconds), so the wall-clock rule SIM001 is allowlisted there.  The same
applies to ``benchmarks/perf/``: its probes time the *kernel itself*
(events/sec, parallel speedup), so wall-clock reads are the entire point
-- see docs/performance.md.

``tests/`` gets its own profile: unit tests legitimately poke the
internals the strict rules protect -- they assert exact clock equality
(SIM006 is the property under test), build minimal acquire-only
processes to probe the resource primitives (SIM005), and record ad-hoc
metric/alert names outside the registries (TEL001/TEL002) -- so those
rules are allowlisted there and everything else stays on.  The lint fixtures under
``tests/analysis/fixtures/`` are *deliberate* violations and are
excluded from linting entirely.

Every profile except ``lint-fixtures`` also enables the whole-program
PAR rules (:mod:`repro.analysis.program`); they run once over the
project but findings are filtered per-file through this policy, which
is how fixture trees stay quiet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.core import registry

__all__ = [
    "EXPERIMENTS_ALLOWLIST",
    "INTERNAL_ALLOWLIST",
    "PERF_BENCH_ALLOWLIST",
    "Profile",
    "SIM_PATH_PACKAGES",
    "TESTS_ALLOWLIST",
    "profile_for_path",
]

#: Packages whose code executes on simulated time (or seeds it).
SIM_PATH_PACKAGES = frozenset(
    {
        "sim",
        "cluster",
        "net",
        "services",
        "apps",
        "workload",
        "core",
        "baselines",
        # Not named in the paper mapping but consumed from inside the
        # simulation (metrics recording, variate generation, solving):
        "telemetry",
        "stats",
        "solver",
    }
)

#: Rules disabled for the experiment harnesses (wall-clock probes are the
#: point of Table VI; runner wall-second reporting is diagnostics only).
EXPERIMENTS_ALLOWLIST = frozenset({"SIM001"})

#: Rules disabled for the performance benchmarks under
#: ``benchmarks/perf/`` -- the kernel microbenchmark (BENCH_engine.json)
#: and the end-to-end harness (BENCH_runner.json) measure real execution
#: speed, so wall-clock timing is their purpose, not an accident.
PERF_BENCH_ALLOWLIST = frozenset({"SIM001"})

#: Rules disabled *inside* the ``repro`` package itself: the facade
#: rule API002 exists to keep external callers (tests, benchmarks,
#: examples) on ``repro.api``; internal modules -- the facade, the CLI,
#: the fleet runner, the experiment harnesses importing each other --
#: are the implementation it fronts.
INTERNAL_ALLOWLIST = frozenset({"API002"})

#: Rules disabled for ``tests/``: exact-clock assertions (SIM006) are
#: the determinism property under test, minimal acquire-only processes
#: (SIM005) probe the resource primitives themselves, and ad-hoc metric/
#: alert names (TEL001/TEL002) keep unit tests independent of the
#: registries.
TESTS_ALLOWLIST = frozenset({"SIM005", "SIM006", "TEL001", "TEL002"})


@dataclass(frozen=True)
class Profile:
    """A named set of enabled rule ids.

    ``rules`` are the per-file rules; ``program_rules`` are the
    whole-program PAR rules whose findings are filtered per-file by
    this profile.
    """

    name: str
    rules: frozenset[str]
    program_rules: frozenset[str] = field(default_factory=frozenset)


def _all_rules() -> frozenset[str]:
    return frozenset(registry())


def _all_program_rules() -> frozenset[str]:
    from repro.analysis.program import program_registry

    return frozenset(program_registry())


def sim_path_profile() -> Profile:
    return Profile(
        "sim-path", _all_rules() - INTERNAL_ALLOWLIST, _all_program_rules()
    )


def experiments_profile() -> Profile:
    return Profile(
        "experiments",
        _all_rules() - EXPERIMENTS_ALLOWLIST - INTERNAL_ALLOWLIST,
        _all_program_rules(),
    )


def repro_internal_profile() -> Profile:
    """Strict minus the facade rule, for ``repro`` packages that are
    neither sim-path nor experiments (api, fleet, analysis, ...)."""
    return Profile(
        "repro-internal", _all_rules() - INTERNAL_ALLOWLIST, _all_program_rules()
    )


def perf_bench_profile() -> Profile:
    return Profile(
        "perf-bench", _all_rules() - PERF_BENCH_ALLOWLIST, _all_program_rules()
    )


def tests_profile() -> Profile:
    return Profile("tests", _all_rules() - TESTS_ALLOWLIST, _all_program_rules())


def lint_fixtures_profile() -> Profile:
    return Profile("lint-fixtures", frozenset(), frozenset())


def strict_profile() -> Profile:
    return Profile("strict", _all_rules(), _all_program_rules())


def profile_for_path(path: str | Path) -> Profile:
    """The lint profile for ``path``, from its package under ``repro``.

    ``benchmarks/perf/`` files (kernel/runner timing probes) get the
    perf-bench profile; ``benchmarks/`` files outside ``perf/`` remain
    strict -- their timing goes through pytest-benchmark, not wall-clock
    reads of their own.  ``tests/`` gets the tests profile, except the
    deliberate violation fixtures under ``tests/analysis/fixtures/``,
    which are not linted at all.
    """
    parts = Path(path).parts
    if "tests" in parts:
        rest = parts[len(parts) - 1 - parts[::-1].index("tests"):]
        if len(rest) > 2 and rest[1] == "analysis" and rest[2] == "fixtures":
            return lint_fixtures_profile()
        return tests_profile()
    if "benchmarks" in parts:
        rest = parts[len(parts) - 1 - parts[::-1].index("benchmarks"):]
        if len(rest) > 1 and rest[1] == "perf":
            return perf_bench_profile()
    if "repro" in parts:
        rest = parts[len(parts) - 1 - parts[::-1].index("repro"):]
        package = rest[1] if len(rest) > 1 else ""
        if package == "experiments":
            return experiments_profile()
        if package in SIM_PATH_PACKAGES:
            return sim_path_profile()
        return repro_internal_profile()
    return strict_profile()
