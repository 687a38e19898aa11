"""Start-up loads only what a run can reach.

Start-up is part of every run's wall time.  scipy costs a quarter of a
second to import and the ``repro.analysis`` linter over 10 ms more, and a
run needs neither: the t-test carries its own incomplete beta, and the
worker sanitizer lives in ``repro.experiments``.  The process pool's
``multiprocessing`` and ``concurrent.futures`` cost about 2 MB and
20-40 ms, and only a pooled fan-out needs them.  ``import repro.api``
loads the Fig. 11/12 cell path behind ``simulate`` and resolves every
other entry point on first access, and the CLI prints its help without
the simulator.

The other side of that boundary: every module a run can reach is
imported before the run starts, so no run pays for an import inside its
timed region (or in each pool worker).  A fresh interpreter keeps each
check honest, since this test session has loaded everything already.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

UNNEEDED = (
    "def unneeded(prefixes): "
    "return sorted(m for m in sys.modules "
    "if any(m == p or m.startswith(p + '.') for p in prefixes))"
)
POOL = "('multiprocessing', 'concurrent')"

#: What ``simulate`` cannot reach: the other experiments, the fleet, and
#: the layers that render or store results.
NOT_ON_THE_CELL_PATH = tuple(
    [f"repro.experiments.{name}" for name in (
        "ablations",
        "fig02_backpressure",
        "fig04_thresholds",
        "fig09_10_model_accuracy",
        "fig13_diurnal",
        "fig14_service_change",
        "table05_exploration",
        "table06_control_plane",
        "report",
        "store",
    )]
    + ["repro.fleet", "repro.telemetry.audit", "argparse"]
)


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _probe(code: str) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\n{UNNEEDED}\n{code}"],
        env=_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()


def test_import_api_loads_neither_scipy_nor_the_linter():
    code = "import repro.api\nprint(*unneeded(('scipy', 'repro.analysis')))"
    assert _probe(code) == []


def test_import_api_loads_no_process_pool():
    assert _probe(f"import repro.api\nprint(*unneeded({POOL}))") == []


def test_import_api_loads_only_the_cell_path():
    code = (
        "import repro.api\n"
        "from repro.api import RunOptions, simulate\n"
        f"print(*unneeded({NOT_ON_THE_CELL_PATH!r}))"
    )
    assert _probe(code) == []


def test_cli_help_loads_no_simulator():
    code = "from repro.experiments import cli\nprint(*unneeded(('numpy', 'repro.sim')))"
    assert _probe(code) == []
    out = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        env=_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert "usage: python -m repro" in out.stdout


def test_every_api_name_resolves():
    code = (
        "import repro, repro.api\n"
        "for name in repro.api.__all__:\n"
        "    value = getattr(repro.api, name)\n"
        "    if getattr(repro, name) is not value or name not in dir(repro.api):\n"
        "        print(name)\n"
    )
    assert _probe(code) == []


def test_sequential_run_many_loads_no_process_pool():
    code = (
        "from repro.experiments.parallel import RunPlan, run_many\n"
        "plans = [RunPlan(dict, {'a': 1}), RunPlan(dict, {'b': 2})]\n"
        "assert run_many(plans, jobs=1) == [{'a': 1}, {'b': 2}]\n"
        f"print(*unneeded({POOL}))"
    )
    assert _probe(code) == []


def test_runs_import_no_repro_module():
    # The bench workloads' set-up imports, then one autoscaled cell, one
    # Ursa-managed cell and the fleet's dashboard rendering: none of the
    # three calls may import a repro module.
    code = (
        "import repro.api\n"
        "from repro.experiments.parallel import shutdown_pool\n"
        "from repro.api import RunOptions, run_cell, simulate\n"
        "from repro.experiments import artifacts, report\n"
        "artifacts.exploration_result('video-pipeline')\n"
        "options = RunOptions(seed=3, duration_s=120.0, measure_from_s=30.0)\n"
        "results = {}\n"
        "calls = {\n"
        "    'auto-b': lambda: simulate('video-pipeline', 'constant', 'auto-b', options),\n"
        "    'ursa': lambda: run_cell('video-pipeline', 'dynamic', 'ursa', options),\n"
        "    'dashboard': lambda: report.render_dashboard_text(\n"
        "        report.build_dashboard(dict(results))\n"
        "    ),\n"
        "}\n"
        "for name, call in calls.items():\n"
        "    before = set(sys.modules)\n"
        "    results[name] = call()\n"
        "    new = set(sys.modules) - before\n"
        "    print(name, *sorted(m for m in new if m.split('.')[0] == 'repro'))\n"
        "assert results['auto-b'].completed_requests > 0\n"
        "assert results['ursa'].completed_requests > 0\n"
    )
    assert _probe(code) == ["auto-b", "ursa", "dashboard"]
