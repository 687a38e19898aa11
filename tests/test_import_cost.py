"""``import repro.api`` loads only what a run needs.

Start-up is part of every run's wall time.  scipy costs a quarter of a
second to import and the ``repro.analysis`` linter over 10 ms more, and a
run needs neither: the t-test carries its own incomplete beta, and the
worker sanitizer lives in ``repro.experiments``.  The process pool's
``multiprocessing`` and ``concurrent.futures`` cost about 2 MB and
20-40 ms, and only a pooled fan-out needs them.  A fresh interpreter
keeps each check honest, since this test session has loaded them all
already.
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


def _probe(code: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\n{UNNEEDED}\n{code}"],
        env=env,
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


def test_sequential_run_many_loads_no_process_pool():
    code = (
        "from repro.experiments.parallel import RunPlan, run_many\n"
        "plans = [RunPlan(dict, {'a': 1}), RunPlan(dict, {'b': 2})]\n"
        "assert run_many(plans, jobs=1) == [{'a': 1}, {'b': 2}]\n"
        f"print(*unneeded({POOL}))"
    )
    assert _probe(code) == []
