"""``import repro.api`` loads only what a run needs.

Start-up is part of every run's wall time.  scipy costs a quarter of a
second to import and the ``repro.analysis`` linter over 10 ms more, and a
run needs neither: the t-test carries its own incomplete beta, and the
worker sanitizer lives in ``repro.experiments``.  A fresh interpreter
keeps the check honest, since this test session has loaded both already.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = (
    "import repro.api, sys; "
    "print('\\n'.join(sorted(m for m in sys.modules "
    "if m.split('.')[0] == 'scipy' or m == 'repro.analysis' "
    "or m.startswith('repro.analysis.'))))"
)


def test_import_api_loads_neither_scipy_nor_the_linter():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == []
