"""ursalint -- static analysis enforcing the determinism contract.

The simulation engine's reproducibility promise (same seed, identical
run) only holds if every simulated component follows a handful of coding
rules.  This package checks them:

========  ===========================================================
SIM001    no wall-clock reads (``time.time`` etc.) on simulated paths
SIM002    no global RNG (``random.*``, ``np.random.*``); use
          :class:`repro.sim.random.RandomStreams`
SIM003    no iteration over unordered ``set`` / ``frozenset`` values
SIM004    no bare/broad ``except`` in generator processes (swallows
          the failed events thrown into them)
SIM005    every ``acquire()`` in a process releases in a ``finally``
          (or declares a checked ``transfers=`` ownership handoff)
SIM006    no ``==`` / ``!=`` against the float ``env.now``
API001    no mutable default arguments
========  ===========================================================

On top of the per-file rules, a *whole-program* pass
(:mod:`repro.analysis.program`) links every module into one import
graph and checks the cross-process hazards of the ``run_many`` pool:

========  ===========================================================
PAR001    worker-reachable *read* of a mutated module-level global
PAR002    worker-reachable *mutation* of a module-level global
PAR003    ``RunPlan`` capturing a closure or a live RNG object
========  ===========================================================

Run ``python -m repro.analysis src/`` (see :mod:`repro.analysis.cli`),
or use :func:`lint_paths` / :func:`analyze_program` programmatically.
Rules are selected per package by :mod:`repro.analysis.policy`;
intentional violations carry ``# ursalint: disable=RULE -- reason``
comments, and deliberate slot handoffs carry checked
``# ursalint: transfers=<receiver>`` annotations.  The matching
*runtime* check is :mod:`repro.experiments.sanitizer` (``REPRO_SANITIZE=1``),
which lives next to the ``run_many`` it guards so running experiments
never imports the linter.
Full rule documentation lives in ``docs/static_analysis.md``.
"""

from repro.analysis.core import (
    Finding,
    LintError,
    Rule,
    lint_file,
    lint_paths,
    lint_source,
    register,
    registry,
)
from repro.analysis.policy import Profile, profile_for_path
from repro.analysis.program import analyze_program, program_registry

__all__ = [
    "Finding",
    "LintError",
    "Profile",
    "Rule",
    "analyze_program",
    "lint_file",
    "lint_paths",
    "lint_source",
    "profile_for_path",
    "program_registry",
    "register",
    "registry",
]
