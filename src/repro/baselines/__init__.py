"""Competing approaches (§VII-B): step autoscaling, Sinan, Firm.

* :mod:`repro.baselines.autoscaler` -- threshold-based step autoscaling
  (Auto-a, Auto-b).
* :mod:`repro.baselines.sinan` -- Sinan's ML-driven manager.
* :mod:`repro.baselines.firm` -- Firm's RL-driven manager.

Import from those modules: the package itself re-exports nothing.
"""
