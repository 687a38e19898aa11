"""Statistical utilities: Welch's t-test, empirical distributions.

* :mod:`repro.stats.ttest` -- Welch's t-test with its own Student-t
  tails.
* :mod:`repro.stats.distributions` -- empirical distributions and
  percentiles.
* :mod:`repro.stats.histogram` -- mergeable fixed-bucket histograms.

Import from those modules: the package itself re-exports nothing.
"""
