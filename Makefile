# Convenience targets for the Ursa reproduction.

.PHONY: install test test-par sanitize lint typecheck bench bench-full perf perf-check clean-cache report results results-check fleet fleet-smoke loc

install:
	pip install -e .

test:
	pytest tests/

# Unit tests across all cores (requires pytest-xdist from the dev extras).
test-par:
	pytest tests/ -n auto

# Tier-1 under the runtime worker sanitizer: every run_many worker
# snapshots repro.* module globals around plan execution and fails on
# drift (docs/static_analysis.md).
sanitize:
	REPRO_SANITIZE=1 pytest tests/

# Style (ruff) + determinism invariants (ursalint per-file rules plus the
# whole-program PAR pass, see docs/static_analysis.md).
lint:
	ruff check src tests benchmarks
	PYTHONPATH=src python -m repro.analysis src/ benchmarks/ tests/

# Static types for the provenance-critical modules (results store,
# histogram).  Requires mypy from the dev extras; CI runs this gate.
typecheck:
	mypy

# Regenerates every paper table/figure; writes rendered output to results/.
bench:
	pytest benchmarks/ --benchmark-only

# Performance benchmarks: engine events/sec -> BENCH_engine.json, and the
# end-to-end harness (benchmarks/perf/e2e/) at its pinned seeds and bench
# size -> BENCH_runner.json, its sample file (docs/performance.md).
perf:
	PYTHONPATH=src python benchmarks/perf/bench_engine.py
	python3 benchmarks/perf/e2e/bench_e2e.py --repeats 10 --out BENCH_runner.json

# Perf trend gate: snapshot the committed BENCH numbers and re-record them.
# The engine metrics fail on a >20% move (check_regression.py); the runner
# fails on any e2e workload x metric that `bench_e2e.py compare` finds worse
# than its BENCHMARK.json bound, or too noisy to tell.
perf-check:
	rm -rf .bench-baseline && mkdir -p .bench-baseline
	cp BENCH_engine.json BENCH_runner.json .bench-baseline/
	$(MAKE) perf
	python benchmarks/perf/check_regression.py --baseline-dir .bench-baseline
	python3 benchmarks/perf/e2e/bench_e2e.py compare .bench-baseline/BENCH_runner.json BENCH_runner.json

# Paper-length runs (hours).
bench-full:
	REPRO_SCALE=full pytest benchmarks/ --benchmark-only

# Drop cached exploration data and trained baselines.
clean-cache:
	rm -rf .repro_cache

# Merged run dashboard over the fig 11/12 grid: SLO alert timelines,
# error-budget burn, budget audit, text + standalone HTML under
# results/ (docs/observability.md §4).
report:
	PYTHONPATH=src python -m repro fig11-12 --report

# Fleet-scale sharded run: 8 tenant cells under one 32-node budget,
# static-equal vs greedy headroom-stealing allocators, merged fleet
# dashboard + results/fleet/ provenance sidecars (docs/fleet.md).
fleet:
	PYTHONPATH=src python -m repro fleet --save

# 4-cell shortened fleet run, the CI smoke variant.
fleet-smoke:
	PYTHONPATH=src python -m repro fleet --smoke --save

# Every registered experiment's committed output, in paper order.
results:
	PYTHONPATH=src python -m repro summary

# Verify every committed result still matches its provenance sidecar
# (digest self-checksum + rendered-text hash; docs/results_provenance.md).
results-check:
	PYTHONPATH=src python -m repro.experiments.store

loc:
	@find src tests benchmarks examples -name '*.py' | xargs wc -l | tail -1
