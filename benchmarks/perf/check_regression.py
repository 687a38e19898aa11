#!/usr/bin/env python3
"""Compare a fresh BENCH_engine.json against a recorded snapshot.

The kernel half of the perf trend gate: CI (``.github/workflows/bench.yml``)
and ``make perf-check`` snapshot the committed ``BENCH_engine.json``,
re-run ``make perf`` (which overwrites it), and then call this script to
compare fresh numbers against the snapshot.  A throughput metric that
drops by more than the threshold (default 20 %) fails the check, and so
does a fresh number outside its absolute floor or ceiling.  The runner
half is the end-to-end harness's own ``bench_e2e.py compare`` of the
re-recorded ``BENCH_runner.json`` against its snapshot.

The tolerance is deliberately loose: shared CI runners jitter by several
percent run to run; the gate exists to catch step-change regressions
(an accidentally de-optimized hot path), not single-digit noise.

Usage::

    python benchmarks/perf/check_regression.py --baseline-dir /tmp/bench-baseline
    python benchmarks/perf/check_regression.py --threshold 0.3 ...
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: (file, JSON path, direction) for every gated metric.  Direction
#: ``higher`` = throughput (regression is a drop), ``lower`` = duration
#: (regression is growth).
METRICS = [
    ("BENCH_engine.json", ("current", "timeout_churn", "events_per_sec"), "higher"),
    ("BENCH_engine.json", ("current", "event_pingpong", "events_per_sec"), "higher"),
    (
        "BENCH_engine.json",
        ("current", "resource_contention", "events_per_sec"),
        "higher",
    ),
    ("BENCH_engine.json", ("current", "store_handoff", "events_per_sec"), "higher"),
    ("BENCH_engine.json", ("current", "composite", "events_per_sec"), "higher"),
]

#: Absolute floors checked against the *fresh* numbers only (no
#: snapshot needed): (file, metric path, floor).
FLOORS = [
    # The Timeout freelist must keep absorbing nearly every timeout on
    # the churn workload; a broken recycle guard shows up here first.
    (
        "BENCH_engine.json",
        ("allocations", "timeout_churn", "timeout_reuse_fraction"),
        0.95,
    ),
]

#: Absolute ceilings, same shape as FLOORS but lower-is-better: checked
#: against the fresh numbers, failing when the metric *exceeds* the
#: bound.  These gate allocator pressure in the event core
#: (docs/performance.md): fresh-Timeout churn per event (pre-freelist
#: value was ~1.0 on timeout_churn), the estimated churn bytes it
#: implies, the tracemalloc live peak per event (catches leaked queue
#: entries / an unbounded pool), and GC collections per run.
CEILINGS = [
    (
        "BENCH_engine.json",
        ("allocations", "timeout_churn", "timeout_allocs_per_event"),
        0.01,
    ),
    (
        "BENCH_engine.json",
        ("allocations", "timeout_churn", "timeout_alloc_bytes_per_event"),
        2.0,
    ),
    (
        "BENCH_engine.json",
        ("allocations", "timeout_churn", "bytes_per_event"),
        2.0,
    ),
    (
        "BENCH_engine.json",
        ("allocations", "timeout_churn", "gc_collections"),
        8,
    ),
]


def _lookup(payload: dict, path: tuple[str, ...]) -> float | None:
    node = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def check(
    baseline_dir: Path,
    current_dir: Path,
    threshold: float,
) -> tuple[list[str], list[str], list[str]]:
    """Returns (report lines, failure lines, skipped-gate lines).

    Skipped gates (a missing file or metric) are reported separately so
    a run that could not check a gate cannot be mistaken for one where
    it passed -- ``main`` prints them in a dedicated summary block.
    """
    lines: list[str] = []
    failures: list[str] = []
    skipped: list[str] = []

    def skip(line: str) -> None:
        lines.append(line)
        skipped.append(line)

    cache: dict[Path, dict | None] = {}
    for filename, path, direction in METRICS:
        base_payload = cache.setdefault(
            baseline_dir / filename, _load(baseline_dir / filename)
        )
        cur_payload = cache.setdefault(
            current_dir / filename, _load(current_dir / filename)
        )
        name = f"{filename}:{'.'.join(path)}"
        if base_payload is None or cur_payload is None:
            skip(f"SKIP  {name}  (missing file)")
            continue
        base = _lookup(base_payload, path)
        cur = _lookup(cur_payload, path)
        if base is None or cur is None or base <= 0:
            skip(f"SKIP  {name}  (missing metric)")
            continue
        change = cur / base - 1.0
        regressed = (
            change < -threshold if direction == "higher" else change > threshold
        )
        status = "FAIL" if regressed else "ok"
        lines.append(
            f"{status:4s}  {name}  baseline={base:.1f}  current={cur:.1f}  "
            f"({change:+.1%}, {direction} is better)"
        )
        if regressed:
            failures.append(lines[-1])
    for bounds, kind in ((FLOORS, "floor"), (CEILINGS, "ceiling")):
        for filename, path, bound in bounds:
            cur_payload = cache.setdefault(
                current_dir / filename, _load(current_dir / filename)
            )
            name = f"{filename}:{'.'.join(path)}"
            if cur_payload is None:
                skip(f"SKIP  {name} {kind} {bound}  (missing file)")
                continue
            cur = _lookup(cur_payload, path)
            if cur is None:
                skip(f"SKIP  {name} {kind} {bound}  (missing metric)")
                continue
            failed = cur < bound if kind == "floor" else cur > bound
            status = "FAIL" if failed else "ok"
            lines.append(f"{status:4s}  {name}  current={cur:.3f}  {kind}={bound}")
            if failed:
                failures.append(lines[-1])
    return lines, failures, skipped


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        required=True,
        help="directory holding the snapshot BENCH_engine.json",
    )
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory holding the fresh BENCH_engine.json (default: repo root)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed fractional regression before failing (default 0.20)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.threshold < 1:
        parser.error(f"--threshold must be in (0, 1), got {args.threshold}")
    lines, failures, skipped = check(
        args.baseline_dir, args.current_dir, args.threshold
    )
    print("\n".join(lines))
    if skipped:
        # Unchecked gates are not passes; say so explicitly.
        print(f"\n{len(skipped)} gate(s) skipped, NOT checked:")
        for line in skipped:
            print(f"  {line.removeprefix('SKIP').strip()}")
    if failures:
        print(
            f"\n{len(failures)} metric(s) regressed more than "
            f"{args.threshold:.0%} vs the recorded baseline",
            file=sys.stderr,
        )
        return 1
    checked = len(lines) - len(skipped)
    print(
        f"\nall {checked} checked metric(s) within {args.threshold:.0%} of "
        "the recorded baseline / inside their absolute bounds"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
