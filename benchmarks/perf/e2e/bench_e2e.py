#!/usr/bin/env python3
"""End-to-end benchmark of the pipelines people run.

Times four user-path workloads (see ``e2e_workloads.py`` and README.md),
each invocation in a fresh subprocess, one process at a time, with at most
two pool workers.  Several workloads are interleaved round-robin so drift
on a shared machine lands on all of them evenly.  Outputs are checked
against pins (the committed ``results/`` sidecars, or the bench-size
``e2e_workloads.BENCH_PINS``), and all invocations of a workload in a run
must agree.  A run at another ``--seed`` adds one untimed invocation per
workload at the pinned seed, so its outputs are checked against the pins
too.
Times are reported at a reference host speed measured alongside the work
(``e2e_trace.SpeedProbe``); the raw readings are kept as layer metrics.

Warm workloads read artifacts from a private copy of ``src/`` under
``.bench_e2e/<source hash>/`` at the repository root, built once per
source tree by an untimed prepare step; the cold workload gets an empty
artifact cache for every invocation.  Neither ``src/``, ``results/`` nor
the repository's own ``.repro_cache/`` is written.

Usage (from the repository root)::

    python3 benchmarks/perf/e2e/bench_e2e.py [--workload NAME ...]
        [--seed N] [--seconds S] [--repeats N] [--trace 0|1]
        [--smoke | --full] [--out FILE]

``--smoke`` is the default bench size with the traced invocation: one
invocation of each kind per workload, every metric name.
    python3 benchmarks/perf/e2e/bench_e2e.py compare BASE.json CHANGE.json

Without ``--seed`` each workload runs at the seed its sidecar was pinned
with.  ``--trace 1`` adds one traced invocation per workload and reports
the per-layer metrics instead of the end-to-end ones.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

# Wall-clock timing is the point of this benchmark (see the benchmarks/
# perf lint profile in repro.analysis.policy).
import time
from pathlib import Path

from e2e_trace import SpeedProbe
from e2e_workloads import PINNED_SEEDS, PREPARE_APPS, WORKLOADS, pinned_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[2]
CHILD = HERE / "e2e_workloads.py"

#: Worker processes for the pooled workloads (the reference host has 2 CPUs).
JOBS = 2
#: Seconds one invocation may take before it counts as failed.
INVOCATION_TIMEOUT_S = 600.0
#: Seconds the one-time artifact build may take.
PREPARE_TIMEOUT_S = 850.0


class InvocationError(Exception):
    """A child process failed, timed out, or produced wrong outputs."""


# -- statistics ----------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(p25, median, p75)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """Classify ``change`` against ``base`` for one metric.

    Returns ``(verdict, win fraction of change over alternated pairs)``.
    ``unresolved`` when either side's quartile spread exceeds ``bound``
    (unless every change run beats every base run); ``worse`` when the
    change's median is worse by more than ``bound``; ``better`` when the
    change wins at least nine tenths of the pairs and the medians differ
    by more than the base's own quartile spread; otherwise ``same``.
    """
    sign = 1.0 if better == "lower" else -1.0

    def beats(x: float, y: float) -> bool:
        return sign * (y - x) > 0

    pairs = list(zip(base, change))
    wins = sum(beats(c, b) for b, c in pairs) / len(pairs)
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    if max((b3 - b1) / bm, (c3 - c1) / cm) > bound:
        if all(beats(c, b) for b in base for c in change):
            return "better", wins
        return "unresolved", wins
    if sign * (cm - bm) > bound * bm:
        return "worse", wins
    if wins >= 0.9 and abs(cm - bm) > b3 - b1:
        return "better", wins
    return "same", wins


# -- hermetic source copies ----------------------------------------------------
def source_hash(src: Path) -> str:
    """Digest of every file under ``src`` (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            digest.update(f"{path.relative_to(src).as_posix()}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()[:16]


def child_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    env["REPRO_SCALE"] = "quick"
    return env


def run_children(commands: list[tuple[list[str], dict]], timeout: float) -> list[str]:
    """Run commands concurrently in their own sessions; return their stdout.

    Each child leads a process group, so anything it leaves behind (pool
    workers) is killed with it.  All of them must end within ``timeout``
    seconds.  Raises :class:`InvocationError` on a non-zero exit or a
    timeout.
    """
    deadline = time.monotonic() + timeout
    procs = [
        subprocess.Popen(
            args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        for args, env in commands
    ]
    outputs, errors = [], []
    try:
        for proc in procs:
            try:
                out, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                errors.append(f"timed out after {timeout:.0f} s")
                continue
            if proc.returncode != 0:
                errors.append(f"exit code {proc.returncode}\n{err[-3000:]}")
            outputs.append(out)
    finally:
        for proc in procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if errors:
        raise InvocationError("; ".join(errors))
    return outputs


class Workspace:
    """Private source copies and artifact caches for one source tree."""

    def __init__(self, root: Path) -> None:
        self.src = root / "src"
        self.dir = root / ".bench_e2e" / source_hash(self.src)
        self.warm = self.dir / "warm" / "src"
        self.cold = self.dir / "cold" / "src"

    def prepare(self) -> float:
        """Build the warm artifacts once per source tree; return the build's seconds."""
        self.dir.mkdir(parents=True, exist_ok=True)
        stamp = self.dir / "prepared.json"
        with (self.dir / "prepare.lock").open("a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            if not stamp.exists():
                self._copy(self.src, self.warm.parent)
                start = time.monotonic()
                run_children(
                    [
                        ([sys.executable, str(CHILD), "prepare", *apps], child_env(self.warm))
                        for apps in PREPARE_APPS
                    ],
                    PREPARE_TIMEOUT_S,
                )
                prepare_s = time.monotonic() - start
                # The cold copy takes the warm one's compiled bytecode, so
                # its set-up time is not inflated by compilation.
                self._copy(self.warm, self.cold.parent)
                stamp.write_text(json.dumps({"prepare_s": prepare_s}) + "\n")
        return json.loads(stamp.read_text())["prepare_s"]

    @staticmethod
    def _copy(src: Path, dest: Path) -> None:
        shutil.rmtree(dest, ignore_errors=True)
        tmp = dest.with_name(f"{dest.name}.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(src, tmp / "src")
        os.replace(tmp, dest)

    def src_for(self, name: str) -> Path:
        """The source copy ``name`` runs from; the cold one's cache is emptied first."""
        if name != "table05-cold":
            return self.warm
        shutil.rmtree(self.cold.parent / ".repro_cache", ignore_errors=True)
        return self.cold


# -- measurement ------------------------------------------------------------------
class WorkloadRun:
    """Every invocation of one workload in this benchmark run."""

    def __init__(self, name: str, pinned: dict, seed: int | None) -> None:
        self.name = name
        self.seed = seed
        #: Outputs at the pinned seed.
        self.pinned = pinned
        #: Whether ``seed`` moves this workload's inputs off the pinned ones.
        self.seeded = seed is not None and name in PINNED_SEEDS
        self.reference: dict | None = None
        self.timed: list[dict] = []
        self.traced: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.elapsed_s = 0.0

    def wants_more(self, seconds: float, repeats: int) -> bool:
        """Another timed invocation: up to ``repeats``, then while one
        more of average length still fits in ``seconds``."""
        if self.attempted < repeats:
            return True
        return self.elapsed_s * (self.attempted + 1) / self.attempted <= seconds

    def check(self, outputs: dict, pin: bool) -> None:
        """Check one invocation's outputs; ``pin`` marks a seeded run's
        extra invocation at the pinned seed, which is checked only
        against the pins."""
        if pin or not self.seeded:
            got = {key: outputs.get(key) for key in self.pinned}
            if got != self.pinned:
                raise InvocationError(f"outputs {got} differ from the pinned {self.pinned}")
        if pin:
            return
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            raise InvocationError(f"outputs {outputs} differ from the first run's {self.reference}")


def invoke(ws: Workspace, run: WorkloadRun, size: str, kind: str) -> dict | None:
    """One child invocation, ``timed``, ``traced`` or ``pin`` (untimed, at
    the pinned seed); returns its record, or ``None`` if it failed."""
    trace = kind == "traced"
    spec = {
        "workload": run.name,
        "size": size,
        "seed": None if kind == "pin" else run.seed,
        "trace": trace,
        # Fleets are traced in-process so the sampler sees the cells.
        "jobs": 1 if trace else JOBS,
    }
    src = ws.src_for(run.name)
    run.attempted += 1
    spawned = time.monotonic()
    try:
        (out,) = run_children(
            [([sys.executable, str(CHILD), json.dumps(spec)], child_env(src))],
            INVOCATION_TIMEOUT_S,
        )
        record = json.loads(out.strip().splitlines()[-1])
        run.check(record["outputs"], pin=kind == "pin")
    except (InvocationError, ValueError, IndexError, KeyError) as exc:
        run.failed += 1
        print(f"[{run.name}] {kind} invocation failed: {exc}", file=sys.stderr)
        return None
    finally:
        if kind == "timed":
            run.elapsed_s += time.monotonic() - spawned
    record["raw_setup_s"] = record["start"] - spawned
    record["setup_s"] = SpeedProbe.normalized(record["raw_setup_s"], record["setup_loop_s"])
    return record


def measure(
    ws: Workspace, names: list[str], size: str, seed: int | None,
    seconds: float, repeats: int, trace: bool,
) -> list[WorkloadRun]:
    runs = [WorkloadRun(name, pinned_outputs(name, size, ROOT), seed) for name in names]
    while True:
        pending = [run for run in runs if run.wants_more(seconds, repeats)]
        if not pending:
            break
        for run in pending:
            record = invoke(ws, run, size, "timed")
            if record is not None:
                run.timed.append(record)
    for run in runs:
        if run.seeded:
            invoke(ws, run, size, "pin")
        if trace:
            run.traced = invoke(ws, run, size, "traced")
    return runs


def end_to_end(run: WorkloadRun) -> dict[str, list[float]]:
    """Per-invocation samples: the end-to-end metrics and their raw inputs.

    ``success_rate`` (one minus the error rate) is one sample per run: the
    share of its invocations, of every kind, that neither raised nor
    failed an output check.
    """
    samples = {
        metric: [record[metric] for record in run.timed]
        for metric in ("wall_s", "setup_s", "peak_rss_mb", "raw_wall_s", "raw_setup_s", "wall_loop_s")
    }
    samples["success_rate"] = [(run.attempted - run.failed) / run.attempted]
    return samples


def per_layer(run: WorkloadRun, prepare_s: float) -> dict[str, float]:
    """Layer metrics: the traced invocation's sampler and wrapper numbers,
    plus set-up phases and pool use taken from the timed invocations."""

    def median(values) -> float:
        return statistics.median(values) if values else 0.0

    timed = run.timed
    wall = median([r["wall_s"] for r in timed])
    out = dict(run.traced["layers"]) if run.traced is not None else {}
    for phase in ("import_s", "artifact_load_s", "pool_warm_s"):
        out[f"experiments.{phase}"] = median([r["phases"][phase] for r in timed])
    out["experiments.plans"] = median([r["phases"]["plans"] for r in timed])
    out["experiments.pool_busy_fraction"] = median(
        [r["phases"]["plan_busy_s"] / (JOBS * r["raw_wall_s"]) for r in timed]
    )
    out["experiments.cpu_s"] = median([r["cpu_s"] for r in timed])
    out["fleet.report_s"] = median([r["phases"]["report_s"] for r in timed])
    out["bench.trace_overhead"] = run.traced["wall_s"] / wall if run.traced and wall else 0.0
    out["bench.prepare_s"] = prepare_s
    out["bench.raw_wall_s"] = median([r["raw_wall_s"] for r in timed])
    out["bench.raw_setup_s"] = median([r["raw_setup_s"] for r in timed])
    out["bench.host_slowdown"] = median([r["wall_loop_s"] / SpeedProbe.REFERENCE_S for r in timed])
    return out


# -- commands --------------------------------------------------------------------
def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cmd_run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "results").is_dir():
        print(f"error: {ROOT} has no src/repro or results/ to benchmark", file=sys.stderr)
        return 2
    bench = load_benchmark()
    size = "full" if args.full else "bench"
    names = args.workloads or list(WORKLOADS)
    ws = Workspace(ROOT)
    try:
        prepare_s = ws.prepare()
    except InvocationError as exc:
        print(f"error: the artifact build failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    runs = measure(ws, names, size, args.seed, args.seconds, args.repeats, bool(args.trace))

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics: dict[str, dict] = {}
    saved = {}
    for run in runs:
        samples = end_to_end(run)
        layers = per_layer(run, prepare_s) if args.trace else {}
        saved[run.name] = {
            "attempted": run.attempted, "failed": run.failed, "samples": samples, "layers": layers,
        }
        print(f"== {run.name} ({size}, {run.attempted} runs, {run.failed} failed)")
        if run.name == "table05-cold" and args.seed is not None:
            print("   --seed does not apply: the artifact builders fix Table V's inputs")
        for spec in bench["end_to_end"]:
            values = samples[spec["name"]]
            if values:
                q1, med, q3 = quartiles(values)
                print(
                    f"   {spec['name']:<14} median {med:10.4f}  p25 {q1:10.4f}  "
                    f"p75 {q3:10.4f}  n {len(values)}  {spec['unit']}"
                )
        for name in sorted(layers):
            print(f"   {name:<36} {layers[name]:14.6f}")
        prefix = "" if len(runs) == 1 else f"{run.name}/"
        source = layers if args.trace else {k: statistics.median(v) for k, v in samples.items() if v}
        for spec in specs:
            if spec["name"] in source:
                metrics[prefix + spec["name"]] = {"value": source[spec["name"]], "unit": spec["unit"]}

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    missing = len(specs) * len(runs) - len(metrics)
    if missing:
        print(f"error: {missing} metric values missing", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"size": size, "seed": args.seed, "workloads": saved}, indent=1) + "\n"
        )
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def cmd_compare(base_path: str, change_path: str) -> int:
    bench = load_benchmark()
    base = json.loads(Path(base_path).read_text())["workloads"]
    change = json.loads(Path(change_path).read_text())["workloads"]
    flagged = 0
    print(f"{'workload':<18} {'metric':<12} {'base p25/med/p75':>30} {'change p25/med/p75':>30}  win  verdict")
    for name in sorted(set(base) & set(change)):
        for spec in bench["end_to_end"]:
            a = base[name]["samples"][spec["name"]]
            b = change[name]["samples"][spec["name"]]
            if not a or not b:
                print(f"{name:<18} {spec['name']:<12} no samples")
                flagged += 1
                continue
            result, wins = verdict(a, b, spec["better"], spec["bound"])
            flagged += result in ("worse", "unresolved")
            qa = "/".join(f"{v:.4g}" for v in quartiles(a))
            qb = "/".join(f"{v:.4g}" for v in quartiles(b))
            print(f"{name:<18} {spec['name']:<12} {qa:>30} {qb:>30} {wins:4.2f}  {result}")
    return 1 if flagged else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: bench_e2e.py compare BASE.json CHANGE.json", file=sys.stderr)
            return 2
        return cmd_compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", action="extend", nargs="+",
        choices=list(WORKLOADS), help="workloads to run (default: all, round-robin)",
    )
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: pinned seeds)")
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep invoking a workload while another invocation fits in this many seconds",
    )
    parser.add_argument("--repeats", type=int, default=1, help="minimum timed invocations per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="add a traced invocation")
    sizes = parser.add_mutually_exclusive_group()
    sizes.add_argument(
        "--smoke", action="store_true", help="the bench size with --trace 1, to check the harness"
    )
    sizes.add_argument("--full", action="store_true", help="the CLI's own sizes, checked against results/")
    parser.add_argument("--out", help="write every sample and layer metric to this JSON file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.smoke:
        args.trace = 1
    # Exit through the ``finally`` that kills the children's process groups.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
