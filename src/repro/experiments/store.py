"""Deterministic results store: sidecar provenance for ``results/``.

Every regenerated ``results/<name>.txt`` gains a ``results/<name>.meta.json``
sidecar recording *how* the text was produced: the experiment's identity
(scale profile, seed partition, package version), the event-trace digests
of the runs behind it, and per-class metric summaries.  Two guarantees
follow:

* **Save-time mismatch detection.**  :func:`save_result` compares the new
  run against the recorded sidecar: if the identity (experiment, scale,
  seeds, version) matches but the digests -- or, for deterministic
  renders, the text itself -- differ, the previously recorded run no
  longer reproduces and the save raises :class:`ResultsMismatchError`
  instead of silently overwriting.  Set ``REPRO_RESULTS_UPDATE=1`` to
  accept the new run deliberately.
* **Offline integrity checking.**  ``python -m repro.experiments.store``
  (``make results-check``) re-validates every committed sidecar without
  re-running anything: the sidecar's self-checksum (``meta_digest``)
  catches corrupted or hand-edited provenance, and ``result_sha256``
  catches a ``.txt`` that drifted from the recorded run.

Sidecars are canonical JSON (sorted keys, fixed separators) with no
timestamps, so regenerating an experiment with the same seed produces a
byte-identical sidecar -- the file itself is the reproducibility witness.
See docs/results_provenance.md for the format.

**Scale layout.**  Outputs are qualified by the scale profile that
produced them: the CI-checked ``quick`` scale stays at the ``results/``
root (back-compat with every committed sidecar), while any other scale
gets its own subdirectory -- ``results/full/fig02_backpressure.txt`` from
a ``REPRO_SCALE=full`` run coexists with the quick output of the same
experiment instead of clobbering it.  :func:`save_result` routes by
``meta.scale``; :func:`check_results` validates whichever scale
directories are present (``results/traces/`` -- the ``--dump-traces``
output dir -- is never treated as a scale).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro._version import __version__

__all__ = [
    "ResultsMismatchError",
    "RunMeta",
    "load_sidecar",
    "merged_digest",
    "present_scales",
    "results_dir",
    "scale_dir",
    "save_result",
    "check_results",
    "sidecar_path",
    "main",
]

#: Bump when the sidecar layout changes incompatibly.
SCHEMA_VERSION = 1

#: The scale whose outputs live at the ``results/`` root.  Everything
#: committed before scales were directory-qualified was a quick run, so
#: keeping quick at the root preserves every existing sidecar path.
_ROOT_SCALE = "quick"

#: ``results/`` subdirectory holding ``--dump-traces`` output; it is a
#: sibling of the scale directories but never a scale itself.
_TRACES_DIR = "traces"

class ResultsMismatchError(RuntimeError):
    """A previously recorded run no longer reproduces.

    Raised by :func:`save_result` when the new run has the same identity
    (experiment, scale, seeds, package version) as the committed sidecar
    but a different event-trace digest or rendered text.  This is the
    loud failure the store exists for: either the change is intentional
    (re-save with ``REPRO_RESULTS_UPDATE=1``) or nondeterminism crept in.
    """


@dataclass(frozen=True)
class RunMeta:
    """Provenance of one rendered experiment output.

    Built by each experiment module's ``experiment_meta`` helper and
    persisted as the ``results/<name>.meta.json`` sidecar.
    """

    #: Experiment identifier (``fig02``, ``table05``, ...).
    experiment: str
    #: Scale profile the runs used (``quick``/``full``).
    scale: str
    #: Label -> seed for every seeded run behind the output.
    seeds: Mapping[str, int] = field(default_factory=dict)
    #: Label -> event-trace digest (runs that own their Environment).
    #: Controller-internal experiments have no engine hook and record
    #: content hashes only -- see docs/results_provenance.md.
    digests: Mapping[str, str] = field(default_factory=dict)
    #: Per-class (or per-cell) metric summaries, e.g. p99 / violations.
    summaries: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    #: Whether the rendered text is reproducible byte-for-byte.  False
    #: for outputs embedding wall-clock measurements (table06); their
    #: text hash is recorded but not enforced.
    deterministic: bool = True
    #: Free-form extras (grid shape, window sizes, ...).
    extra: Mapping[str, Any] = field(default_factory=dict)
    #: Label -> alert-stream digest (:func:`repro.telemetry.slo.alerts_digest`
    #: of the run's canonical alert JSONL) for SLO-monitored runs.  Pinned
    #: on save like event-trace digests.
    alerts: Mapping[str, str] = field(default_factory=dict)
    #: Request class -> budget-audit verdict
    #: (:meth:`repro.telemetry.audit.AuditVerdict.to_dict`).
    audits: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def payload(self) -> dict[str, Any]:
        """JSON-ready dict (deep-copied, deterministically ordered).

        ``alerts`` / ``audits`` appear only when non-empty, so sidecars
        of experiments without SLO monitoring are byte-identical to the
        ones committed before the fields existed.
        """
        payload: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "scale": self.scale,
            "package_version": __version__,
            "deterministic": self.deterministic,
            "seeds": {k: int(v) for k, v in sorted(self.seeds.items())},
            "digests": {k: str(v) for k, v in sorted(self.digests.items())},
            "summaries": {
                label: {k: v for k, v in sorted(stats.items())}
                for label, stats in sorted(self.summaries.items())
            },
            "extra": json.loads(_canonical_json(dict(self.extra))),
        }
        if self.alerts:
            payload["alerts"] = {
                k: str(v) for k, v in sorted(self.alerts.items())
            }
        if self.audits:
            payload["audits"] = json.loads(
                _canonical_json(
                    {k: dict(v) for k, v in sorted(self.audits.items())}
                )
            )
        return payload


def _canonical_json(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _meta_digest(payload: Mapping[str, Any]) -> str:
    """Self-checksum over everything except the ``meta_digest`` field."""
    body = {k: v for k, v in payload.items() if k != "meta_digest"}
    return hashlib.blake2b(
        _canonical_json(body).encode("utf-8"), digest_size=16
    ).hexdigest()


def _text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def merged_digest(digests: Mapping[str, str]) -> str:
    """One fingerprint over a set of labelled event-trace digests.

    BLAKE2b over the sorted ``label=digest`` pairs, so the value depends
    only on the set -- never on insertion or completion order.  Fleet
    runs (:mod:`repro.fleet`) pin this as the whole-fleet digest: two
    fleets match iff every cell's run digest matches.
    """
    body = "\n".join(
        f"{label}={digest}" for label, digest in sorted(digests.items())
    )
    return hashlib.blake2b(body.encode("utf-8"), digest_size=16).hexdigest()


def results_dir() -> Path:
    """``results/`` in the repo root (``REPRO_RESULTS_DIR`` overrides)."""
    override = os.environ.get("REPRO_RESULTS_DIR")
    if override:
        path = Path(override)
    else:
        path = Path(__file__).resolve().parents[3] / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def scale_dir(scale: str = _ROOT_SCALE) -> Path:
    """Directory holding outputs produced at ``scale``.

    ``quick`` (and ``""``, for legacy callers) resolves to the
    ``results/`` root; any other scale resolves to ``results/<scale>/``,
    created on demand.  Scale names must be plain path components.
    """
    base = results_dir()
    if scale in ("", _ROOT_SCALE):
        return base
    if (
        "/" in scale
        or os.sep in scale
        or scale in (".", "..", _TRACES_DIR)
    ):
        raise ValueError(f"invalid scale name: {scale!r}")
    path = base / scale
    path.mkdir(parents=True, exist_ok=True)
    return path


def _split_scaled(name: str) -> tuple[str, str]:
    """``"full/fig02"`` -> ``("full", "fig02")``; bare names are quick."""
    scale, sep, base = name.partition("/")
    if sep and base:
        return scale, base
    return _ROOT_SCALE, name


def _rel(scale: str, name: str) -> str:
    """Scale-qualified display name (quick stays bare, like its path)."""
    return name if scale in ("", _ROOT_SCALE) else f"{scale}/{name}"


def sidecar_path(name: str, scale: str = _ROOT_SCALE) -> Path:
    return scale_dir(scale) / f"{name}.meta.json"


def load_sidecar(name: str, scale: str = _ROOT_SCALE) -> dict[str, Any] | None:
    """The parsed sidecar for ``name``, or ``None`` if absent/unreadable."""
    path = sidecar_path(name, scale)
    if not path.exists():
        return None
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return loaded if isinstance(loaded, dict) else None


def _same_identity(old: Mapping[str, Any], new: Mapping[str, Any]) -> bool:
    """Same (experiment, scale, seeds, package version) configuration?"""
    return all(
        old.get(key) == new.get(key)
        for key in ("experiment", "scale", "seeds", "package_version")
    )


def _update_allowed() -> bool:
    return os.environ.get("REPRO_RESULTS_UPDATE", "") == "1"


def save_result(
    name: str,
    text: str,
    meta: RunMeta,
    artifacts: Mapping[str, str] | None = None,
) -> Path:
    """Persist a rendered result plus its provenance sidecar.

    Writes ``<name>.txt`` (with a trailing newline) and
    ``<name>.meta.json`` into the directory for ``meta.scale`` -- the
    ``results/`` root for quick runs, ``results/<scale>/`` otherwise --
    so outputs from different scale profiles never clobber each other.
    If a sidecar from a previous regeneration at the same scale exists
    with the same identity but different digests (or different text, for
    deterministic outputs), raises :class:`ResultsMismatchError` --
    unless ``REPRO_RESULTS_UPDATE=1``.

    ``artifacts`` maps extra file names (e.g. ``fig11_12_report.html``)
    to their full text content; each is written alongside the ``.txt``
    and its sha256 is recorded in the sidecar's ``artifacts`` map, so
    ``check_results`` re-validates them offline like the text itself.
    Artifact names must be plain file names (no path separators).
    """
    rendered = text if text.endswith("\n") else text + "\n"
    payload = meta.payload()
    payload["result_sha256"] = _text_sha256(rendered)
    if artifacts:
        for filename in artifacts:
            if "/" in filename or os.sep in filename or filename.startswith("."):
                raise ValueError(f"invalid artifact name: {filename!r}")
        payload["artifacts"] = {
            filename: _text_sha256(content)
            for filename, content in sorted(artifacts.items())
        }
    payload["meta_digest"] = _meta_digest(payload)

    old = load_sidecar(name, meta.scale)
    if old is not None and _same_identity(old, payload) and not _update_allowed():
        problems = []
        if old.get("digests") != payload["digests"]:
            problems.append(
                f"event-trace digests changed:\n"
                f"  recorded: {old.get('digests')}\n"
                f"  new run:  {payload['digests']}"
            )
        if "alerts" in old and old.get("alerts") != payload.get("alerts"):
            problems.append(
                f"alert-stream digests changed:\n"
                f"  recorded: {old.get('alerts')}\n"
                f"  new run:  {payload.get('alerts')}"
            )
        if meta.deterministic and old.get("deterministic", True) and (
            old.get("result_sha256") != payload["result_sha256"]
        ):
            problems.append(
                f"rendered text changed "
                f"(sha256 {old.get('result_sha256')} -> "
                f"{payload['result_sha256']})"
            )
        if problems:
            raise ResultsMismatchError(
                f"{name}: same experiment/scale/seeds/version as the "
                f"recorded run, but it no longer reproduces.\n"
                + "\n".join(problems)
                + "\nIf the change is intentional, re-run with "
                "REPRO_RESULTS_UPDATE=1 to accept the new run."
            )

    directory = scale_dir(meta.scale)
    txt_path = directory / f"{name}.txt"
    txt_path.write_text(rendered, encoding="utf-8")
    for filename, content in sorted((artifacts or {}).items()):
        (directory / filename).write_text(content, encoding="utf-8")
    side = sidecar_path(name, meta.scale)
    tmp = side.with_name(f"{side.name}.tmp{os.getpid()}")
    tmp.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    os.replace(tmp, side)
    return side


# ----------------------------------------------------------------------
# Offline checking (``python -m repro.experiments.store``)


def present_scales() -> list[str]:
    """Scales with a results directory on disk, quick (the root) first.

    Any subdirectory of ``results/`` except ``traces/`` is treated as a
    scale directory -- ``check_results`` validates whichever are present
    so a tree holding only quick outputs, or quick plus the weekly
    ``full`` run, both check cleanly without configuration.
    """
    base = results_dir()
    scales = [_ROOT_SCALE]
    for entry in sorted(base.iterdir()):
        if entry.is_dir() and entry.name != _TRACES_DIR:
            scales.append(entry.name)
    return scales


def _check_scale(scale: str, names: list[str] | None, strict: bool) -> list[str]:
    """Problems for one scale directory (see :func:`check_results`)."""
    directory = scale_dir(scale)
    scan_stale = names is None
    if names is None:
        names = sorted(p.stem for p in directory.glob("*.txt"))
    problems: list[str] = []
    for name in names:
        label = _rel(scale, name)
        txt_path = directory / f"{name}.txt"
        if not txt_path.exists():
            problems.append(f"{label}: results/{label}.txt does not exist")
            continue
        sidecar = load_sidecar(name, scale)
        if sidecar is None:
            if sidecar_path(name, scale).exists():
                problems.append(f"{label}: sidecar is not valid JSON")
            elif strict:
                problems.append(f"{label}: missing sidecar (strict mode)")
            continue
        recorded = sidecar.get("meta_digest")
        if recorded != _meta_digest(sidecar):
            problems.append(
                f"{label}: sidecar self-checksum mismatch "
                f"(recorded {recorded}, computed {_meta_digest(sidecar)}) "
                "-- provenance was corrupted or hand-edited"
            )
            continue
        recorded_scale = sidecar.get("scale")
        if isinstance(recorded_scale, str) and recorded_scale != scale:
            problems.append(
                f"{label}: sidecar records scale "
                f"{recorded_scale!r} but sits in the {scale!r} "
                "directory -- a misplaced or miscopied output"
            )
            continue
        if sidecar.get("deterministic", True):
            actual = _text_sha256(txt_path.read_text(encoding="utf-8"))
            if actual != sidecar.get("result_sha256"):
                problems.append(
                    f"{label}: results/{label}.txt does not match the "
                    f"recorded run (sha256 {actual} vs recorded "
                    f"{sidecar.get('result_sha256')}) -- regenerate or "
                    "update the sidecar"
                )
        recorded_artifacts = sidecar.get("artifacts")
        if isinstance(recorded_artifacts, dict):
            for filename, recorded_sha in sorted(recorded_artifacts.items()):
                artifact_path = directory / filename
                if not artifact_path.exists():
                    problems.append(
                        f"{label}: recorded artifact {filename} is missing"
                    )
                    continue
                actual = _text_sha256(
                    artifact_path.read_text(encoding="utf-8")
                )
                if actual != recorded_sha:
                    problems.append(
                        f"{label}: artifact {filename} does not match the "
                        f"recorded run (sha256 {actual} vs recorded "
                        f"{recorded_sha})"
                    )
    if scan_stale:
        for side in sorted(directory.glob("*.meta.json")):
            stem = side.name[: -len(".meta.json")]
            if not (directory / f"{stem}.txt").exists():
                label = _rel(scale, stem)
                problems.append(
                    f"{label}: stale sidecar with no results/{label}.txt"
                )
    return problems


def check_results(
    names: list[str] | None = None, strict: bool = False
) -> list[str]:
    """Validate committed results against their sidecars, offline.

    With no ``names``, every scale directory present is checked (quick
    at the root plus any ``results/<scale>/`` subdirectories, skipping
    ``traces/``).  Names may be scale-qualified (``full/fig02``); bare
    names refer to quick outputs at the root.

    Returns a list of human-readable problems (empty = all good):

    * sidecar fails to parse, or its ``meta_digest`` self-checksum does
      not match (corrupted / hand-edited provenance);
    * sidecar records a different scale than the directory it sits in
      (a misplaced output);
    * ``result_sha256`` does not match the committed ``.txt`` (the text
      drifted from the recorded run) -- enforced only for sidecars
      marked ``deterministic``;
    * a recorded artifact (e.g. an HTML report) is missing or does not
      match its recorded sha256;
    * a sidecar with no matching ``.txt`` (stale provenance);
    * with ``strict=True``, a ``.txt`` with no sidecar.
    """
    if names is not None:
        by_scale: dict[str, list[str]] = {}
        for raw in names:
            scale, base = _split_scaled(raw)
            by_scale.setdefault(scale, []).append(base)
        problems: list[str] = []
        for scale in sorted(by_scale):
            problems.extend(_check_scale(scale, by_scale[scale], strict))
        return problems
    problems = []
    for scale in present_scales():
        problems.extend(_check_scale(scale, None, strict))
    return problems


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.store",
        description=(
            "Validate results/*.txt against their .meta.json provenance "
            "sidecars without re-running experiments."
        ),
    )
    parser.add_argument(
        "names",
        nargs="*",
        help=(
            "result names to check, optionally scale-qualified like "
            "full/fig02 (default: every scale directory present)"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on .txt files that have no sidecar yet",
    )
    args = parser.parse_args(argv)
    problems = check_results(args.names or None, strict=args.strict)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if args.names:
        checked = list(args.names)
        scales = sorted({_split_scaled(raw)[0] for raw in args.names})
    else:
        scales = present_scales()
        checked = [
            _rel(scale, p.stem)
            for scale in scales
            for p in sorted(scale_dir(scale).glob("*.txt"))
        ]
    print(
        f"results-check: {len(checked)} result(s) across "
        f"{len(scales)} scale(s) [{', '.join(scales)}], "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
