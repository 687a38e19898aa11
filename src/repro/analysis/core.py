"""Core machinery of *ursalint*, the repo's determinism linter.

The simulation engine promises that "runs with the same seed are exactly
reproducible" (:mod:`repro.sim.engine`).  That promise rests on coding
rules -- named :class:`~repro.sim.random.RandomStreams` instead of global
RNG, no wall-clock reads on simulated paths, no iteration over unordered
sets, no broad ``except`` swallowing a failed event thrown into a process
-- which this package turns from convention into checked invariants.

This module provides the pieces shared by every rule:

* :class:`Finding` -- one diagnostic (rule id, location, message).
* :class:`Rule` -- base class; each rule is a small ``ast.NodeVisitor``.
* :func:`register` -- decorator adding a rule class to the registry.
* :class:`LintContext` -- per-file state: source, inline suppressions.
* :func:`lint_source` / :func:`lint_file` / :func:`lint_paths` -- runners.

Inline suppressions use ``# ursalint: disable=RULE[,RULE...]`` -- on the
offending line, or on a comment-only line to suppress the next line.  An
optional reason may follow after ``--``::

    start = time.perf_counter()  # ursalint: disable=SIM001 -- Table VI probe

Ownership annotations use ``# ursalint: transfers=RECEIVER[,RECEIVER...]``
with the same line-targeting.  Unlike ``disable``, a ``transfers``
annotation is *checked*: it declares that the ``acquire()`` on the
annotated line deliberately hands the held slot to another process, and
:class:`~repro.analysis.rules.processes.AcquireReleaseRule` verifies the
declared receiver matches the acquire and that a matching ``release()``
exists elsewhere in the module::

    # ursalint: transfers=replica.threads -- released by _execute
    yield replica.threads.acquire(priority=request.priority)
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "LintContext",
    "LintError",
    "Rule",
    "TransferAnnotation",
    "dotted_name",
    "function_scope_walk",
    "is_generator_function",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
    "registry",
]


class LintError(Exception):
    """Raised when a file cannot be linted (unreadable, syntax error)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic emitted by a rule."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type["Rule"]] = {}

_RULE_ID_RE = re.compile(r"^[A-Z]{3}\d{3}$")


def register(cls: type["Rule"]) -> type["Rule"]:
    """Class decorator adding ``cls`` to the global rule registry."""
    rule_id = getattr(cls, "id", "")
    if not _RULE_ID_RE.match(rule_id):
        raise ValueError(f"rule id must look like 'SIM001', got {rule_id!r}")
    if rule_id in _REGISTRY and _REGISTRY[rule_id] is not cls:
        raise ValueError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = cls
    return cls


def registry() -> dict[str, type["Rule"]]:
    """All registered rules, keyed by id (imports the bundled rules)."""
    # Importing the rules package populates the registry on first use.
    from repro.analysis import rules  # noqa: F401

    return dict(sorted(_REGISTRY.items()))


class Rule(ast.NodeVisitor):
    """Base class for lint rules.

    Subclasses set ``id`` (e.g. ``"SIM001"``), ``title`` (one line) and
    ``rationale`` (why the rule protects determinism), then implement the
    usual ``visit_*`` methods, calling :meth:`report` for violations.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""

    def __init__(self, ctx: "LintContext") -> None:
        self.ctx = ctx

    def report(self, node: ast.AST, message: str) -> None:
        self.ctx.add(self.id, node, message)

    def run(self, tree: ast.Module) -> None:
        self.visit(tree)


# ----------------------------------------------------------------------
# Inline suppressions and ownership annotations
# ----------------------------------------------------------------------
_SUPPRESS_RE = re.compile(
    r"#\s*ursalint:\s*disable=([A-Za-z0-9_,\s]+?)(?:--.*)?$"
)

_TRANSFER_RE = re.compile(
    r"#\s*ursalint:\s*transfers=([A-Za-z0-9_.,\s]+?)(?:--.*)?$"
)


@dataclass(frozen=True)
class TransferAnnotation:
    """A checked ``# ursalint: transfers=...`` ownership declaration.

    ``line`` is the code line the annotation targets (same-line for a
    trailing comment, next line for a comment-only line); ``receivers``
    are the dotted resource expressions whose held slot is deliberately
    handed to another process instead of released in a ``finally``.
    """

    line: int
    receivers: tuple[str, ...]


def _annotation_comments(
    source: str, pattern: re.Pattern[str]
) -> Iterator[tuple[int, str]]:
    """Yield ``(target_line, payload)`` for each matching comment.

    Line targeting mirrors suppressions: a trailing comment targets its
    own line, a comment-only line targets the next line.
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return
    lines = source.splitlines()
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = pattern.search(tok.string)
        if not match:
            continue
        line = tok.start[0]
        text_before = lines[line - 1][: tok.start[1]] if line <= len(lines) else ""
        target = line + 1 if not text_before.strip() else line
        yield target, match.group(1)


def _suppressed_lines(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule ids suppressed on that line."""
    suppressed: dict[int, set[str]] = {}
    for target, payload in _annotation_comments(source, _SUPPRESS_RE):
        rules = {r.strip().upper() for r in payload.split(",") if r.strip()}
        if rules:
            suppressed.setdefault(target, set()).update(rules)
    return {line: frozenset(rules) for line, rules in suppressed.items()}


def _transfer_lines(source: str) -> dict[int, TransferAnnotation]:
    """Map line number -> the transfer annotation targeting that line."""
    transfers: dict[int, TransferAnnotation] = {}
    for target, payload in _annotation_comments(source, _TRANSFER_RE):
        receivers = tuple(r.strip() for r in payload.split(",") if r.strip())
        if receivers:
            merged = transfers.get(target)
            if merged is not None:
                receivers = merged.receivers + receivers
            transfers[target] = TransferAnnotation(target, receivers)
    return transfers


class LintContext:
    """Per-file lint state shared by all rules."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.findings: list[Finding] = []
        self._suppressed = _suppressed_lines(source)
        #: line -> checked ownership annotation (see TransferAnnotation).
        self.transfers = _transfer_lines(source)
        #: annotation lines a rule has matched against an acquire().
        self.transfers_used: set[int] = set()

    def add(self, rule_id: str, node: ast.AST, message: str) -> None:
        line = int(getattr(node, "lineno", 0))
        col = int(getattr(node, "col_offset", 0))
        self.add_at(rule_id, line, col, message)

    def add_at(self, rule_id: str, line: int, col: int, message: str) -> None:
        active = self._suppressed.get(line, frozenset())
        if rule_id in active or "ALL" in active:
            return
        self.findings.append(Finding(self.path, line, col, rule_id, message))


# ----------------------------------------------------------------------
# AST helpers shared by rules
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def function_scope_walk(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested scopes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(node))


def is_generator_function(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when ``fn``'s own body yields (simulation-process shaped)."""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in function_scope_walk(fn)
    )


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def lint_source(
    source: str,
    path: str = "<string>",
    rule_ids: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint ``source`` with the given rules (default: policy for ``path``)."""
    if rule_ids is None:
        from repro.analysis.policy import profile_for_path

        rule_ids = profile_for_path(path).rules
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}: syntax error: {exc.msg} (line {exc.lineno})")
    ctx = LintContext(path, source, tree)
    all_rules = registry()
    for rule_id in sorted(set(rule_ids)):
        try:
            rule_cls = all_rules[rule_id]
        except KeyError:
            raise LintError(f"unknown rule id {rule_id!r}")
        rule_cls(ctx).run(tree)
    return sorted(ctx.findings)


def lint_file(path: str | Path, rule_ids: Iterable[str] | None = None) -> list[Finding]:
    """Lint one file, applying the per-package policy by default."""
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"{path}: cannot read: {exc}")
    return lint_source(source, str(path), rule_ids)


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            out.update(
                p
                for p in entry.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        elif entry.suffix == ".py" or entry.is_file():
            out.add(entry)
        else:
            raise LintError(f"{entry}: no such file or directory")
    return sorted(out)


def lint_paths(
    paths: Sequence[str | Path],
    rule_ids: Iterable[str] | None = None,
) -> tuple[list[Finding], int]:
    """Lint files/directories; returns ``(findings, files_checked)``."""
    files = iter_python_files(paths)
    findings: list[Finding] = []
    for file in files:
        findings.extend(lint_file(file, rule_ids))
    return sorted(findings), len(files)
