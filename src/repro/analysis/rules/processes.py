"""Process-body rules: failure propagation and resource leak detection.

Simulation processes are plain generator functions, so both rules key on
"does this function's own body yield" (:func:`is_generator_function`) --
helpers that never run on simulated time are exempt.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    Rule,
    dotted_name,
    function_scope_walk,
    is_generator_function,
    register,
)

__all__ = ["BroadExceptRule", "AcquireReleaseRule"]


_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _exception_names(type_node: ast.AST | None) -> list[str]:
    if type_node is None:
        return []
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    out = []
    for node in nodes:
        name = dotted_name(node)
        if name is not None:
            out.append(name.split(".")[-1])
    return out


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when the handler body contains a bare ``raise``."""
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for stmt in handler.body
        for node in function_scope_walk(stmt)
    ) or any(
        isinstance(stmt, ast.Raise) and stmt.exc is None for stmt in handler.body
    )


@register
class BroadExceptRule(Rule):
    """Flag broad ``except`` clauses inside generator processes.

    The engine throws a failed event into the process waiting on it -- a
    failed child process's exception, say -- so a ``try: ... except
    Exception: pass`` inside a process silently eats that failure: the
    waiter keeps running, and the run carries on past a bug instead of
    stopping at it.  Catch specific exceptions, or re-raise with a bare
    ``raise``.
    """

    id = "SIM004"
    title = "broad except in a simulation process"
    rationale = (
        "A failed event (a failed child process, say) is thrown into the "
        "process waiting on it; a bare/broad except there swallows the "
        "failure, so the run carries on past a bug. Catch specific "
        "exceptions or re-raise."
    )

    def _visit_function(self, node) -> None:
        if is_generator_function(node):
            for child in function_scope_walk(node):
                if not isinstance(child, ast.ExceptHandler):
                    continue
                names = _exception_names(child.type)
                broad = child.type is None or any(
                    name in _BROAD_NAMES for name in names
                )
                if broad and not _reraises(child):
                    what = (
                        "bare except"
                        if child.type is None
                        else f"except {' | '.join(names)}"
                    )
                    self.report(
                        child,
                        f"{what} in a generator process would swallow a "
                        "failed event thrown into it; catch specific "
                        "exceptions or re-raise",
                    )
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function


@register
class AcquireReleaseRule(Rule):
    """Flag ``x.acquire()`` in a process with no ``x.release()`` in a finally.

    If the process fails between acquire and release, the slot leaks for the rest of the run: capacity shrinks and every
    later sample of queue depth and latency is silently skewed.  The safe
    shape is::

        yield resource.acquire()
        try:
            ...
        finally:
            resource.release()

    Protocols that intentionally hand a held slot to another process
    declare it with a *checked* ownership annotation::

        # ursalint: transfers=resource -- released by the consumer
        yield resource.acquire()

    The annotation is verified, not trusted: the declared receiver must
    match the acquire on the annotated line, and the module must contain
    a matching ``release()`` somewhere (the other end of the handoff).
    Annotations that match no acquire are themselves reported.
    """

    id = "SIM005"
    title = "acquire() without release() in a finally"
    rationale = (
        "A process failing between acquire and release leaks the slot for "
        "the rest of the run, skewing capacity, queue depths and latency. "
        "Release in a finally, or declare the ownership handoff with a "
        "checked '# ursalint: transfers=<receiver>' annotation."
    )

    _module_releases: frozenset[str] = frozenset()

    def run(self, tree: ast.Module) -> None:
        self._module_releases = _release_receivers(tree)
        self.visit(tree)
        for line in sorted(set(self.ctx.transfers) - self.ctx.transfers_used):
            annotation = self.ctx.transfers[line]
            declared = ", ".join(annotation.receivers)
            self.ctx.add_at(
                self.id,
                line,
                0,
                f"'transfers={declared}' annotation matches no acquire() on "
                "this line; fix the declared receiver or remove the "
                "annotation",
            )

    def _check_transfer(self, receiver: str, call: ast.Call) -> bool:
        """Validate the annotation covering ``call``; True when handled."""
        annotation = self.ctx.transfers.get(call.lineno)
        if annotation is None:
            return False
        self.ctx.transfers_used.add(annotation.line)
        if receiver not in annotation.receivers:
            declared = ", ".join(annotation.receivers)
            self.report(
                call,
                f"ownership annotation declares 'transfers={declared}' but "
                f"this line acquires {receiver}; the annotation must name "
                "the acquired resource",
            )
            return True
        if not any(
            released == receiver or released.split(".")[-1] == receiver.split(".")[-1]
            for released in self._module_releases
        ):
            self.report(
                call,
                f"declared transfer of {receiver} but no matching "
                f"release() exists anywhere in this module; the handed-off "
                "slot has no owner to release it",
            )
        return True

    def _visit_function(self, node) -> None:
        if is_generator_function(node):
            acquires: list[tuple[str, ast.Call]] = []
            released_in_finally: set[str] = set()
            for child in function_scope_walk(node):
                if isinstance(child, ast.Call) and isinstance(
                    child.func, ast.Attribute
                ):
                    if child.func.attr == "acquire":
                        receiver = dotted_name(child.func.value) or ast.unparse(
                            child.func.value
                        )
                        acquires.append((receiver, child))
                elif isinstance(child, ast.Try):
                    for stmt in child.finalbody:
                        for sub in ast.walk(stmt):
                            if (
                                isinstance(sub, ast.Call)
                                and isinstance(sub.func, ast.Attribute)
                                and sub.func.attr == "release"
                            ):
                                receiver = dotted_name(
                                    sub.func.value
                                ) or ast.unparse(sub.func.value)
                                released_in_finally.add(receiver)
            for receiver, call in acquires:
                if receiver in released_in_finally:
                    continue
                if self._check_transfer(receiver, call):
                    continue
                self.report(
                    call,
                    f"{receiver}.acquire() has no {receiver}.release() "
                    "in a finally block of this process; a failure "
                    "between them leaks the slot",
                )
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function


def _release_receivers(tree: ast.Module) -> frozenset[str]:
    """Dotted receivers of every ``<receiver>.release()`` call in a module."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "release"
        ):
            receiver = dotted_name(node.func.value) or ast.unparse(node.func.value)
            out.add(receiver)
    return frozenset(out)
