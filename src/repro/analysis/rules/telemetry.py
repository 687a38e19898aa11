"""Telemetry rules: metric writes must match the declared registry.

The :class:`~repro.telemetry.metrics.MetricsHub` validates metric names
at runtime -- but only when the mistyped handle is actually interned,
which for a rarely-taken branch may be never in CI.  TEL001 closes the
gap at lint time: any *string literal* passed as the metric name to a
hub handle factory -- directly or through a module-level string constant
(the ``_METRIC = "request_latency"`` idiom) -- is checked against
:data:`~repro.telemetry.registry.DEFAULT_REGISTRY` (name known, kind
matches the factory, label keys declared).  Names built dynamically are
left to the runtime check, which raises on every hub in the tree.

TEL002 is the same contract for alert series: any string literal passed
as the ``name`` of an :class:`~repro.telemetry.slo.Alert` construction
(or to ``SLOMonitor._emit``) must be declared in
:data:`~repro.telemetry.registry.ALERT_REGISTRY`; the monitor's emit
path is the runtime twin.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Rule, register
from repro.telemetry.registry import ALERT_REGISTRY, DEFAULT_REGISTRY

__all__ = ["UnregisteredAlertRule", "UnregisteredMetricRule"]

#: Hub handle factory (the hub's only write API) -> the metric kind its
#: handle records.
_METHOD_KIND = {
    "latency_handle": "latency",
    "counter_handle": "counter",
    "gauge_handle": "gauge",
}

#: Position of the ``labels`` argument in each factory's signature.
_LABELS_ARG_INDEX = dict.fromkeys(_METHOD_KIND, 1)


def _keyword(node: ast.Call, name: str) -> ast.expr | None:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _literal_label_keys(node: ast.expr | None) -> list[str] | None:
    """Constant string keys of a dict literal, or ``None`` if not static."""
    if not isinstance(node, ast.Dict):
        return None
    keys = []
    for key in node.keys:
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        keys.append(key.value)
    return keys


class _NameLiteralRule(Rule):
    """Shared pre-pass: resolve module-level string constants.

    The common ``_METRIC = "request_latency"`` /
    ``ALERT_BURN_RATE = "slo-burn-rate"`` indirection stays checkable.
    Reassigned names are dropped (their value is ambiguous).
    """

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self._module_constants: dict[str, str] = {}

    def run(self, tree: ast.Module) -> None:
        seen: dict[str, str | None] = {}
        for stmt in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id in seen:
                    seen[target.id] = None
                elif isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    seen[target.id] = value.value
                else:
                    seen[target.id] = None
        self._module_constants = {
            name: text for name, text in seen.items() if text is not None
        }
        self.visit(tree)

    def _resolve_name(self, node: ast.expr | None) -> str | None:
        """The static string value of ``node``, or ``None``."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return self._module_constants.get(node.id)
        return None


@register
class UnregisteredMetricRule(_NameLiteralRule):
    """Flag metric-name literals the telemetry registry does not declare.

    A typo'd metric name silently creates a parallel series that every
    query misses -- dashboards and SLA checks read zeros while the data
    lands next door.  The registry plus this rule make the name itself a
    checked interface.
    """

    id = "TEL001"
    title = "unregistered metric name literal"
    rationale = (
        "Metric names are declared once in "
        "repro.telemetry.registry.DEFAULT_REGISTRY; a write using an "
        "undeclared literal (or the wrong kind/labels) creates a series "
        "no query reads. Register the metric or fix the typo."
    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _METHOD_KIND:
            self._check_write(node, func.attr)
        self.generic_visit(node)

    def _check_write(self, node: ast.Call, method: str) -> None:
        name_node = node.args[0] if node.args else _keyword(node, "name")
        name = self._resolve_name(name_node)
        if name is None:
            return  # dynamic name: the hub's runtime check owns it
        spec = DEFAULT_REGISTRY.get(name)
        if spec is None:
            self.report(
                name_node,
                f"metric {name!r} is not declared in "
                "repro.telemetry.registry.DEFAULT_REGISTRY",
            )
            return
        kind = _METHOD_KIND[method]
        if spec.kind != kind:
            self.report(
                name_node,
                f"metric {name!r} is declared as a {spec.kind} but "
                f"{method}() records a {kind}",
            )
            return
        labels_index = _LABELS_ARG_INDEX[method]
        labels_node = (
            node.args[labels_index]
            if len(node.args) > labels_index
            else _keyword(node, "labels")
        )
        keys = _literal_label_keys(labels_node)
        if keys is None:
            return  # not a static dict literal
        extra = sorted(set(keys) - set(spec.labels))
        if extra:
            self.report(
                labels_node,
                f"metric {name!r} written with undeclared label keys "
                f"{extra}; declared: {sorted(spec.labels)}",
            )


#: Callables whose first (or ``name=``) argument is an alert series name.
#: ``Alert`` matches both the bare class name and ``slo.Alert``-style
#: attribute access; ``_emit`` is the monitor's internal emit path.
_ALERT_CALLABLES = frozenset({"Alert", "_emit"})


@register
class UnregisteredAlertRule(_NameLiteralRule):
    """Flag alert-name literals the alert registry does not declare.

    The SLO monitor raises on an undeclared alert name at emit time, but
    an alert that only fires under budget exhaustion may never fire in
    CI -- the same blind spot TEL001 closes for metric names.  Any
    string literal (or module-level constant) passed as the name of an
    ``Alert(...)`` construction must come from
    :data:`~repro.telemetry.registry.ALERT_REGISTRY`.
    """

    id = "TEL002"
    title = "unregistered alert name literal"
    rationale = (
        "Alert series are declared once in "
        "repro.telemetry.registry.ALERT_REGISTRY; an Alert built with an "
        "undeclared name literal creates a series no timeline query or "
        "dashboard reads, and the monitor would reject it at emit time. "
        "Register the alert or fix the typo."
    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        callee = None
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        if callee in _ALERT_CALLABLES:
            name_node = node.args[0] if node.args else _keyword(node, "name")
            name = self._resolve_name(name_node)
            if name is not None and name not in ALERT_REGISTRY:
                self.report(
                    name_node,
                    f"alert {name!r} is not declared in "
                    "repro.telemetry.registry.ALERT_REGISTRY "
                    f"(known: {', '.join(ALERT_REGISTRY.names())})",
                )
        self.generic_visit(node)
