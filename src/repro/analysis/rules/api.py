"""API hygiene rules."""

from __future__ import annotations

import ast

from repro.analysis.core import Rule, dotted_name, register

__all__ = ["FacadeImportRule", "MutableDefaultRule"]

_MUTABLE_FACTORIES = frozenset({"list", "dict", "set"})


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in _MUTABLE_FACTORIES
    return False


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return True
    return False


@register
class MutableDefaultRule(Rule):
    """Flag mutable default arguments and dataclass field defaults.

    A mutable default is evaluated once at definition time and shared by
    every call (and, for class attributes, every instance): state leaks
    between calls in ways that depend on call order, which is exactly the
    kind of hidden coupling the determinism suite exists to prevent.
    """

    id = "API001"
    title = "mutable default argument"
    rationale = (
        "Default values are evaluated once and shared across calls; "
        "mutating one couples callers through hidden state. Use None (or "
        "dataclasses.field(default_factory=...)) instead."
    )

    def _visit_function(self, node) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None and _is_mutable_literal(default):
                self.report(
                    default,
                    f"mutable default in {node.name}(); defaults are shared "
                    "across calls -- use None and create inside the body",
                )
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if _is_dataclass_decorated(node):
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and stmt.value is not None
                    and _is_mutable_literal(stmt.value)
                ):
                    self.report(
                        stmt.value,
                        f"mutable default for dataclass field in {node.name}; "
                        "use dataclasses.field(default_factory=...)",
                    )
        self.generic_visit(node)


#: Run entry points that must be imported via the ``repro.api`` facade.
#: Kept in sync with ``repro.api.__all__`` by a test (the lint layer
#: deliberately does not import the experiment stack to find out).
FACADE_ENTRYPOINTS = frozenset(
    {
        "run_all_chains",
        "run_backpressure_ablation",
        "run_cell",
        "run_deployment",
        "run_diurnal_trace",
        "run_fleet",
        "run_grid_ablation",
        "run_model_accuracy",
        "run_performance_grid",
        "run_service_change",
        "run_table05",
        "run_table06",
        "run_threshold_profiling",
        "run_ttest_ablation",
        "simulate",
        "simulate_fleet",
    }
)

_FACADE_MODULES = ("repro", "repro.api")


@register
class FacadeImportRule(Rule):
    """Flag run entry points imported from implementation modules.

    ``repro.api`` is the stability boundary of the package: everything
    outside (tests, benchmarks, examples, notebooks) should reach the
    ``run_*``/``simulate*`` entry points through it, so implementation
    modules can move and change signatures freely.  Internal ``repro``
    packages are exempt via the lint policy (the facade itself has to
    import the implementations).
    """

    id = "API002"
    title = "run entrypoint imported outside repro.api"
    rationale = (
        "repro.api is the supported import surface for run entry points; "
        "importing them from implementation modules couples callers to "
        "module layout and signatures that are free to change."
    )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if (
            node.level == 0
            and module.startswith("repro")
            and module not in _FACADE_MODULES
        ):
            for alias in node.names:
                if alias.name in FACADE_ENTRYPOINTS:
                    self.report(
                        node,
                        f"import {alias.name} from repro.api, not "
                        f"{module} (the supported API surface)",
                    )
        self.generic_visit(node)
