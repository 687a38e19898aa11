"""The library layers do not import the experiment layer, and a
simulated deployment is stood up in one place.

``repro.experiments``, ``repro.fleet`` and ``repro.api`` sit on top of
the simulator, the applications, the control planes and the baselines.
Nothing below them may import them -- not even lazily inside a function
-- which is why the one deployment constructor, ``Application``, lives in
``repro.apps`` where the artifact builders in ``repro.core`` and
``repro.baselines`` can reach it.  Within ``repro`` only
``Application.__init__`` builds the environment, cluster and metrics hub
a run deploys onto.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

LIBRARY_PACKAGES = (
    "sim",
    "cluster",
    "net",
    "services",
    "apps",
    "workload",
    "telemetry",
    "stats",
    "solver",
    "core",
    "baselines",
)

UPPER_LAYERS = ("repro.experiments", "repro.fleet", "repro.api")


def imported_modules(tree: ast.AST):
    """Yield ``(line, dotted name)`` for every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module
            if node.module == "repro":
                # ``from repro import api`` imports a module by name.
                for alias in node.names:
                    yield node.lineno, f"repro.{alias.name}"


def is_upper(name: str) -> bool:
    return any(name == top or name.startswith(top + ".") for top in UPPER_LAYERS)


@pytest.mark.parametrize("package", LIBRARY_PACKAGES)
def test_library_package_does_not_import_upper_layers(package):
    files = sorted((SRC / package).rglob("*.py"))
    assert files, f"no modules under repro.{package}"
    offenders = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in imported_modules(tree):
            if is_upper(name):
                offenders.append(f"{path.relative_to(SRC.parent)}:{line} {name}")
    assert offenders == []


DEPLOYMENT_PARTS = ("Environment", "Cluster", "MetricsHub")


def constructor_calls(tree: ast.AST, scope: str = ""):
    """Yield ``(line, enclosing qualname, callee)`` for each call of a
    deployment part, by name or attribute."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
            yield from constructor_calls(node, inner)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in DEPLOYMENT_PARTS:
                yield node.lineno, scope, name
        yield from constructor_calls(node, scope)


def test_only_application_init_builds_a_deployment():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC.parent).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, scope, name in constructor_calls(tree):
            if (module, scope) != ("repro/apps/topology.py", "Application.__init__"):
                offenders.append(f"{module}:{line} {name}( in {scope or '<module>'}")
    assert offenders == []
