"""The library layers do not import the experiment layer.

``repro.experiments``, ``repro.fleet`` and ``repro.api`` sit on top of
the simulator, the applications, the control planes and the baselines.
Nothing below them may import them -- not even lazily inside a function
-- which is why the one deployment constructor, ``make_app``, lives in
``repro.apps`` where the artifact builders in ``repro.core`` and
``repro.baselines`` can reach it.
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
