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

The public surface is the called surface: every public function, class
and method in ``src/repro`` is reached from code that runs outside the
tests, or is exempted with its reason.
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


# -- public surface = called surface -----------------------------------------

ROOT = SRC.parents[1]

#: Decorators that wrap a definition without registering it anywhere.  Any
#: other decorator (``@register``) makes its definition a root.
WRAPPERS = {
    "cached_property", "classmethod", "contextmanager", "dataclass",
    "property", "setter", "staticmethod",
}

#: Public code kept without a production caller: ``module:qualname``, or a
#: bare module path for a whole module, each with its reason.
EXEMPT = {
    "repro/solver/branch_and_bound.py:solve_exhaustive":
        "the reference oracle that tests/solver/test_solver.py compares "
        "solve() against",
    "repro/core/theorem.py":
        "the executable statement of Theorem 1 that docs/paper_mapping.md "
        "cites",
}


def is_protocol(name: str) -> bool:
    """A method Python calls by name: a dunder, or an ``ast.NodeVisitor``
    ``visit_<node type>`` handler."""
    if name.startswith("__") and name.endswith("__"):
        return True
    return name.startswith("visit_") and isinstance(getattr(ast, name[6:], None), type)


def decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "attr", None) or getattr(node, "id", "")


def is_registered(node) -> bool:
    return any(decorator_name(d) not in WRAPPERS for d in node.decorator_list)


def references(nodes):
    """Every name the code in ``nodes`` can reach a definition by."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
    return names


def is_all(node) -> bool:
    return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
        getattr(target, "id", None) == "__all__"
        for target in getattr(node, "targets", [getattr(node, "target", None)])
    )


class Definition:
    """One function, class or method of ``src/repro``."""

    def __init__(self, module, node, owner=None):
        self.module, self.node, self.owner = module, node, owner
        self.name = node.name
        self.qualname = f"{owner.name}.{node.name}" if owner else node.name
        self.methods = []

    @property
    def body(self):
        """The code that runs once this definition is live, minus methods."""
        if isinstance(self.node, ast.ClassDef):
            return [*self.node.bases, *self.node.keywords, *self.node.decorator_list,
                    *(s for s in self.node.body if s not in self.method_nodes)]
        return [self.node]

    @property
    def method_nodes(self):
        return [m.node for m in self.methods]

    @property
    def public(self):
        return not self.name.startswith("_")


def definitions_and_roots():
    """All definitions in ``src/repro``, and the code that is always live."""
    defs, roots = [], []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC.parent).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definition = Definition(module, stmt)
                defs.append(definition)
                if isinstance(stmt, ast.ClassDef):
                    for item in stmt.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            method = Definition(module, item, definition)
                            definition.methods.append(method)
                            defs.append(method)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)) and not is_all(stmt):
                roots.append(stmt)
    for folder in ("benchmarks", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            roots.append(ast.parse(path.read_text(), filename=str(path)))
    return defs, roots


def unreferenced_public_names():
    """``module:qualname`` of every public definition no live code names.

    Liveness spreads from the roots by name: a definition is live once
    live code names it (a method only once its class is live too), and
    its own body is live from then on.  Decorated registrations and
    protocol methods are live with their scope.
    """
    defs, roots = definitions_and_roots()
    live = set()
    names = references(roots)
    grew = True
    while grew:
        grew = False
        for d in defs:
            if id(d) in live:
                continue
            if d.owner is not None and id(d.owner) not in live:
                continue
            if d.name in names or is_protocol(d.name) or is_registered(d.node):
                live.add(id(d))
                names |= references(d.body)
                grew = True
    return sorted(
        f"{d.module}:{d.qualname}" for d in defs if d.public and id(d) not in live
    )


def exemption(name: str):
    """The :data:`EXEMPT` key covering ``module:qualname``, if any."""
    module = name.partition(":")[0]
    return next((key for key in (name, module) if key in EXEMPT), None)


def test_every_public_name_has_a_production_reference():
    """Every public function, class and method in ``src/repro`` is named by
    code that runs outside the tests: the package's module-level code,
    ``benchmarks/`` or ``examples/``, or code those reach.  Tests are
    not roots, so code that only a test calls fails here."""
    unreferenced = unreferenced_public_names()
    assert [name for name in unreferenced if exemption(name) is None] == []
    # An exemption that covers nothing is stale.
    assert {exemption(name) for name in unreferenced} == set(EXEMPT)
