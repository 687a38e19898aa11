"""Every runtime dependency declared in pyproject.toml is used by the package.

An install dependency nothing imports still has to be resolved and
installed on every machine.  ``pyproject.toml`` is parsed with a regex
rather than ``tomllib``, which Python 3.10 lacks.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies() -> list[str]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert block is not None, "no [project].dependencies list in pyproject.toml"
    return re.findall(r"[\"']\s*([A-Za-z0-9][A-Za-z0-9._-]*)", block.group(1))


def test_every_declared_dependency_is_imported():
    sources = [
        path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
    ]
    deps = declared_dependencies()
    assert deps, "pyproject.toml declares no dependencies"
    unused = []
    for dist in deps:
        module = re.escape(dist.lower().replace("-", "_"))
        pattern = re.compile(rf"^\s*(?:import|from)\s+{module}\b", re.M)
        if not any(pattern.search(source) for source in sources):
            unused.append(dist)
    assert unused == [], f"declared but never imported under src/repro: {unused}"
