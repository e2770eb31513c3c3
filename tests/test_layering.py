"""Module layering: which cpnsim modules each cpnsim module imports."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cpnsim"

LAYERS = {
    "__init__": set(),
    "engine": set(),
    "stochastic": set(),
    "raytrace": {"engine", "stochastic"},
    "experiment": {"engine", "raytrace", "stochastic"},
    "cli": {"engine", "experiment", "raytrace"},
}


def package_imports(path: Path) -> set[str]:
    """The cpnsim modules that the source file at ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the package
                module = f"cpnsim.{module}".rstrip(".")
            # "from cpnsim import engine" names modules, not attributes.
            modules = ([f"cpnsim.{alias.name}" for alias in node.names]
                       if module == "cpnsim" else [module])
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] == "cpnsim" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_import_graph_within_the_package():
    graph = {path.stem: package_imports(path)
             for path in PACKAGE.glob("*.py")}
    assert graph == LAYERS
