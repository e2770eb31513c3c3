"""Module layering: which cpnsim modules each cpnsim module imports,
and which standard-library modules an in-process sweep leaves loaded."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

from cpnsim import engine

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cpnsim"

LAYERS = {
    "__init__": set(),
    "engine": set(),
    "stochastic": set(),
    "raytrace": {"engine", "stochastic"},
    "experiment": {"engine", "raytrace", "stochastic"},
    "cli": {"experiment", "raytrace"},
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


# The declarations a net is built from, its state, events and errors,
# and the moves on it.
ENGINE_API = {
    "All", "DEFAULT_STEP_LIMIT", "DeadMarking", "EngineError", "Fired",
    "FiringError", "ModelStructureError", "Net", "OutputArc", "Place",
    "SimState", "StepEvent", "StepLimitExceeded", "TimeAdvanced",
    "TransitionSpec", "Var", "advance_time", "enabled_bindings", "fire",
    "kernel_name", "run", "step",
}


def test_every_engine_export_exists():
    # The export list is the whole API, and every public class is in it,
    # so a second way to build a net could not hide outside it.
    namespace = {}
    exec("from cpnsim.engine import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == ENGINE_API
    classes = {name for name, value in vars(engine).items()
               if isinstance(value, type) and not name.startswith("_")
               and value.__module__ == engine.__name__}
    assert classes <= ENGINE_API


def test_import_graph_within_the_package():
    graph = {path.stem: package_imports(path)
             for path in PACKAGE.glob("*.py")}
    assert graph == LAYERS


# Runs in a fresh interpreter: pytest itself may load multiprocessing.
IN_PROCESS_SWEEP = """
import sys
from cpnsim import cli
status = cli.main(["--scene", "4000x3000", "--complexity", "1000",
                   "--nodes", "2", "--scenario", "ideal",
                   "--replications", "1", "--out", sys.argv[1]])
pool = sorted(m for m in sys.modules
              for p in ("concurrent.futures", "multiprocessing")
              if m == p or m.startswith(p + "."))
print(status, pool)
"""


def test_an_in_process_sweep_loads_no_process_pool(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", IN_PROCESS_SWEEP, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "summary.csv").stat().st_size > 0
