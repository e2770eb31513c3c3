"""Timed coloured Petri net simulation toolkit.

Modules:

- :mod:`cpnsim.engine`: generic timed CPN executor (places, markings,
  binding enumeration, firing, model-time advancement).
- :mod:`cpnsim.stochastic`: seeded random streams and integer-valued
  distribution draws.
- :mod:`cpnsim.raytrace`: executable model of a demand-driven parallel
  raytracing cluster built on the engine.
- :mod:`cpnsim.monitors`: observation-only data collection hooks.
- :mod:`cpnsim.experiment`: replicated parameter-sweep harness.
- :mod:`cpnsim.cli`: command-line front end for the harness.
"""

from cpnsim.engine import (
    DeadMarking,
    Fired,
    Marking,
    Net,
    NetBuilder,
    SimState,
    StepEvent,
    TimeAdvanced,
    advance_time,
    enabled_bindings,
    fire,
    run,
    step,
)
from cpnsim.stochastic import RngStream

__version__ = "0.1.0"

__all__ = [
    "DeadMarking",
    "Fired",
    "Marking",
    "Net",
    "NetBuilder",
    "RngStream",
    "SimState",
    "StepEvent",
    "TimeAdvanced",
    "advance_time",
    "enabled_bindings",
    "fire",
    "run",
    "step",
    "__version__",
]
