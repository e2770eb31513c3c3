"""Timed coloured Petri net simulation toolkit.

Modules:

- :mod:`cpnsim.engine`: generic timed CPN executor (places, markings,
  binding enumeration, firing, model-time advancement).
- :mod:`cpnsim.stochastic`: seeded random streams and integer-valued
  distribution draws.
- :mod:`cpnsim.raytrace`: executable model of a demand-driven parallel
  raytracing cluster built on the engine, and the scene monitor that
  records each rendered scene.
- :mod:`cpnsim.experiment`: replicated parameter-sweep harness; it
  returns what a sweep found and prints nothing.
- :mod:`cpnsim.cli`: command-line front end for the harness; it writes
  the result files and reports incomplete replications.
"""

__version__ = "0.1.0"
