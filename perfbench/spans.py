"""In-memory spans, and the wrappers that record them around cpnsim's calls.

Nothing here edits cpnsim.  :func:`instrument` rebinds the names that
``cpnsim.cli`` and ``cpnsim.experiment`` look up at call time to
wrappers that call through to the original function, and hands back a
function that puts the originals back.  The run loop that replaces
``cpnsim.engine.run`` is a copy of the kernel's ``run``: same stop
predicate, same hook order, same step limit, so a traced sweep draws
the same random numbers and writes the same bytes as an untraced one
(the benchmark checks this on every traced run).

A span is (name, start, end, parent).  Spans live in flat arrays while
the sweep runs and are summarised, and optionally saved, afterwards.
A span's self time is its duration minus the durations of its direct
children; children never overlap because everything runs on one thread.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

import cpnsim.cli as cli
import cpnsim.experiment as experiment
from cpnsim.engine import (
    DEFAULT_STEP_LIMIT,
    DeadMarking,
    Fired,
    StepLimitExceeded,
    TimeAdvanced,
    step,
)


class Tracer:
    """Append-only span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._open: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open.pop()

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span ``name``."""
        nid = self.name_id(name)

        def wrapped(*args, **kwargs):
            i = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(i)

        return wrapped

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (span count, total self seconds)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        self_s = dur - covered
        n = len(self.names)
        counts = np.bincount(name, minlength=n)
        totals = np.bincount(name, weights=self_s, minlength=n)
        return {
            self.names[k]: (int(counts[k]), float(totals[k])) for k in range(n)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


class CountingGenerator:
    """Stands in for an ``RngStream``'s numpy generator; one span per draw.

    Only the draw methods that ``cpnsim.stochastic`` calls are provided,
    so a new kind of draw fails loudly instead of going uncounted.
    """

    __slots__ = ("_gen", "_tracer", "_nid")

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer
        self._nid = tracer.name_id("stochastic.draw")

    def _draw(self, method, args, kwargs):
        i = self._tracer.begin(self._nid)
        try:
            return method(*args, **kwargs)
        finally:
            self._tracer.finish(i)

    def integers(self, *args, **kwargs):
        return self._draw(self._gen.integers, args, kwargs)

    def random(self, *args, **kwargs):
        return self._draw(self._gen.random, args, kwargs)

    def normal(self, *args, **kwargs):
        return self._draw(self._gen.normal, args, kwargs)

    def exponential(self, *args, **kwargs):
        return self._draw(self._gen.exponential, args, kwargs)


class StepCounter:
    """Run hook that counts engine steps by kind; the untraced runs' only probe."""

    __slots__ = ("fired", "advances")

    def __init__(self):
        self.fired = 0
        self.advances = 0

    def __call__(self, state, event) -> None:
        kind = type(event)
        if kind is Fired:
            self.fired += 1
        elif kind is TimeAdvanced:
            self.advances += 1


class Probe:
    """What one in-process ``cpnsim.cli.main`` call reports back."""

    def __init__(self):
        self.plan = None
        self.plan_built = None  # perf_counter() when the plan was built
        self.result = None
        self.counter = StepCounter()
        self.tracer: Tracer | None = None
        self.tile_count = 0  # scene of the replication being run


def _patch(module, name, value, saved) -> None:
    saved.append((module, name, getattr(module, name)))
    setattr(module, name, value)


def instrument(probe: Probe, traced: bool):
    """Install the wrappers on cpnsim's modules; return the undo function.

    Untraced, the wrappers run once per sweep (plan, result capture)
    except for :class:`StepCounter`, one extra hook call per step.
    Traced, every layer boundary named in ``perfbench/README.md`` gets
    a span.
    """
    saved: list = []
    plan_from_args = cli.plan_from_args
    run_detailed = cli.run_experiment_detailed

    def plan_hook(args):
        probe.plan = plan_from_args(args)
        probe.plan_built = perf_counter()
        return probe.plan

    def result_hook(plan):
        probe.result = run_detailed(plan)
        return probe.result

    _patch(cli, "plan_from_args", plan_hook, saved)
    if not traced:
        attach = experiment.attach_scene_monitor

        def attach_with_counter(hooks):
            monitor = attach(hooks)
            hooks.append(probe.counter)
            return monitor

        _patch(cli, "run_experiment_detailed", result_hook, saved)
        _patch(experiment, "attach_scene_monitor", attach_with_counter, saved)
    else:
        tracer = probe.tracer = Tracer()
        _patch(cli, "run_experiment_detailed",
               tracer.span("experiment.run_experiment_detailed", result_hook),
               saved)
        for writer in ("emit_csv", "emit_plotdata", "write_records"):
            _patch(cli, writer,
                   tracer.span(f"cli.{writer}", getattr(cli, writer)), saved)
        _patch(experiment, "RngStream", _traced_rng(tracer, experiment.RngStream),
               saved)
        build_net = tracer.span("raytrace.build_net", experiment.build_net)

        def build_net_for_scene(scene, params, rng):
            probe.tile_count = scene.tile_count
            return build_net(scene, params, rng)

        _patch(experiment, "build_net", build_net_for_scene, saved)
        _patch(experiment, "SimState",
               tracer.span("engine.SimState", experiment.SimState), saved)
        _patch(experiment, "run", _traced_run(probe, tracer), saved)

    def undo():
        for module, name, original in reversed(saved):
            setattr(module, name, original)

    return undo


def _traced_rng(tracer: Tracer, rng_stream):
    seed = tracer.span("stochastic.RngStream", rng_stream)

    def make(*seed_path):
        rng = seed(*seed_path)
        rng._gen = CountingGenerator(rng._gen, tracer)
        return rng

    return make


def _traced_run(probe: Probe, tracer: Tracer):
    """``cpnsim.engine.run`` as a benchmark loop with a span per step and hook."""
    run_id = tracer.name_id("engine.run")
    step_id = tracer.name_id("engine.step")  # renamed by the event it returns
    hook_id = tracer.name_id("monitors.hook")
    begin, finish, names = tracer.begin, tracer.finish, tracer.name

    def run(net, state, stop=None, hooks=(), max_steps=DEFAULT_STEP_LIMIT):
        tiles = probe.tile_count
        kind_ids = {
            Fired: tracer.name_id(f"engine.fire.t{tiles}"),
            TimeAdvanced: tracer.name_id(f"engine.advance.t{tiles}"),
            DeadMarking: tracer.name_id("engine.dead"),
        }
        hooks = tuple(hooks)
        outer = begin(run_id)
        try:
            if stop is not None and stop(state, None):
                return state
            iterations = 0
            while True:
                iterations += 1
                if iterations > max_steps:
                    raise StepLimitExceeded(max_steps)
                i = begin(step_id)
                event = step(net, state)
                finish(i)
                names[i] = kind_ids[type(event)]
                for hook in hooks:
                    h = begin(hook_id)
                    hook(state, event)
                    finish(h)
                if stop is not None and stop(state, event):
                    return state
                if type(event) is DeadMarking:
                    return state
        finally:
            finish(outer)

    return run
