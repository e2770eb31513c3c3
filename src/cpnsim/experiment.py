"""Replicated parameter sweeps over the raytracing model.

A plan enumerates (scene, scenario, node count) sweep points in a fixed
order; every replication of a point gets its own random stream derived
from ``(base_seed, point_index, replication)``, so any subset of the
sweep can be reproduced, and results do not depend on execution order
even when replications run in parallel worker processes.  With
``jobs == 1`` every replication runs in the calling process, and the
process-pool modules are imported only by a sweep with ``jobs > 1``.

A replication that hits the step limit is *aborted*; one that raises
is *failed*.  The process that ran it names either by its seed path;
neither stops the sweep or counts towards its point's aggregates.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from cpnsim.engine import DEFAULT_STEP_LIMIT, SimState, StepLimitExceeded, run
from cpnsim.raytrace import (
    SCENARIOS,
    SceneConfig,
    SceneRecord,
    ScenarioParams,
    attach_scene_monitor,
    build_net,
    check_durations,
)
from cpnsim.stochastic import RngStream, seed_label

logger = logging.getLogger(__name__)

DEFAULT_NODE_COUNTS = tuple(range(1, 26))

# ScenarioParams fields a plan may override; node_count and scenario
# are swept by the plan itself.
PARAM_NAMES = tuple(
    f.name for f in fields(ScenarioParams)
    if f.name not in ("node_count", "scenario")
)


@dataclass(frozen=True)
class ExperimentPlan:
    """What to sweep: scenes x scenarios x node counts x replications."""

    scenes: tuple[SceneConfig, ...]
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS
    scenarios: tuple[str, ...] = SCENARIOS
    replications: int = 30
    base_seed: int = 1
    scenes_per_run: int = 1
    step_limit: int = DEFAULT_STEP_LIMIT
    jobs: int = 1
    param_overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if not self.scenes:
            raise ValueError("plan needs at least one scene")
        for name in ("replications", "base_seed", "scenes_per_run",
                     "step_limit", "jobs"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not self.node_counts or any(
                not isinstance(n, int) or isinstance(n, bool) or n < 1
                for n in self.node_counts):
            raise ValueError(
                f"node_counts must be ints >= 1, got {self.node_counts!r}")
        # A repeated point would write duplicate summary rows and plot
        # values, and merge two points' records into one file.
        if len(set(self.node_counts)) != len(self.node_counts):
            raise ValueError(f"duplicate node counts in {self.node_counts}")
        labels = [scene.label for scene in self.scenes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate scenes in {labels}")
        if not self.scenarios:
            raise ValueError("scenarios must not be empty")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.scenes_per_run < 1:
            raise ValueError("scenes_per_run must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base seed must be >= 0")
        if self.step_limit < 1:
            raise ValueError("step limit must be >= 1")
        # Fail on bad parameter overrides now, not inside the sweep.
        names = [name for name, _ in self.param_overrides]
        for name in names:
            if name not in PARAM_NAMES:
                raise ValueError(f"cannot override parameter {name!r}")
            if names.count(name) > 1:
                raise ValueError(f"parameter {name!r} is overridden twice")
        for s in self.scenarios:
            params = self.params_for(s, min(self.node_counts))
            for scene in self.scenes:
                check_durations(scene, params)
        if len(set(self.scenarios)) != len(self.scenarios):
            raise ValueError(f"duplicate scenarios in {self.scenarios}")

    def params_for(self, scenario: str, node_count: int) -> ScenarioParams:
        return ScenarioParams(
            node_count=node_count,
            scenario=scenario,
            **dict(self.param_overrides),
        )

    def points(self):
        """(point_index, scene, scenario, node_count) in sweep order."""
        index = 0
        for scene in self.scenes:
            for scenario in self.scenarios:
                for node_count in self.node_counts:
                    yield index, scene, scenario, node_count
                    index += 1


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated durations of one (scene, scenario, node count) point.

    A point without completed replications holds zeros; the output
    files write its aggregates as ``nan`` or leave it out.
    """

    scene: str
    scenario: str
    nodes: int
    mean_ms: float
    std_ms: float
    replications: int
    mean_failures: float


class AbortedReplication(NamedTuple):
    """A replication that hit the step limit, with the seed path that reproduces it."""

    scene: str
    scenario: str
    nodes: int
    seed: str  # "base_seed:point_index:replication", as in the records


class FailedReplication(NamedTuple):
    """A replication that raised, with the seed path that reproduces it."""

    scene: str
    scenario: str
    nodes: int
    seed: str  # "base_seed:point_index:replication", as in the records
    error: str


@dataclass
class ExperimentResult:
    """Sweep points plus the raw records, aborted and failed replications."""

    points: list[SweepPoint]
    records: dict[tuple[str, str], list[SceneRecord]] = field(default_factory=dict)
    aborted: list[AbortedReplication] = field(default_factory=list)
    failed: list[FailedReplication] = field(default_factory=list)


def _run_replication(scene: SceneConfig, params: ScenarioParams,
                     seed_path: tuple[int, ...], step_limit: int,
                     scenes_per_run: int) -> list[SceneRecord] | None:
    """Records of one seeded run, or None if it hit the step ceiling."""
    rng = RngStream(*seed_path)
    net, marking = build_net(scene, params, rng)
    state = SimState(net, marking, rng)
    hooks: list = []
    records = attach_scene_monitor(hooks).records

    def stop(st, event):
        return len(records) >= scenes_per_run

    try:
        run(net, state, stop=stop, hooks=hooks, max_steps=step_limit)
    except StepLimitExceeded:
        return None
    return records if len(records) >= scenes_per_run else None


def _replication_task(args):
    """Records of one replication, or its abort or failure report.

    Catches every error, logging its traceback, so that one failing
    replication ends neither the sweep nor, with ``--jobs``, the pool.
    """
    scene, params, seed_path, step_limit, scenes_per_run = args
    where = scene.label, params.scenario, params.node_count, seed_label(seed_path)
    try:
        records = _run_replication(scene, params, seed_path, step_limit,
                                   scenes_per_run)
    except Exception as exc:
        logger.exception("replication failed: seed=%s", where[-1])
        return FailedReplication(*where, f"{type(exc).__name__}: {exc}")
    if records is None:
        logger.warning("replication aborted at step limit: scene=%s "
                       "scenario=%s nodes=%d seed=%s", *where)
        return AbortedReplication(*where)
    return records


def _replication_args(plan: ExperimentPlan):
    for index, scene, scenario, node_count in plan.points():
        params = plan.params_for(scenario, node_count)
        for rep in range(plan.replications):
            yield (scene, params, (plan.base_seed, index, rep),
                   plan.step_limit, plan.scenes_per_run)


def run_experiment_detailed(plan: ExperimentPlan) -> ExperimentResult:
    """Run the full plan and keep raw records and abort reports."""
    args = list(_replication_args(plan))
    if plan.jobs > 1:
        # Imported here, so that an in-process sweep never loads the pool stack.
        from concurrent.futures import ProcessPoolExecutor

        # A fork-started pool starts all of its workers at once.
        with ProcessPoolExecutor(max_workers=min(plan.jobs, len(args))) as pool:
            outcomes = list(pool.map(_replication_task, args, chunksize=4))
    else:
        outcomes = [_replication_task(a) for a in args]

    result = ExperimentResult(points=[])
    reps = plan.replications
    for index, scene, scenario, node_count in plan.points():
        point_records: list[SceneRecord] = []
        completed = 0
        for outcome in outcomes[index * reps:(index + 1) * reps]:
            if type(outcome) is FailedReplication:
                result.failed.append(outcome)
            elif type(outcome) is AbortedReplication:
                result.aborted.append(outcome)
            else:
                completed += 1
                point_records.extend(outcome)
        durations = [r.duration_ms for r in point_records]
        if durations:
            mean_ms = statistics.fmean(durations)
            std_ms = statistics.stdev(durations) if len(durations) > 1 else 0.0
            mean_failures = statistics.fmean(r.failures for r in point_records)
        else:
            mean_ms = std_ms = mean_failures = 0.0
        result.points.append(SweepPoint(scene.label, scenario, node_count,
                                        mean_ms, std_ms, completed, mean_failures))
        result.records.setdefault((scene.label, scenario), []).extend(point_records)
    return result
