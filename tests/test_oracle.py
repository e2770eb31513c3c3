"""An exact oracle for the model: ideal durations are greedy list scheduling.

With ``comm_mean_ms`` 0 and nodes of equal speed, contacting the master
costs nothing and every node renders a tile in the same time.  A free
node then takes the head of the work list at once, so the tiles run as
Graham's greedy list scheduling of the tile list, in order, on ``n``
identical machines (Graham, *Bounds on multiprocessing timing
anomalies*, 1969).  A scene's ``duration_ms`` is the ``(n - 1)`` scene
transfers drawn by ``sendScene`` plus that schedule's makespan.

The oracle replays only the draws made before any tile is assigned:
the scene complexity, the tile list, then the transfer time.  Later
draws (the engine's tie-breaks, the ``real`` scenario's Bernoulli
trials) decide which node runs which tile, which changes no duration
here.  The oracle needs no engine, no net and no tie-break, and this
module imports nothing from ``cpnsim.engine``.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings, strategies as st

from cpnsim.experiment import ExperimentPlan, run_experiment_detailed
from cpnsim.raytrace import IDEAL, REAL, SceneConfig, make_tile_list
from cpnsim.stochastic import RngStream, normal_int

SCENES = (
    SceneConfig(10_000, 7_500, 1_000, 750, 36_500),
    SceneConfig(30_000, 22_500, 1_000, 750, 36_500),
    SceneConfig(4_000, 3_000, 1_000, 750, 36_500),
)
NO_COMM = (("comm_mean_ms", 0.0),)
# Clients never fail and the master renders at full speed.
REAL_AS_IDEAL = NO_COMM + (("client_success_p", 1.0), ("master_perf", 1.0))


def scene_draws(scene, params, seed_path):
    """Tile render times and transfer time of a replication's first scene."""
    rng = RngStream(*seed_path)
    tiles = make_tile_list(scene, scene.draw_complexity(rng), rng)
    send = (params.node_count - 1) * normal_int(
        rng, params.send_mean_ms, params.send_var)
    work = [round(params.work_ms_per_kilopixel * t.width * t.height / 1000
                  + params.work_ms_per_complexity * t.complexity)
            for t in tiles]
    return work, send


def list_schedule_makespan(durations, machines):
    """Each job, in order, starts on the machine that is free first."""
    free = [0] * machines
    for d in durations:
        heapq.heapreplace(free, free[0] + d)
    return max(free)


def swept_records(plan):
    """(params, scene, seed path, record) for every record of ``plan``."""
    result = run_experiment_detailed(plan)
    assert not result.failed and not result.aborted
    for index, scene, scenario, nodes in plan.points():
        records = [r for r in result.records[(scene.label, scenario)]
                   if r.node_count == nodes]
        assert len(records) == plan.replications
        for rep, record in enumerate(records):
            seed_path = (plan.base_seed, index, rep)
            assert record.seed == ":".join(map(str, seed_path))
            yield plan.params_for(scenario, nodes), scene, seed_path, record


def check_exact(plan):
    """Every record of ``plan`` matches the oracle; returns how many."""
    checked = 0
    for params, scene, seed_path, record in swept_records(plan):
        work, send = scene_draws(scene, params, seed_path)
        assert record.duration_ms == send + list_schedule_makespan(
            work, params.node_count), seed_path
        checked += 1
    return checked


def test_ideal_durations_are_list_scheduling_makespans():
    plan = ExperimentPlan(scenes=SCENES, node_counts=(1, 2, 3, 7, 25),
                          scenarios=(IDEAL,), replications=5, base_seed=3,
                          param_overrides=NO_COMM)
    assert check_exact(plan) == 75


def test_real_scenario_without_failures_matches_too():
    plan = ExperimentPlan(scenes=SCENES, node_counts=(1, 2, 3, 7, 25),
                          scenarios=(REAL,), replications=5, base_seed=3,
                          param_overrides=REAL_AS_IDEAL)
    assert check_exact(plan) == 75


@st.composite
def small_scenes(draw):
    """A scene of at most 6 x 6 tiles, fixed or ranged complexity."""
    tile_w = draw(st.integers(1, 2_000))
    tile_h = draw(st.integers(1, 2_000))
    width = draw(st.integers(tile_w, 6 * tile_w))
    height = draw(st.integers(tile_h, 6 * tile_h))
    lo = draw(st.integers(0, 50_000))
    complexity = draw(st.one_of(st.just(lo), st.tuples(
        st.just(lo), st.integers(lo, 60_000))))
    return SceneConfig(width, height, tile_w, tile_h, complexity)


@given(scene=small_scenes(), nodes=st.integers(1, 12),
       overrides=st.sampled_from([(IDEAL, NO_COMM), (REAL, REAL_AS_IDEAL)]),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_generated_scenes_match_the_oracle(scene, nodes, overrides, seed):
    scenario, params = overrides
    plan = ExperimentPlan(scenes=(scene,), node_counts=(nodes,),
                          scenarios=(scenario,), replications=1,
                          base_seed=seed, param_overrides=params)
    assert check_exact(plan) == 1


def test_communication_only_lengthens_the_schedule():
    """With ``comm_mean_ms`` > 0, a duration is at least the transfer
    time plus the larger of the average load and the longest tile."""
    plan = ExperimentPlan(scenes=SCENES[::2], node_counts=(1, 2, 8, 25),
                          scenarios=(IDEAL,), replications=3, base_seed=3)
    assert plan.params_for(IDEAL, 1).comm_mean_ms > 0
    checked = 0
    for params, scene, seed_path, record in swept_records(plan):
        work, send = scene_draws(scene, params, seed_path)
        bound = max(sum(work) / params.node_count, max(work))
        assert record.duration_ms >= send + bound, seed_path
        checked += 1
    assert checked == 24
