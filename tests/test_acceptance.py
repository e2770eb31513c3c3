"""Acceptance gate: the binding behavioral guarantees of the package.

One test per criterion, in order; each prints a single PASS/FAIL line
(straight to the terminal, bypassing capture) and enforces its
wall-clock budget.  Run with ``pytest tests/test_acceptance.py`` for
the summary lines alone.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from cpnsim.engine import Fired, SimState, advance_time, enabled_bindings, fire, run, step
from cpnsim.cli import main
from cpnsim.experiment import ExperimentPlan, run_experiment_detailed
from cpnsim.raytrace import (
    CLIENT,
    IDEAL,
    MASTER,
    Node,
    REAL,
    ScenarioParams,
    SceneConfig,
    Tile,
    UNASSIGNED,
    assign_tile,
    attach_scene_monitor,
    build_net,
    failure_detect_ms,
    make_tile_list,
    tile_complexity,
)
from cpnsim.stochastic import RngStream

from helpers import RaytraceInvariantHook, build_delay_net, build_guard_net

SMALL = SceneConfig(10_000, 7_500, 1_000, 750, 36_500)
BIG = SceneConfig(30_000, 22_500, 1_000, 750, 36_500)


@pytest.fixture
def verdict(capfd):
    def emit(index, description, ok, elapsed, budget, detail=""):
        parts = [f"{elapsed:.1f}s of {budget:.0f}s budget"]
        if detail:
            parts.append(detail)
        line = (f"acceptance {index} {'PASS' if ok else 'FAIL'}: "
                f"{description} ({'; '.join(parts)})")
        with capfd.disabled():
            print(line, flush=True)

    return emit


@contextmanager
def checked(verdict, index, description, budget):
    """Print the criterion verdict whether the body passes or throws."""
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        verdict(index, description, False,
                time.perf_counter() - start, budget, info["detail"])
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    verdict(index, description, ok, elapsed, budget, info["detail"])
    assert ok, f"criterion {index} exceeded its {budget:.0f}s budget"


def scene_means(points, scenario):
    return {
        (p.scene, p.nodes): p.mean_ms for p in points if p.scenario == scenario
    }


class TestAcceptance:
    def test_1_token_game_binding_and_firing(self, verdict):
        with checked(verdict, 1,
                     "guarded token game: unique binding, exact firing",
                     budget=1.0) as info:
            net = build_guard_net()
            marking = {"p1": [1] + [2] * 7, "p2": [1] * 4}
            state = SimState(net, marking, RngStream(1))
            found = enabled_bindings(net, state)
            assert found == [("tt", {"x": 2, "y": 1})]
            fire(net, state, *found[0])
            assert state.tokens("p1") == [(1, None, 1), (2, None, 6)]
            assert state.tokens("p2") == [(1, None, 3)]
            info["detail"] = "binding {x=2, y=1}; p1=1`1++6`2, p2=3`1"

    def test_2_timed_token_stamping_and_time_advance(self, verdict):
        with checked(verdict, 2,
                     "timed firing stamps now+10 and time advances to 10",
                     budget=1.0) as info:
            net, marking = build_delay_net(with_consumer=True)
            state = SimState(net, marking, RngStream(1))
            event = step(net, state)
            assert event.transition == "tt1" and event.time == 0
            assert state.tokens("tp2") == [(1, 10, 1)]
            assert advance_time(net, state) == 10
            info["detail"] = "token stamped @10, advance_time -> 10"

    def test_3_complexity_conservation_over_random_scenes(self, verdict):
        with checked(verdict, 3,
                     "tile lists conserve scene complexity exactly",
                     budget=10.0) as info:
            assert SMALL.tile_count == 100
            assert BIG.tile_count == 900
            picker = random.Random(0)
            for case in range(1000):
                scene = SceneConfig(
                    picker.randint(1_000, 12_000), picker.randint(750, 9_000),
                    1_000, 750, 0)
                complexity = picker.randint(0, 200_000)
                tiles = make_tile_list(scene, complexity, RngStream(case))
                assert len(tiles) == scene.tile_count
                assert sum(t.complexity for t in tiles) == complexity
            info["detail"] = "1000 scene/seed pairs exact; grids 100 and 900"

    def test_4_model_function_distributions(self, verdict):
        with checked(verdict, 4,
                     "tile shares, failure detection, success frequencies",
                     budget=30.0) as info:
            rng = RngStream(4)
            assert tile_complexity(0, 500, rng) == 0
            assert tile_complexity(1, 42, rng) == 42
            assert tile_complexity(7, 0, rng) == 0

            p = ScenarioParams(node_count=8, scenario=REAL)
            for _ in range(10_000):
                d = failure_detect_ms(p, rng)
                assert d % p.chck_per_ms == 0
                assert p.chck_per_ms <= d <= p.chck_per_ms * p.chck_max_mult

            blank = Tile(1_000, 750, 10, True, UNASSIGNED)
            n = 100_000
            client_hits = sum(
                assign_tile(blank, Node(CLIENT), p, rng).will_succeed
                for _ in range(n))
            assert 0.89 <= client_hits / n <= 0.91
            master_hits = sum(
                assign_tile(blank, Node(MASTER), p, rng).will_succeed
                for _ in range(10_000))
            assert master_hits == 10_000
            info["detail"] = (
                f"client success {client_hits / n:.4f}, master 1.0000")

    def test_5_conservation_invariants_under_simulation(self, verdict):
        with checked(verdict, 5,
                     "node/tile conservation at every step; ideal never fails",
                     budget=300.0) as info:
            checks = 0
            for seed in range(100):
                p = ScenarioParams(node_count=8, scenario=REAL)
                rng = RngStream(5, 0, seed)
                net, marking = build_net(SMALL, p, rng)
                state = SimState(net, marking, rng)
                hook = RaytraceInvariantHook(SMALL, p)
                run(net, state,
                    stop=lambda st, ev: (type(ev) is Fired
                                         and ev.transition == "completeScene"),
                    hooks=[hook])
                checks += hook.checks

            ideal_failures = 0
            for seed in range(30):
                p = ScenarioParams(node_count=8, scenario=IDEAL)
                rng = RngStream(5, 1, seed)
                net, marking = build_net(SMALL, p, rng)
                state = SimState(net, marking, rng)
                hook = RaytraceInvariantHook(SMALL, p)
                run(net, state,
                    stop=lambda st, ev: (type(ev) is Fired
                                         and ev.transition == "completeScene"),
                    hooks=[hook])
                ideal_failures += hook.failure_firings
                checks += hook.checks
            assert ideal_failures == 0
            info["detail"] = (f"100 real + 30 ideal runs, {checks} instrumented "
                              f"steps, 0 violations, 0 ideal failure firings")

    def test_6_real_scenario_never_beats_ideal(self, verdict):
        with checked(verdict, 6,
                     "mean real duration >= mean ideal duration per node count",
                     budget=600.0) as info:
            node_counts = (2, 5, 10, 15, 20, 25)
            plan = ExperimentPlan(
                scenes=(SMALL,), node_counts=node_counts,
                scenarios=(IDEAL, REAL), replications=30, base_seed=1)
            points = run_experiment_detailed(plan).points
            ideal = scene_means(points, IDEAL)
            real = scene_means(points, REAL)
            gaps = []
            for n in node_counts:
                key = (SMALL.label, n)
                assert real[key] >= ideal[key], (
                    f"real {real[key]:.0f} < ideal {ideal[key]:.0f} at {n} nodes")
                gaps.append(real[key] - ideal[key])
            info["detail"] = (
                f"min gap {min(gaps) / 1000:.0f}s at 30 replications")

    def test_7_diminishing_returns_with_cluster_size(self, verdict):
        with checked(verdict, 7,
                     "2->10 nodes helps more than 10->25; 2 nodes beat 1",
                     budget=600.0) as info:
            plan = ExperimentPlan(
                scenes=(SMALL, BIG), node_counts=(1, 2, 10, 25),
                scenarios=(IDEAL,), replications=30, base_seed=1)
            means = scene_means(run_experiment_detailed(plan).points, IDEAL)
            details = []
            for scene in (SMALL, BIG):
                m = {n: means[(scene.label, n)] for n in (1, 2, 10, 25)}
                early = m[2] - m[10]
                late = m[10] - m[25]
                assert late < early, (
                    f"{scene.label}: 10->25 gain {late:.0f} not below "
                    f"2->10 gain {early:.0f}")
                assert m[2] < m[1], (
                    f"{scene.label}: 2 nodes ({m[2]:.0f}) not faster "
                    f"than 1 ({m[1]:.0f})")
                details.append(
                    f"{scene.label}: gains {early / 1000:.0f}s then "
                    f"{late / 1000:.0f}s")
            info["detail"] = "; ".join(details)

    def test_8_full_sweep_is_byte_reproducible(self, verdict, tmp_path):
        with checked(verdict, 8,
                     "two default sweeps write byte-identical outputs",
                     budget=900.0) as info:
            out_a, out_b = tmp_path / "a", tmp_path / "b"
            assert main(["--out", str(out_a)]) == 0
            assert main(["--out", str(out_b)]) == 0
            compared = []
            for name in sorted(p.name for p in out_a.iterdir()):
                if name.endswith((".csv", ".dat")):
                    assert (out_a / name).read_bytes() == (
                        out_b / name).read_bytes(), f"{name} differs"
                    compared.append(name)
            assert "summary.csv" in compared
            assert sum(name.endswith(".dat") for name in compared) == 4
            info["detail"] = f"{len(compared)} files identical: " + ", ".join(
                compared)
