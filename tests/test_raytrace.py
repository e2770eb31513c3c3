"""Raytracing model: tile math, delays, net structure, conservation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import cpnsim.raytrace as raytrace
from cpnsim.engine import Fired, SimState, enabled_bindings, run, step
from cpnsim.experiment import _run_replication
from cpnsim.raytrace import (
    CLIENT,
    IDEAL,
    MASTER,
    REAL,
    Node,
    ScenarioParams,
    SceneConfig,
    Tile,
    UNASSIGNED,
    WorkList,
    assign_tile,
    build_net,
    comm_delay_ms,
    failure_detect_ms,
    make_tile_list,
    raytrace_ms,
    recovery_ms,
    tile_complexity,
)
from cpnsim.stochastic import RngStream, uniform_int

from helpers import RaytraceInvariantHook

SMALL = SceneConfig(10_000, 7_500, 1_000, 750, 36_500)
BIG = SceneConfig(30_000, 22_500, 1_000, 750, 36_500)
TINY = SceneConfig(4_000, 3_000, 1_000, 750, 1_000)


def params(node_count=8, scenario=REAL, **kw):
    return ScenarioParams(node_count=node_count, scenario=scenario, **kw)


def run_scenes(scene, p, seed=1, scenes=1):
    """Run until ``scenes`` completeScene firings; return (state, hook, times)."""
    rng = RngStream(seed)
    net, marking = build_net(scene, p, rng)
    state = SimState(net, marking, rng)
    hook = RaytraceInvariantHook(scene, p)
    completed = []

    def watch(st, ev):
        if type(ev) is Fired and ev.transition == "completeScene":
            completed.append(ev.time)

    run(net, state, stop=lambda st, ev: len(completed) >= scenes,
        hooks=[hook, watch])
    return state, hook, completed


def work_list(state):
    """The one WorkList token on preparedTiles."""
    [(work, _ts, _count)] = state.tokens("preparedTiles")
    return work


# ---------------------------------------------------------------------------
# tile complexity distribution
# ---------------------------------------------------------------------------

class TestTileComplexity:
    def test_no_tiles_left_gets_nothing(self):
        assert tile_complexity(0, 500, RngStream(1)) == 0

    def test_last_tile_absorbs_the_remainder(self):
        assert tile_complexity(1, 42, RngStream(1)) == 42
        assert tile_complexity(1, 0, RngStream(1)) == 0

    def test_exhausted_budget_gives_zero(self):
        assert tile_complexity(7, 0, RngStream(1)) == 0

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            tile_complexity(-1, 5, RngStream(1))
        with pytest.raises(ValueError):
            tile_complexity(5, -1, RngStream(1))

    @given(tiles=st.integers(1, 50), cmpl=st.integers(0, 100_000),
           seed=st.integers(0, 2**31))
    def test_share_never_exceeds_the_budget(self, tiles, cmpl, seed):
        share = tile_complexity(tiles, cmpl, RngStream(seed))
        assert 0 <= share <= cmpl

    def test_shares_cluster_below_the_even_split(self):
        # The draw is centred at 0.8x the even split, so the average
        # share over many draws sits clearly below target.
        rng = RngStream(9)
        n = 20_000
        mean = sum(tile_complexity(10, 1_000, rng) for _ in range(n)) / n
        assert 75 <= mean <= 85  # 0.8 * (1000 / 10), within noise


# ---------------------------------------------------------------------------
# tile list construction
# ---------------------------------------------------------------------------

class TestMakeTileList:
    def test_small_scene_grid_is_10_by_10(self):
        tiles = make_tile_list(SMALL, 36_500, RngStream(1))
        assert len(tiles) == 100
        assert all((t.width, t.height) == (1_000, 750) for t in tiles)

    def test_big_scene_grid_is_30_by_30(self):
        tiles = make_tile_list(BIG, 36_500, RngStream(1))
        assert len(tiles) == 900
        assert all((t.width, t.height) == (1_000, 750) for t in tiles)

    def test_single_tile_scene_takes_everything(self):
        scene = SceneConfig(1_000, 750, 1_000, 750, 123)
        tiles = make_tile_list(scene, 123, RngStream(1))
        assert tiles == (Tile(1_000, 750, 123, True, UNASSIGNED),)

    def test_remainders_go_to_last_row_and_column(self):
        scene = SceneConfig(1_050, 800, 1_000, 750, 0)
        tiles = make_tile_list(scene, 0, RngStream(1))
        assert [(t.width, t.height) for t in tiles] == [
            (1_000, 750), (50, 750),
            (1_000, 50), (50, 50),
        ]

    def test_pixels_are_conserved(self):
        for scene in (SMALL, SceneConfig(1_050, 800, 1_000, 750, 0)):
            tiles = make_tile_list(scene, 0, RngStream(1))
            assert sum(t.width * t.height for t in tiles) == (
                scene.width * scene.height)

    @given(cmpl=st.integers(0, 200_000), seed=st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_complexity_is_conserved_exactly(self, cmpl, seed):
        tiles = make_tile_list(TINY, cmpl, RngStream(seed))
        assert sum(t.complexity for t in tiles) == cmpl

    def test_fresh_tiles_are_unassigned_and_hopeful(self):
        tiles = make_tile_list(TINY, 1_000, RngStream(3))
        assert all(t.node_type == UNASSIGNED and t.will_succeed for t in tiles)


# ---------------------------------------------------------------------------
# assignment and delays
# ---------------------------------------------------------------------------

class TestAssignTile:
    BLANK = Tile(1_000, 750, 10, True, UNASSIGNED)

    def test_master_never_fails(self):
        rng = RngStream(1)
        p = params(scenario=REAL)
        assert all(
            assign_tile(self.BLANK, Node(MASTER), p, rng).will_succeed
            for _ in range(2_000)
        )

    def test_ideal_clients_never_fail(self):
        rng = RngStream(2)
        p = params(scenario=IDEAL)
        assert all(
            assign_tile(self.BLANK, Node(CLIENT), p, rng).will_succeed
            for _ in range(2_000)
        )

    def test_real_client_success_frequency(self):
        rng = RngStream(3)
        p = params(scenario=REAL)
        n = 100_000
        hits = sum(
            assign_tile(self.BLANK, Node(CLIENT), p, rng).will_succeed
            for _ in range(n)
        )
        assert 0.89 <= hits / n <= 0.91

    def test_assignment_records_the_node_type(self):
        rng = RngStream(4)
        p = params(scenario=IDEAL)
        assert assign_tile(self.BLANK, Node(CLIENT), p, rng).node_type == CLIENT
        assert assign_tile(self.BLANK, Node(MASTER), p, rng).node_type == MASTER


class TestRaytraceMs:
    def test_pixel_cost_of_a_plain_tile(self):
        tile = Tile(1_000, 750, 0, True, CLIENT)
        assert raytrace_ms(tile, params()) == 750

    def test_complexity_adds_linear_cost(self):
        tile = Tile(1_000, 750, 100, True, CLIENT)
        assert raytrace_ms(tile, params()) == 5_750

    def test_real_master_pays_the_performance_penalty(self):
        tile = Tile(1_000, 750, 100, True, MASTER)
        assert raytrace_ms(tile, params(scenario=REAL)) == 8_214

    def test_ideal_master_is_a_full_node(self):
        tile = Tile(1_000, 750, 100, True, MASTER)
        assert raytrace_ms(tile, params(scenario=IDEAL)) == 5_750

    def test_unassigned_tile_rejected(self):
        tile = Tile(1_000, 750, 100, True, UNASSIGNED)
        with pytest.raises(ValueError):
            raytrace_ms(tile, params())


class TestDelays:
    def test_failure_detection_is_whole_check_periods(self):
        rng = RngStream(1)
        p = params()
        draws = {failure_detect_ms(p, rng) for _ in range(5_000)}
        assert draws == {5_000, 10_000, 15_000, 20_000, 25_000, 30_000}

    def test_single_period_cap_pins_detection_time(self):
        rng = RngStream(2)
        p = params(chck_max_mult=1)
        assert all(failure_detect_ms(p, rng) == 5_000 for _ in range(100))

    def test_recovery_stays_in_bounds(self):
        rng = RngStream(3)
        p = params()
        draws = [recovery_ms(p, rng) for _ in range(10_000)]
        assert all(1 <= d <= 86_400_000 for d in draws)
        mean = sum(draws) / len(draws)
        assert abs(mean - 43_200_000) / 43_200_000 < 0.02

    def test_recovery_bound_of_one_is_instant(self):
        rng = RngStream(4)
        p = params(recovery_max_ms=1)
        assert all(recovery_ms(p, rng) == 1 for _ in range(100))

    def test_comm_delay_mean(self):
        rng = RngStream(5)
        p = params()
        draws = [comm_delay_ms(p, rng) for _ in range(100_000)]
        assert all(d >= 0 for d in draws)
        mean = sum(draws) / len(draws)
        assert abs(mean - 500) / 500 < 0.02

    def test_zero_comm_mean_means_no_delay(self):
        rng = RngStream(6)
        p = params(comm_mean_ms=0)
        assert all(comm_delay_ms(p, rng) == 0 for _ in range(100))


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

class TestConfigs:
    def test_scene_rejects_oversized_tiles(self):
        with pytest.raises(ValueError):
            SceneConfig(500, 500, 1_000, 750, 0)

    @pytest.mark.parametrize("field", ["width", "height", "tile_width",
                                       "tile_height"])
    def test_scene_rejects_sizes_below_one(self, field):
        config = dict(width=4000, height=3000, tile_width=1000,
                      tile_height=750, complexity=1000)
        config[field] = 0
        with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
            SceneConfig(**config)

    def test_scene_rejects_bad_complexity_range(self):
        with pytest.raises(ValueError):
            SceneConfig(1_000, 750, 1_000, 750, (10, 5))
        with pytest.raises(ValueError):
            SceneConfig(1_000, 750, 1_000, 750, -1)

    def test_complexity_range_draw_stays_inside(self):
        scene = SceneConfig(1_000, 750, 1_000, 750, (10_000, 70_000))
        rng = RngStream(1)
        draws = [scene.draw_complexity(rng) for _ in range(2_000)]
        assert all(10_000 <= d <= 70_000 for d in draws)
        assert len(set(draws)) > 1

    def test_fixed_complexity_draw_is_constant(self):
        assert SMALL.draw_complexity(RngStream(1)) == 36_500

    def test_scene_labels(self):
        assert SMALL.label == "10000x7500"
        assert BIG.label == "30000x22500"

    def test_params_reject_bad_values(self):
        with pytest.raises(ValueError):
            params(node_count=0)
        with pytest.raises(ValueError):
            ScenarioParams(node_count=2, scenario="other")
        with pytest.raises(ValueError):
            params(master_perf=0.0)
        with pytest.raises(ValueError):
            params(client_success_p=1.5)
        with pytest.raises(ValueError):
            params(chck_per_ms=0)
        for field in ("send_mean_ms", "send_var", "comm_mean_ms",
                      "work_ms_per_complexity", "work_ms_per_kilopixel"):
            with pytest.raises(ValueError, match=f"^{field} must be >= 0"):
                params(**{field: -0.5})
        # uniform_int passes these upper bounds to numpy's int64 draws.
        for field in ("recovery_max_ms", "chck_max_mult"):
            with pytest.raises(ValueError, match=field):
                params(**{field: 2**63})
            p = params(**{field: 2**63 - 1})
            assert 1 <= uniform_int(RngStream(1), 1, getattr(p, field))


# ---------------------------------------------------------------------------
# net structure
# ---------------------------------------------------------------------------

class TestBuildNet:
    def test_initial_marking_of_an_eight_node_cluster(self):
        rng = RngStream(1)
        net, marking = build_net(SMALL, params(node_count=8), rng)
        # Every other place starts empty.
        assert marking == {
            "newScene": [36_500],
            "nodesNo": [8],
            "freeNodes": [Node(MASTER)] + [Node(CLIENT)] * 7,
            "preparedTiles": [(WorkList(), 0)],
        }
        state = SimState(net, marking, rng)
        assert state.tokens("freeNodes") == [
            (Node(MASTER), None, 1), (Node(CLIENT), None, 7)]
        assert state.tokens("preparedTiles") == [(WorkList(), 0, 1)]
        assert sum(map(len, state.store)) == 11

    def test_equal_configs_share_one_compiled_net(self):
        ranged = SceneConfig(4_000, 3_000, 1_000, 750, (500, 1_500))
        twin = SceneConfig(4_000, 3_000, 1_000, 750, (500, 1_500))
        net, marking = build_net(ranged, params(), RngStream(1))
        net2, marking2 = build_net(twin, params(), RngStream(2))
        assert net2 is net
        assert marking2 is not marking
        assert marking["freeNodes"] is not marking2["freeNodes"]
        # Each marking draws its own first complexity.
        assert marking["newScene"] != marking2["newScene"]
        assert build_net(ranged, params(node_count=9), RngStream(1))[0] is not net

    def test_int_fields_reject_other_types(self):
        # Equal configs share one net, so 5000.0 must not pass for 5000:
        # its net would stamp float model times.
        for field, value in (("chck_per_ms", 5000.0), ("node_count", True),
                             ("chck_max_mult", 6.0), ("recovery_max_ms", 1e6)):
            with pytest.raises(ValueError, match=f"^{field} must be an int"):
                params(**{field: value})
        for field, value in (("width", 4000.0), ("tile_height", True),
                             ("complexity", 1000.0),
                             ("complexity", (500.0, 1500))):
            config = dict(width=4000, height=3000, tile_width=1000,
                          tile_height=750, complexity=1000)
            config[field] = value
            with pytest.raises(ValueError, match=f"^{field} must be an int"):
                SceneConfig(**config)

    @pytest.mark.parametrize("field, value", [
        ("send_mean_ms", "5"), ("client_success_p", None),
        ("work_ms_per_complexity", [1]), ("master_perf", True),
        ("comm_mean_ms", False),
    ])
    def test_float_fields_reject_other_types(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^{field} must be an int or a float"):
            params(**{field: value})

    @pytest.mark.parametrize("scenario", [IDEAL, REAL])
    def test_ints_and_floats_in_float_fields_share_one_net(self, scenario,
                                                           monkeypatch):
        ints = dict(master_perf=1, send_mean_ms=20_000, send_var=10_000,
                    comm_mean_ms=500, work_ms_per_complexity=50,
                    work_ms_per_kilopixel=1)
        as_int = params(3, scenario, **ints)
        as_float = params(3, scenario, **{k: float(v) for k, v in ints.items()})
        net, _ = build_net(TINY, as_int, RngStream(1))
        assert build_net(TINY, as_float, RngStream(1))[0] is net

        # Each on a net compiled for it alone, the two write the same
        # records; repr tells an int from an equal float.
        monkeypatch.setattr(raytrace, "_compiled_net",
                            raytrace._compiled_net.__wrapped__)

        def records(p):
            return [_run_replication(TINY, p, (1, 0, rep), 100_000, 2)
                    for rep in range(4)]

        got = records(as_int)
        assert all(r is not None and len(r) == 2 for r in got)
        assert repr(got) == repr(records(as_float))

    def test_only_scene_distribution_enabled_at_start(self):
        rng = RngStream(1)
        net, marking = build_net(SMALL, params(), rng)
        state = SimState(net, marking, rng)
        assert [n for n, _ in enabled_bindings(net, state)] == ["sendScene"]

    def test_single_node_cluster_distributes_instantly(self):
        rng = RngStream(1)
        net, marking = build_net(TINY, params(node_count=1), rng)
        state = SimState(net, marking, rng)
        event = step(state.net, state)
        assert event.transition == "sendScene"
        [(tiles, ts, count)] = state.tokens("preparedTiles")
        assert ts == 0 and count == 1 and len(tiles.tiles) == TINY.tile_count
        assert state.tokens("scStartTime") == [(0, None, 1)]

    def test_distribution_delay_scales_with_cluster_size(self):
        # With zero send variance the work list matures at exactly
        # (node_count - 1) * send_mean_ms.
        rng = RngStream(1)
        p = params(node_count=5, send_var=0)
        net, marking = build_net(TINY, p, rng)
        state = SimState(net, marking, rng)
        step(net, state)
        [(_, ts, _)] = state.tokens("preparedTiles")
        assert ts == 4 * 20_000


# ---------------------------------------------------------------------------
# whole-run behavior
# ---------------------------------------------------------------------------

class TestRuns:
    def test_ideal_run_conserves_and_never_fails(self):
        state, hook, completed = run_scenes(TINY, params(scenario=IDEAL), seed=7)
        assert len(completed) == 1
        assert hook.failure_firings == 0
        assert hook.checks > 0

    def test_real_run_conserves_through_failures(self):
        total_failures = 0
        for seed in range(5):
            state, hook, completed = run_scenes(
                TINY, params(scenario=REAL), seed=seed)
            assert len(completed) == 1
            total_failures += hook.failure_firings
        assert total_failures > 0  # 16 tiles x 5 runs at 10% failure

    def test_single_node_real_run_completes(self):
        state, hook, completed = run_scenes(
            TINY, params(node_count=1, scenario=REAL), seed=3)
        assert len(completed) == 1
        assert hook.failure_firings == 0  # master never fails

    def test_scene_loop_runs_back_to_back(self):
        state, hook, completed = run_scenes(
            TINY, params(scenario=IDEAL), seed=11, scenes=3)
        assert len(completed) == 3
        assert completed == sorted(completed)
        # The net is ready for the next scene: work list empty, all
        # nodes free, a fresh complexity drawn.
        assert state.tokens("preparedTiles")[0][0] == WorkList()
        assert state.count("freeNodes") == 8
        assert state.count("newScene") == 1

    def test_failed_tiles_are_requeued_not_lost(self):
        # Count returnTile firings on a failure-heavy run and check the
        # scene still completes with every tile computed exactly once.
        p = params(scenario=REAL, client_success_p=0.5)
        rng = RngStream(13)
        net, marking = build_net(TINY, p, rng)
        state = SimState(net, marking, rng)
        returned = []

        def watch(st, ev):
            if type(ev) is Fired and ev.transition == "returnTile":
                returned.append(ev.time)

        done = []
        run(net, state,
            stop=lambda st, ev: len(done) >= 1,
            hooks=[watch,
                   lambda st, ev: done.append(1)
                   if type(ev) is Fired and ev.transition == "completeScene"
                   else None,
                   RaytraceInvariantHook(TINY, p)])
        assert done and returned

    def test_selecting_a_tile_shares_the_work_list(self):
        rng = RngStream(1)
        net, marking = build_net(TINY, params(scenario=IDEAL), rng)
        state = SimState(net, marking, rng)
        for _ in range(10_000):
            before = work_list(state)
            event = step(net, state)
            if type(event) is Fired and event.transition == "selectTile":
                break
        else:
            pytest.fail("no tile was selected")
        after = work_list(state)
        assert before.tiles and after.tiles is before.tiles
        assert after.start == before.start + 1

    def test_returned_tiles_go_last_and_a_scene_ends_empty(self):
        # The failure-heavy run of test_failed_tiles_are_requeued_not_lost.
        p = params(scenario=REAL, client_success_p=0.5)
        rng = RngStream(13)
        net, marking = build_net(TINY, p, rng)
        state = SimState(net, marking, rng)
        returned = 0
        for _ in range(10_000):
            before = work_list(state)
            event = step(net, state)
            if type(event) is not Fired:
                continue
            if event.transition == "returnTile":
                after = work_list(state)
                reset = event.assignment["tile"]._replace(
                    will_succeed=True, node_type=UNASSIGNED)
                assert after.start == 0
                assert after.tiles == before.tiles[before.start:] + (reset,)
                returned += 1
            elif event.transition == "completeScene":
                break
        else:
            pytest.fail("the scene never completed")
        assert returned
        assert work_list(state) == WorkList()
